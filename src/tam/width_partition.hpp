#pragma once

#include <functional>
#include <optional>
#include <string_view>

#include "layout/constraints.hpp"
#include "tam/exact_solver.hpp"
#include "tam/tam_problem.hpp"
#include "wrapper/test_time_table.hpp"

namespace soctest {

/// Which inner assignment solver the width-partition search runs per
/// candidate width vector. kPortfolio races greedy-LPT, SA, and the exact
/// solver concurrently (see tam/portfolio.hpp) — and, on width-search
/// requests without layout/ATE constraints, additionally races the
/// rectangle-packing formulation (src/pack). kPack/kPackExact live in the
/// same enum so one CLI flag / service field names every solver, but they
/// switch the whole solve to the packing formulation instead of picking an
/// inner assignment solver (tam/architect.cpp routes them before the width
/// search).
enum class InnerSolver { kExact, kIlp, kGreedy, kSa, kPortfolio, kPack, kPackExact };

/// CLI-facing name of an inner solver ("exact", "ilp", ...), matching the
/// --solver flag values; used by reports and the run ledger.
const char* inner_solver_name(InnerSolver solver);

/// The solver named `name` (the inverse of inner_solver_name); nullopt for
/// an unknown name. The --solver flag and the request's "solver" field
/// both parse through it.
std::optional<InnerSolver> parse_inner_solver(std::string_view name);

/// Snapshot of an improving incumbent, pushed through the optional
/// progress callback as the anytime search finds better architectures
/// (the solve service streams these as soctest-partial-v1 records).
struct SolveProgress {
  std::vector<int> bus_widths;
  long long t_cycles = -1;
  /// Valid global lower bound for the whole search; -1 when none exists.
  long long lower_bound = -1;
};

/// Called on the solving thread, zero or more times per solve, each call
/// with a strictly better (smaller t_cycles) incumbent than the last.
using ProgressFn = std::function<void(const SolveProgress&)>;

/// Options of a width search (optimize_widths, search_width_candidates).
/// An explicit-width design request is the same search over one candidate,
/// so every field applies to both. Whether permutations of a width multiset
/// are candidates is not an option: an enumeration adds them exactly when
/// layout makes the buses distinguishable.
struct WidthPartitionOptions {
  InnerSolver solver = InnerSolver::kExact;
  /// Worker threads for the exact solver's root-splitting search and the
  /// portfolio race. 1 = serial, 0 = auto (default_thread_count()).
  int threads = 1;
  /// Node budget passed to the exact inner solver; < 0 unlimited.
  long long max_nodes_per_solve = -1;
  /// How p_max_mw is encoded (pairwise serialization vs bus-max-sum).
  PowerConstraintMode power_mode = PowerConstraintMode::kPairwiseSerialization;
  /// ATE vector-memory depth limit per bus; -1 disables.
  Cycles bus_depth_limit = -1;
  /// Optional cooperative cancellation: checked between partitions and
  /// inside every inner solve.
  const CancellationToken* cancel = nullptr;
  /// Optional wall-clock deadline shared by the whole width search. On
  /// expiry the search stops and the best architecture found so far is
  /// returned with a certificate bounding its gap. The best valid
  /// greedy-LPT seed is the first incumbent, so an interrupted solve never
  /// turns a solvable search into "infeasible".
  Deadline deadline;
  /// Optional incumbent-improvement callback (see ProgressFn). Invoked on
  /// the calling thread with the best valid seed after the scoring pass,
  /// then on every strict improvement; an empty function (the default)
  /// costs nothing.
  ProgressFn progress;
};

/// The output of architecture-level optimization: the chosen bus widths and
/// the core assignment achieving the best makespan.
struct ArchitectureResult {
  bool feasible = false;
  bool proved_optimal = false;  ///< every partition solved to optimality
  std::vector<int> bus_widths;
  TamAssignment assignment;
  long long partitions_tried = 0;
  long long total_nodes = 0;
  /// Why the search stopped early; kNone when every partition was examined.
  StopReason stop = StopReason::kNone;
  /// Execution strategy of the inner solve that produced the winning
  /// assignment (SearchMode::kNone for heuristic inner solvers).
  SearchMode search_mode = SearchMode::kNone;
  /// Quality certificate: optimal when the search completed with every
  /// inner solve proven, feasible_bounded (gap vs the search's lower bound,
  /// see search_width_candidates) when interrupted, infeasible when nothing
  /// was found, error when the solves faulted before finding anything.
  SolveCertificate certificate;
};

/// Enumerates all partitions of `total_width` into `num_buses` positive
/// widths (non-increasing to kill bus symmetry; optionally permuted when
/// buses are distinguishable) and solves the constrained assignment problem
/// for each, returning the architecture with the minimum test time.
///
/// This is the "architecture design" layer of the paper: the ILP assigns
/// cores for *given* bus widths; this search chooses the widths themselves.
/// It is candidate generation followed by search_width_candidates.
ArchitectureResult optimize_widths(const Soc& soc, const TestTimeTable& table,
                                   int num_buses, int total_width,
                                   const LayoutConstraints* layout = nullptr,
                                   long long wire_budget = -1,
                                   double p_max_mw = -1.0,
                                   const WidthPartitionOptions& options = {});

/// Solves the constrained assignment for every candidate width vector in
/// `flat_widths` (candidate k is widths [k * num_buses, (k + 1) *
/// num_buses); all candidates share one total width) and returns the best
/// architecture, ties going to the lowest candidate index. One candidate
/// is an explicit-width solve. Its certificate and partials measure the
/// gap against that candidate's TamProblem::lower_bound(); several
/// candidates measure it against the width-relaxed bound of the search.
///
/// Throws the width-independent diagnostics of make_tam_problem_frame
/// (std::runtime_error). A candidate some core cannot fit under the ATE
/// depth limit is skipped; when every candidate is, the first rejection is
/// rethrown.
ArchitectureResult search_width_candidates(
    const Soc& soc, const TestTimeTable& table, int num_buses,
    const std::vector<int>& flat_widths,
    const LayoutConstraints* layout = nullptr, long long wire_budget = -1,
    double p_max_mw = -1.0, const WidthPartitionOptions& options = {});

/// All partitions of `total` into exactly `parts` positive non-increasing
/// integers (helper exposed for tests; count grows polynomially for fixed
/// `parts`).
std::vector<std::vector<int>> width_partitions(int total, int parts);

}  // namespace soctest
