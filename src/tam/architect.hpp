#pragma once

#include <optional>
#include <string>

#include "layout/bus_planner.hpp"
#include "layout/constraints.hpp"
#include "pack/pack_problem.hpp"
#include "tam/width_partition.hpp"

namespace soctest {

/// One-call facade over the whole flow: wrapper test-time modeling, bus
/// trunk planning, constraint extraction, and constrained architecture
/// optimization. This is the public API the examples exercise.
struct DesignRequest {
  /// Explicit bus widths; when empty, `num_buses`/`total_width` drive a
  /// width-partition search instead. Explicit widths run the same search
  /// over a single candidate (search_width_candidates).
  std::vector<int> bus_widths;
  int num_buses = 2;
  int total_width = 32;

  /// Place-and-route constraint: maximum core-to-trunk detour distance in
  /// grid edges; -1 disables (assignments unrestricted by layout). Requires
  /// the SOC to be placed.
  int d_max = -1;
  /// Total stub wiring budget (grid edges); -1 disables.
  long long wire_budget = -1;
  /// Enables layout-based wire costs / routing even when d_max and
  /// wire_budget are off (so the report can show wirelength).
  bool use_layout = false;

  /// Test power ceiling in mW; -1 disables the power constraint.
  double p_max_mw = -1.0;
  /// How p_max_mw is encoded: the paper's pairwise serialization (exact for
  /// B=2) or the bus-max-sum extension (sound for any B).
  PowerConstraintMode power_mode = PowerConstraintMode::kPairwiseSerialization;

  /// ATE vector-memory depth per TAM channel (cycles); -1 disables. Caps
  /// every bus's total test length.
  Cycles ate_depth_limit = -1;

  InnerSolver solver = InnerSolver::kExact;
  /// Whether a kPortfolio width search may additionally race the
  /// rectangle-packing formulation (see tam/portfolio.hpp). Callers that
  /// realize power at the schedule level (--idle-insertion) turn this off:
  /// a packed winner would bypass the idle-insertion scheduler.
  bool pack_race = true;
  long long max_nodes = -1;
  /// Worker threads for the exact solver's root-splitting search and the
  /// portfolio race. 1 = serial, 0 = auto (default_thread_count()). Any
  /// value yields identical results for solves that complete (the exact
  /// solver's determinism guarantee).
  int threads = 1;
  /// Optional cooperative cancellation observed by every long-running stage.
  /// A token alone does not reroute kExact (only a finite deadline does). A
  /// fired token stops the search, which then answers with its best valid
  /// greedy-LPT seed, or with greedy-LPT on the last candidate when it
  /// stopped before scoring one; explicit and searched widths alike.
  const CancellationToken* cancel = nullptr;
  /// Optional wall-clock deadline (anytime mode, --time-limit-ms). With a
  /// finite deadline the kExact solver is routed through the portfolio so a
  /// greedy floor incumbent always exists; the result's certificate reports
  /// the achieved optimality gap.
  Deadline deadline;
  /// Optional incumbent-improvement callback (tam/width_partition.hpp).
  /// Explicit and searched widths alike report the best valid greedy-LPT
  /// seed first, then every strictly better architecture. The lower bound
  /// is the lone candidate's own for explicit widths, the width-relaxed
  /// bound for a search. Runs on the solving thread.
  ProgressFn progress;
};

struct DesignResult {
  bool feasible = false;
  bool proved_optimal = false;
  std::vector<int> bus_widths;
  TamAssignment assignment;
  /// Planned bus routes when layout was used.
  std::optional<BusPlan> bus_plan;
  /// Total stub wirelength of the chosen assignment (layout runs only).
  long long stub_wirelength = 0;
  long long partitions_tried = 0;
  long long total_nodes = 0;
  /// Why the solve stopped early; kNone for a run to completion.
  StopReason stop = StopReason::kNone;
  /// Execution strategy of the solve that produced the winning assignment
  /// (serial/parallel for exact searches, kNone for heuristics).
  SearchMode search_mode = SearchMode::kNone;
  /// Quality certificate for the returned architecture (docs/robustness.md).
  SolveCertificate certificate;
  /// Non-empty when the rectangle-packing formulation produced the result
  /// (--solver pack / pack-exact, or a portfolio formulation-race win):
  /// the packed schedule, sorted by (start, x). bus_widths then holds the
  /// single strip width and every core maps to "bus" 0.
  std::vector<PackPlacement> pack_placements;
};

/// Runs the full TAM architecture design flow on `soc`.
/// Throws std::runtime_error for structurally infeasible constraint sets
/// (unconnectable core, over-budget core power).
DesignResult design_architecture(const Soc& soc, const DesignRequest& request);

/// Multi-line human-readable report of a design (architecture, per-bus core
/// lists with test times, wirelength, constraint recap).
std::string describe_design(const Soc& soc, const DesignRequest& request,
                            const DesignResult& result);

}  // namespace soctest
