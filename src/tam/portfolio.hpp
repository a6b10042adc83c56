#pragma once

#include <functional>
#include <string>

#include "pack/skyline.hpp"
#include "tam/exact_solver.hpp"
#include "tam/heuristics.hpp"
#include "tam/width_partition.hpp"

namespace soctest {

struct PortfolioOptions {
  /// Worker threads for the race; 0 = auto (default_thread_count()),
  /// clamped to at least 2 so both racers make progress.
  int threads = 0;
  /// Node budget for the exact racer; < 0 unlimited.
  long long max_nodes = -1;
  /// Threads handed to the exact solver's own root-splitting search
  /// (1 = serial exact inside the race).
  int exact_threads = 1;
  /// Optional externally known upper bound (inclusive), combined with the
  /// greedy incumbent (the tighter wins) before seeding the exact solver.
  /// As with solve_exact, a completed search that finds nothing at or below
  /// it returns infeasible with proved_optimal set.
  Cycles initial_upper_bound = -1;
  BoundMode bound_mode = BoundMode::kFull;
  SaSolverOptions sa;
  /// Optional cooperative cancellation from the caller (Ctrl-C, an outer
  /// race). Both racers observe it; the greedy floor still runs.
  const CancellationToken* cancel = nullptr;
  /// Optional wall-clock deadline (anytime mode). The portfolio is the
  /// degradation chain: greedy always supplies a floor incumbent, the racers
  /// honor the deadline, and the certificate reports the achieved gap.
  Deadline deadline;
};

struct PortfolioResult {
  TamSolveResult best;
  /// Which racer supplied `best`: "exact", "greedy", or "sa".
  std::string winner;
  /// The heuristic incumbent fed into the exact solver's warm start
  /// (-1 when greedy found nothing feasible).
  Cycles heuristic_bound = -1;
  long long exact_nodes = 0;
  long long sa_moves = 0;
  /// True when the SA racer was cancelled because the exact solver proved
  /// optimality first.
  bool sa_cancelled = false;
  /// Quality certificate for `best`: optimal when the exact racer completed
  /// with an assignment, proven infeasible when it completed without one
  /// (nothing at or below initial_upper_bound), feasible_bounded with a gap
  /// against the problem's combinatorial lower bound when the solve was
  /// interrupted, error when every racer faulted.
  SolveCertificate certificate;
};

/// Solver portfolio racing (the parallel-execution layer's front end):
/// greedy-LPT runs first and its makespan seeds the exact solver's warm
/// start (`ExactSolverOptions::initial_upper_bound`); the exact
/// branch-and-bound and simulated annealing then race on a thread pool, and
/// the SA racer is cancelled as soon as optimality is proved. The returned
/// assignment is deterministic whenever the exact racer completes: warm
/// starts do not change the exact solver's witness (see DESIGN.md).
PortfolioResult solve_portfolio(const TamProblem& problem,
                                const PortfolioOptions& options = {});

struct FormulationRaceResult {
  /// The fixed-bus racer's architecture (whatever `solve_fixed` returned).
  ArchitectureResult fixed;
  /// The rectangle-packing racer's result.
  PackSolveResult pack;
  /// True when the packing formulation strictly beat the fixed-bus
  /// makespan (ties keep the fixed-bus answer, preserving the results of
  /// every pre-pack run).
  bool pack_won = false;
};

/// Formulation-level portfolio: races the fixed-bus width search against
/// the rectangle-packing solver (src/pack) on a two-worker pool. Both
/// racers run to completion — each is internally deterministic, so the
/// combined result is bit-identical at any thread count; the pool only
/// buys wall-clock overlap. Emits `tam.portfolio.win_pack` /
/// `tam.portfolio.win_fixed` counters for the scraped stats.
FormulationRaceResult race_formulations(
    const std::function<ArchitectureResult()>& solve_fixed,
    const PackProblem& pack_problem, const PackSolverOptions& pack_options);

}  // namespace soctest
