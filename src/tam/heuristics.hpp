#pragma once

#include "common/rng.hpp"
#include "tam/exact_solver.hpp"
#include "tam/tam_problem.hpp"

namespace soctest {

/// Longest-processing-time-first list scheduling, constraint-aware:
/// co-assignment groups are contracted, items sorted by decreasing minimum
/// test time, each placed on the allowed bus minimizing the resulting load
/// (ties: lower wiring cost). The wiring budget is respected greedily; when
/// no bus fits within the remaining budget the cheapest-wire bus is taken
/// and the result may be infeasible (feasible = false).
TamSolveResult solve_greedy_lpt(const TamProblem& problem);

struct SaSolverOptions {
  int iterations = 50000;
  double initial_temperature = 0.0;  ///< 0 = auto (scaled to makespan)
  double cooling = 0.9997;
  std::uint64_t seed = 1;
  /// Penalty per wiring-budget overflow unit, in cycles.
  double wire_penalty = 1000.0;
  /// Optional cooperative cancellation (portfolio racing): checked every
  /// iteration; on cancel the best assignment seen so far is returned.
  const CancellationToken* cancel = nullptr;
  /// Optional wall-clock deadline (anytime mode): the annealing loop stops
  /// when it expires and returns the best assignment seen so far.
  Deadline deadline;
};

/// Simulated-annealing baseline: starts from greedy LPT, perturbs by moving
/// one item to another allowed bus or swapping two items across buses.
/// Objective: makespan + wire_penalty * budget overflow. Returns the best
/// *feasible* assignment seen (falls back to infeasible-best otherwise).
TamSolveResult solve_sa(const TamProblem& problem,
                        const SaSolverOptions& options = {});

}  // namespace soctest
