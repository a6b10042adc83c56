#include "tam/width_partition.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "tam/heuristics.hpp"
#include "tam/ilp_solver.hpp"
#include "tam/portfolio.hpp"
#include "tam/staircase.hpp"

namespace soctest {

const char* inner_solver_name(InnerSolver solver) {
  switch (solver) {
    case InnerSolver::kExact: return "exact";
    case InnerSolver::kIlp: return "ilp";
    case InnerSolver::kGreedy: return "greedy";
    case InnerSolver::kSa: return "sa";
    case InnerSolver::kPortfolio: return "portfolio";
    case InnerSolver::kPack: return "pack";
    case InnerSolver::kPackExact: return "pack-exact";
  }
  return "unknown";
}

namespace {

constexpr Cycles kInfCycles = std::numeric_limits<Cycles>::max();

void enumerate(int remaining, int parts, int max_part, std::vector<int>& prefix,
               std::vector<std::vector<int>>& out) {
  if (parts == 1) {
    if (remaining >= 1 && remaining <= max_part) {
      prefix.push_back(remaining);
      out.push_back(prefix);
      prefix.pop_back();
    }
    return;
  }
  // Leave at least 1 per remaining part; keep non-increasing order.
  for (int w = std::min(max_part, remaining - (parts - 1)); w >= 1; --w) {
    // Remaining parts are each <= w, so they can absorb at most w*(parts-1).
    if (remaining - w > w * (parts - 1)) break;
    prefix.push_back(w);
    enumerate(remaining - w, parts - 1, w, prefix, out);
    prefix.pop_back();
  }
}

/// Solves one candidate. `upper_bound` (inclusive; < 0 = none) is honored
/// by the exact and portfolio solvers only: they then report "nothing at or
/// below the bound" as a proven-infeasible result.
TamSolveResult run_inner(const TamProblem& problem,
                         const WidthPartitionOptions& options,
                         Cycles upper_bound) {
  switch (options.solver) {
    case InnerSolver::kExact: {
      ExactSolverOptions exact;
      exact.max_nodes = options.max_nodes_per_solve;
      exact.initial_upper_bound = upper_bound;
      exact.threads = options.threads;
      exact.cancel = options.cancel;
      exact.deadline = options.deadline;
      return solve_exact(problem, exact);
    }
    case InnerSolver::kIlp: {
      MipOptions mip;
      mip.cancel = options.cancel;
      mip.deadline = options.deadline;
      return solve_ilp(problem, mip);
    }
    case InnerSolver::kGreedy:
      return solve_greedy_lpt(problem);
    case InnerSolver::kSa: {
      SaSolverOptions sa;
      sa.cancel = options.cancel;
      sa.deadline = options.deadline;
      return solve_sa(problem, sa);
    }
    case InnerSolver::kPortfolio: {
      PortfolioOptions portfolio;
      portfolio.max_nodes = options.max_nodes_per_solve;
      portfolio.initial_upper_bound = upper_bound;
      portfolio.threads = options.threads;
      portfolio.cancel = options.cancel;
      portfolio.deadline = options.deadline;
      return solve_portfolio(problem, portfolio).best;
    }
    case InnerSolver::kPack:
    case InnerSolver::kPackExact:
      // The packing formulation never reaches the per-partition inner solve
      // (tam/architect.cpp routes it first); degrade to greedy defensively.
      return solve_greedy_lpt(problem);
  }
  throw std::logic_error("unknown inner solver");
}

/// Global lower bound for the whole width search: every core could at best
/// run at the widest bus any partition can offer (total - (buses-1) wires),
/// and B buses cannot beat the average of that relaxed workload.
Cycles width_search_lower_bound(const TestTimeTable& table, int num_buses,
                                int total_width) {
  const int w_max =
      std::min(table.max_width(), total_width - (num_buses - 1));
  if (w_max < 1) return 0;
  const Staircase stairs(table);
  const Staircase::RowStats stats = stairs.row_stats(w_max);
  const auto b = static_cast<Cycles>(num_buses);
  return std::max(stats.max_single, (stats.total + b - 1) / b);
}

}  // namespace

std::vector<std::vector<int>> width_partitions(int total, int parts) {
  std::vector<std::vector<int>> out;
  if (total < parts || parts <= 0) return out;
  std::vector<int> prefix;
  enumerate(total, parts, total, prefix, out);
  return out;
}

ArchitectureResult optimize_widths(const Soc& soc, const TestTimeTable& table,
                                   int num_buses, int total_width,
                                   const LayoutConstraints* layout,
                                   long long wire_budget, double p_max_mw,
                                   const WidthPartitionOptions& options) {
  if (num_buses <= 0) throw std::invalid_argument("num_buses must be positive");
  if (total_width < num_buses) {
    throw std::invalid_argument("total width below one wire per bus");
  }
  ArchitectureResult best;
  best.proved_optimal = true;
  // The width-relaxed global bound is cheap and fixed for the whole
  // search, so it doubles as the per-incumbent gap reference streamed to
  // progress callbacks.
  const Cycles global_lb =
      width_search_lower_bound(table, num_buses, total_width);
  const auto report_progress = [&] {
    if (!options.progress) return;
    SolveProgress snapshot;
    snapshot.bus_widths = best.bus_widths;
    snapshot.t_cycles = static_cast<long long>(best.assignment.makespan);
    snapshot.lower_bound =
        global_lb > 0 ? static_cast<long long>(global_lb) : -1;
    options.progress(snapshot);
  };
  const bool permute = options.permute_widths || layout != nullptr;
  // Stop polling between candidates; the per-node/iteration checks live in
  // the inner solvers.
  StopCheck stop_check(options.deadline, options.cancel);
  const bool anytime =
      options.deadline.finite() || options.cancel != nullptr;
  bool stopped = false;
  const auto note_stop = [&] {
    best.proved_optimal = false;
    if (best.stop == StopReason::kNone) best.stop = stop_check.reason();
    stopped = true;
  };

  // Enumeration order: partitions from the most lopsided split, each as its
  // sorted-ascending vector — and, when buses are distinguishable, every
  // distinct permutation of it (next_permutation from the sorted order).
  // Candidate k's widths are widths_of[k * B, (k + 1) * B).
  const auto b = static_cast<std::size_t>(num_buses);
  std::vector<int> widths_of;
  for (std::vector<int> widths : width_partitions(total_width, num_buses)) {
    std::sort(widths.begin(), widths.end());
    do {
      widths_of.insert(widths_of.end(), widths.begin(), widths.end());
    } while (permute && std::next_permutation(widths.begin(), widths.end()));
  }
  const auto widths_at = [&](std::size_t k) {
    const auto first = widths_of.begin() + static_cast<std::ptrdiff_t>(k * b);
    return std::vector<int>(first, first + static_cast<std::ptrdiff_t>(b));
  };

  // Scoring pass. Everything that does not depend on the width vector
  // (validation, diagnostics, power groups, layout rows) is built once into
  // `problem`; each candidate rewrites only its widths and times, then gets
  // its lower bound and a greedy-LPT seed.
  struct Candidate {
    std::size_t index = 0;  ///< enumeration index: the tie-break
    Cycles lower_bound = 0;
    TamSolveResult seed;
    /// Visit key: the seed makespan when the seed passes check_assignment.
    /// A seed that breaks a constraint measures no achievable makespan
    /// (and runs optimistic), so it sorts after every valid one.
    Cycles key() const {
      return seed.feasible ? seed.assignment.makespan : kInfCycles;
    }
  };
  std::vector<Candidate> scored;
  std::optional<TamProblem> problem;
  bool frame_infeasible = false;
  const std::size_t num_candidates = widths_of.size() / b;
  for (std::size_t k = 0; k < num_candidates; ++k) {
    if (stop_check.should_stop()) {
      note_stop();
      break;
    }
    ++best.partitions_tried;
    if (frame_infeasible) continue;
    try {
      if (!problem) {
        problem = make_tam_problem_frame(soc, table, b, layout, wire_budget,
                                         p_max_mw, options.power_mode,
                                         options.bus_depth_limit);
      }
      set_tam_problem_widths(*problem, soc, table, widths_at(k));
    } catch (const std::runtime_error&) {
      // Some core fits no bus under the ATE depth limit at these widths
      // (narrow buses inflate test times); other candidates may still fit.
      // Without a depth limit the constraints are infeasible outright.
      if (options.bus_depth_limit < 0) throw;
      if (!problem) frame_infeasible = true;
      continue;
    }
    Candidate candidate;
    candidate.index = k;
    candidate.lower_bound = problem->lower_bound();
    candidate.seed = solve_greedy_lpt(*problem);
    scored.push_back(std::move(candidate));
  }

  // Best-first solve pass over (seed key, enumeration index). The
  // incumbent (T, idx) is compared lexicographically, so the search returns
  // the lowest-index width vector reaching the optimum — the answer of a
  // plain enumeration-order scan. A valid seed is an achievable makespan,
  // so for the solvers that honor a bound it stands in as the incumbent
  // until the first solve is accepted.
  std::vector<std::size_t> order(scored.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) {
                     return scored[x].key() < scored[y].key();
                   });
  const Candidate* best_seed =
      order.empty() || !scored[order.front()].seed.feasible
          ? nullptr
          : &scored[order.front()];
  Cycles incumbent = kInfCycles;
  std::size_t incumbent_index = num_candidates;
  if (best_seed != nullptr && (options.solver == InnerSolver::kExact ||
                               options.solver == InnerSolver::kPortfolio)) {
    incumbent = best_seed->seed.assignment.makespan;
    incumbent_index = best_seed->index;
  }
  for (std::size_t pos = 0; pos < order.size() && !stopped; ++pos) {
    const Candidate& candidate = scored[order[pos]];
    if (candidate.lower_bound > incumbent ||
        (candidate.lower_bound == incumbent &&
         candidate.index > incumbent_index)) {
      continue;
    }
    if (stop_check.should_stop()) {
      note_stop();
      break;
    }
    const std::vector<int> widths = widths_at(candidate.index);
    TamSolveResult result;
    if (options.solver == InnerSolver::kGreedy) {
      result = candidate.seed;
    } else {
      set_tam_problem_widths(*problem, soc, table, widths);
      // Before the incumbent's index a tie still wins, so search up to T;
      // after it only a strict improvement can.
      Cycles upper_bound = -1;
      if (incumbent != kInfCycles) {
        upper_bound = candidate.index <= incumbent_index ? incumbent
                                                         : incumbent - 1;
      }
      result = run_inner(*problem, options, upper_bound);
    }
    best.total_nodes += result.nodes;
    if (!result.proved_optimal) best.proved_optimal = false;
    if (result.stop != StopReason::kNone && best.stop == StopReason::kNone) {
      best.stop = result.stop;
    }
    // Graceful degradation: an interrupted inner solve that found nothing
    // must not silently skip the candidate — greedy-LPT is cheap enough to
    // always supply a floor incumbent.
    if (anytime && !result.feasible && result.stop != StopReason::kNone &&
        options.solver != InnerSolver::kGreedy) {
      result = greedy_floor(*problem, std::move(result));
    }
    if (!result.feasible) continue;
    const Cycles makespan = result.assignment.makespan;
    if (makespan > incumbent ||
        (makespan == incumbent && candidate.index > incumbent_index)) {
      continue;
    }
    // Partials stream strict improvements only, never a tie moved to a
    // lower index.
    const bool improved = !best.feasible || makespan < best.assignment.makespan;
    best.feasible = true;
    best.bus_widths = widths;
    best.assignment = std::move(result.assignment);
    best.search_mode = result.search_mode;
    incumbent = makespan;
    incumbent_index = candidate.index;
    if (improved) report_progress();
  }
  if (!best.feasible) best.proved_optimal = false;

  // An interrupted search that accepted nothing still has every scored
  // candidate's seed: the best valid one is its answer.
  if (!best.feasible && best.stop != StopReason::kNone &&
      best_seed != nullptr) {
    best.feasible = true;
    best.bus_widths = widths_at(best_seed->index);
    best.assignment = best_seed->seed.assignment;
    report_progress();
  }

  // Anytime floor: even a budget that expired before the first partition
  // still returns *an* architecture when one exists. Greedy-LPT on the
  // balanced width split mirrors the portfolio's greedy floor; it ignores
  // the already-expired deadline (greedy is O(n log n), not a search).
  if (anytime && !best.feasible && best.stop != StopReason::kNone) {
    std::vector<int> widths(static_cast<std::size_t>(num_buses),
                            total_width / num_buses);
    for (int r = 0; r < total_width % num_buses; ++r) ++widths[static_cast<std::size_t>(r)];
    try {
      const TamProblem problem =
          make_tam_problem(soc, table, widths, layout, wire_budget, p_max_mw,
                           options.power_mode, options.bus_depth_limit);
      const TamSolveResult fallback = solve_greedy_lpt(problem);
      if (fallback.feasible) {
        best.feasible = true;
        best.proved_optimal = false;
        best.bus_widths = widths;
        best.assignment = fallback.assignment;
        ++best.partitions_tried;
        report_progress();
      }
    } catch (const std::runtime_error&) {
      // The balanced split cannot host some core under the constraints;
      // the run stays infeasible-with-stop-reason.
    }
  }

  // Certificate: gap against the width-relaxed global lower bound.
  if (!best.feasible) {
    best.certificate =
        certify_infeasible(/*proven=*/best.stop == StopReason::kNone,
                           best.stop);
  } else {
    const auto makespan = static_cast<long long>(best.assignment.makespan);
    const Cycles lb = global_lb;
    if (best.proved_optimal && best.stop == StopReason::kNone) {
      best.certificate = certify_optimal(makespan);
    } else if (lb > 0 && makespan <= static_cast<long long>(lb)) {
      // Meeting the relaxation bound proves optimality even mid-search.
      best.proved_optimal = true;
      best.certificate = certify_optimal(makespan);
    } else if (lb > 0) {
      best.certificate =
          certify_bounded(makespan, static_cast<long long>(lb), best.stop);
    } else {
      best.certificate = certify_feasible(makespan, best.stop);
    }
  }
  return best;
}

}  // namespace soctest
