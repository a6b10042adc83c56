#include "tam/width_partition.hpp"

#include <algorithm>
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

TamSolveResult run_inner(const TamProblem& problem,
                         const WidthPartitionOptions& options,
                         Cycles incumbent) {
  switch (options.solver) {
    case InnerSolver::kExact: {
      ExactSolverOptions exact;
      exact.max_nodes = options.max_nodes_per_solve;
      exact.initial_upper_bound = incumbent;
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
      portfolio.initial_upper_bound = incumbent;
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
  // Between-partition stop polling: the per-node/iteration checks live in
  // the inner solvers; this one stops the enumeration itself.
  StopCheck stop_check(options.deadline, options.cancel);
  const bool anytime =
      options.deadline.finite() || options.cancel != nullptr;
  bool stopped = false;

  for (const auto& partition : width_partitions(total_width, num_buses)) {
    if (stopped) break;
    std::vector<int> widths = partition;
    // next_permutation over the non-increasing vector enumerates each
    // distinct arrangement exactly once starting from the sorted-ascending
    // order.
    std::sort(widths.begin(), widths.end());
    do {
      if (stop_check.should_stop()) {
        best.proved_optimal = false;
        if (best.stop == StopReason::kNone) best.stop = stop_check.reason();
        stopped = true;
        break;
      }
      ++best.partitions_tried;
      TamProblem problem;
      try {
        problem = make_tam_problem(soc, table, widths, layout, wire_budget,
                                   p_max_mw, options.power_mode,
                                   options.bus_depth_limit);
      } catch (const std::runtime_error&) {
        // This width vector cannot host some core under the ATE depth limit
        // (narrow buses inflate test times); other partitions may still fit.
        if (options.bus_depth_limit < 0) throw;
        continue;
      }
      // Skip width vectors that provably cannot beat the incumbent.
      if (best.feasible && problem.lower_bound() >= best.assignment.makespan) {
        continue;
      }
      const Cycles incumbent = best.feasible ? best.assignment.makespan : -1;
      TamSolveResult result = run_inner(problem, options, incumbent);
      best.total_nodes += result.nodes;
      if (!result.proved_optimal) best.proved_optimal = false;
      if (result.stop != StopReason::kNone && best.stop == StopReason::kNone) {
        best.stop = result.stop;
      }
      // Graceful degradation: an interrupted inner solve that found nothing
      // must not silently skip the partition — greedy-LPT is cheap enough to
      // always supply a floor incumbent.
      if (anytime && !result.feasible &&
          result.stop != StopReason::kNone &&
          options.solver != InnerSolver::kGreedy) {
        result = greedy_floor(problem, std::move(result));
      }
      if (result.feasible &&
          (!best.feasible || result.assignment.makespan < best.assignment.makespan)) {
        best.feasible = true;
        best.bus_widths = widths;
        best.assignment = result.assignment;
        best.search_mode = result.search_mode;
        report_progress();
      }
      if (!permute) break;
    } while (permute && std::next_permutation(widths.begin(), widths.end()));
  }
  if (!best.feasible) best.proved_optimal = false;

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
