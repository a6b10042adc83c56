#include "tam/width_partition.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "tam/heuristics.hpp"
#include "tam/ilp_solver.hpp"
#include "tam/portfolio.hpp"
#include "tam/staircase.hpp"

namespace soctest {

/// Every solver with its one name (scripts/check_docs.sh diffs this table
/// against the solver catalog in docs/service.md).
constexpr std::pair<InnerSolver, const char*> kInnerSolverNames[] = {
    {InnerSolver::kExact, "exact"},
    {InnerSolver::kIlp, "ilp"},
    {InnerSolver::kGreedy, "greedy"},
    {InnerSolver::kSa, "sa"},
    {InnerSolver::kPortfolio, "portfolio"},
    {InnerSolver::kPack, "pack"},
    {InnerSolver::kPackExact, "pack-exact"},
};

const char* inner_solver_name(InnerSolver solver) {
  for (const auto& [value, name] : kInnerSolverNames) {
    if (value == solver) return name;
  }
  return "unknown";
}

std::optional<InnerSolver> parse_inner_solver(std::string_view name) {
  for (const auto& [value, known] : kInnerSolverNames) {
    if (name == known) return value;
  }
  return std::nullopt;
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
  if (num_buses > 0 && total_width < num_buses) {
    throw std::invalid_argument("total width below one wire per bus");
  }
  // Enumeration order: partitions from the most lopsided split, each as its
  // sorted-ascending vector — and, when layout makes buses distinguishable,
  // every distinct permutation of it (next_permutation from the sorted
  // order).
  std::vector<int> flat_widths;
  for (std::vector<int> widths : width_partitions(total_width, num_buses)) {
    std::sort(widths.begin(), widths.end());
    do {
      flat_widths.insert(flat_widths.end(), widths.begin(), widths.end());
    } while (layout != nullptr &&
             std::next_permutation(widths.begin(), widths.end()));
  }
  return search_width_candidates(soc, table, num_buses, flat_widths, layout,
                                 wire_budget, p_max_mw, options);
}

ArchitectureResult search_width_candidates(
    const Soc& soc, const TestTimeTable& table, int num_buses,
    const std::vector<int>& flat_widths, const LayoutConstraints* layout,
    long long wire_budget, double p_max_mw,
    const WidthPartitionOptions& options) {
  if (num_buses <= 0) throw std::invalid_argument("num_buses must be positive");
  const auto b = static_cast<std::size_t>(num_buses);
  if (flat_widths.empty() || flat_widths.size() % b != 0) {
    throw std::invalid_argument("width candidates must be whole vectors");
  }
  const std::size_t num_candidates = flat_widths.size() / b;
  const auto widths_at = [&](std::size_t k) {
    const auto first = flat_widths.begin() + static_cast<std::ptrdiff_t>(k * b);
    return std::vector<int>(first, first + static_cast<std::ptrdiff_t>(b));
  };
  // Everything that does not depend on the width vector (validation,
  // diagnostics, power groups, layout rows) is built once; its errors hold
  // for every candidate, so they propagate.
  TamProblem problem =
      make_tam_problem_frame(soc, table, b, layout, wire_budget, p_max_mw,
                             options.power_mode, options.bus_depth_limit);

  ArchitectureResult best;
  best.proved_optimal = true;
  std::size_t best_index = num_candidates;
  // Gap reference for partials and the certificate: a lone candidate's own
  // bound, else the width-relaxed bound of the whole search. Only asked
  // for once an incumbent exists, so a lone candidate's widths are set.
  Cycles gap_lb = -1;
  const auto gap_reference = [&] {
    if (gap_lb < 0) {
      gap_lb = num_candidates == 1
                   ? problem.lower_bound()
                   : width_search_lower_bound(
                         table, num_buses,
                         std::accumulate(flat_widths.begin(),
                                         flat_widths.begin() + num_buses, 0));
    }
    return gap_lb;
  };
  // Adopts candidate `index`'s result as the incumbent. Partials stream
  // strict improvements only, never a tie moved to a lower index.
  const auto accept = [&](std::size_t index, TamSolveResult result) {
    const bool improved = !best.feasible ||
                          result.assignment.makespan < best.assignment.makespan;
    best.feasible = true;
    best.bus_widths = widths_at(index);
    best.assignment = std::move(result.assignment);
    best.search_mode = result.search_mode;
    best_index = index;
    if (!improved || !options.progress) return;
    SolveProgress snapshot;
    snapshot.bus_widths = best.bus_widths;
    snapshot.t_cycles = static_cast<long long>(best.assignment.makespan);
    const Cycles lb = gap_reference();
    snapshot.lower_bound = lb > 0 ? static_cast<long long>(lb) : -1;
    options.progress(snapshot);
  };
  // Stop polling between candidates; the per-node/iteration checks live in
  // the inner solvers.
  StopCheck stop_check(options.deadline, options.cancel);
  bool stopped = false;
  const auto note_stop = [&] {
    best.proved_optimal = false;
    if (best.stop == StopReason::kNone) best.stop = stop_check.reason();
    stopped = true;
  };

  // Scoring pass: each candidate rewrites only the problem's widths and
  // times, then gets its lower bound and a greedy-LPT seed.
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
  std::exception_ptr first_rejection;
  for (std::size_t k = 0; k < num_candidates; ++k) {
    if (stop_check.should_stop()) {
      note_stop();
      break;
    }
    ++best.partitions_tried;
    try {
      set_tam_problem_widths(problem, soc, table, widths_at(k));
    } catch (const std::runtime_error&) {
      // Some core fits no bus under the ATE depth limit at these widths
      // (narrow buses inflate test times); other candidates may still fit.
      if (!first_rejection) first_rejection = std::current_exception();
      continue;
    }
    Candidate candidate;
    candidate.index = k;
    candidate.lower_bound = problem.lower_bound();
    candidate.seed = solve_greedy_lpt(problem);
    scored.push_back(std::move(candidate));
  }
  // Every candidate rejected: the constraints cannot be met at any of these
  // widths, which is the first rejection's diagnostic.
  if (scored.empty() && first_rejection && !stopped) {
    std::rethrow_exception(first_rejection);
  }

  // Best-first solve pass over (seed key, enumeration index). The
  // incumbent (T, idx) is compared lexicographically, so the search returns
  // the lowest-index width vector reaching the optimum — the answer of a
  // plain enumeration-order scan. The best valid seed is an achievable
  // makespan: it is the first incumbent, and the bound handed to the
  // solvers that honor one.
  std::vector<std::size_t> order(scored.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) {
                     return scored[x].key() < scored[y].key();
                   });
  if (!order.empty() && scored[order.front()].seed.feasible) {
    accept(scored[order.front()].index, scored[order.front()].seed);
  }
  for (std::size_t pos = 0; pos < order.size() && !stopped; ++pos) {
    const Candidate& candidate = scored[order[pos]];
    const Cycles incumbent =
        best.feasible ? best.assignment.makespan : kInfCycles;
    if (candidate.lower_bound > incumbent ||
        (candidate.lower_bound == incumbent && candidate.index > best_index)) {
      continue;
    }
    if (stop_check.should_stop()) {
      note_stop();
      break;
    }
    TamSolveResult result;
    if (options.solver == InnerSolver::kGreedy) {
      result = candidate.seed;
    } else {
      set_tam_problem_widths(problem, soc, table, widths_at(candidate.index));
      // Before the incumbent's index a tie still wins, so search up to T;
      // after it only a strict improvement can.
      Cycles upper_bound = -1;
      if (incumbent != kInfCycles) {
        upper_bound =
            candidate.index <= best_index ? incumbent : incumbent - 1;
      }
      result = run_inner(problem, options, upper_bound);
    }
    best.total_nodes += result.nodes;
    if (!result.proved_optimal) best.proved_optimal = false;
    if (result.stop != StopReason::kNone && best.stop == StopReason::kNone) {
      best.stop = result.stop;
    }
    // An interrupted solve that found nothing leaves the incumbent, at
    // worst the best valid seed, in place.
    if (!result.feasible) continue;
    const Cycles makespan = result.assignment.makespan;
    if (makespan > incumbent ||
        (makespan == incumbent && candidate.index > best_index)) {
      continue;
    }
    accept(candidate.index, std::move(result));
  }
  if (!best.feasible) best.proved_optimal = false;

  // Anytime floor: a search stopped before it scored a valid seed still
  // returns *an* architecture when one exists. Greedy-LPT on the last
  // candidate (the balanced split of an enumeration) ignores the stop:
  // greedy is O(n log n), not a search.
  if (!best.feasible && best.stop != StopReason::kNone) {
    const std::size_t last = num_candidates - 1;
    try {
      set_tam_problem_widths(problem, soc, table, widths_at(last));
      TamSolveResult fallback = solve_greedy_lpt(problem);
      if (fallback.feasible) {
        if (best.partitions_tried < static_cast<long long>(num_candidates)) {
          ++best.partitions_tried;
        }
        accept(last, std::move(fallback));
      }
    } catch (const std::runtime_error&) {
      // The last candidate cannot host some core under the depth limit;
      // the run stays infeasible-with-stop-reason.
    }
  }

  if (!best.feasible) {
    best.certificate =
        best.stop == StopReason::kFault
            ? certify_error("every solve faulted before finding an assignment")
            : certify_infeasible(/*proven=*/best.stop == StopReason::kNone,
                                 best.stop);
  } else {
    const auto makespan = static_cast<long long>(best.assignment.makespan);
    const Cycles lb = gap_reference();
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
