#include "tam/heuristics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "obs/obs.hpp"
#include "runtime/failpoint.hpp"

namespace soctest {

namespace {

constexpr Cycles kInfCycles = std::numeric_limits<Cycles>::max();

/// Co-assignment-contracted items (a power group, or a lone core) in flat
/// rows, sorted LPT-first by decreasing minimum test time. Item k's per-bus
/// values live at [k * buses + j]; a handful of flat arrays per solve instead
/// of three vectors per item.
class Items {
 public:
  explicit Items(const TamProblem& problem);

  std::size_t size() const { return max_power_.size(); }
  /// kInfCycles when bus j is not allowed for item k.
  Cycles time(std::size_t k, std::size_t j) const {
    return time_[k * buses_ + j];
  }
  long long wire(std::size_t k, std::size_t j) const {
    return wire_[k * buses_ + j];
  }
  /// Max member power (bus-max-sum constraint).
  double max_power(std::size_t k) const { return max_power_[k]; }
  const std::size_t* cores_begin(std::size_t k) const {
    return cores_.data() + core_begin_[k];
  }
  const std::size_t* cores_end(std::size_t k) const {
    return cores_.data() + core_begin_[k + 1];
  }

 private:
  std::size_t buses_ = 0;
  std::vector<Cycles> time_;
  std::vector<long long> wire_;
  std::vector<double> max_power_;
  std::vector<std::size_t> cores_;
  std::vector<std::size_t> core_begin_;
};

Items::Items(const TamProblem& problem) : buses_(problem.num_buses()) {
  const std::size_t n = problem.num_cores();
  const std::size_t b = buses_;
  // Members in contraction order: the co-assignment groups, then every
  // ungrouped core as a singleton.
  std::vector<std::size_t> members;
  std::vector<std::size_t> member_begin;
  members.reserve(n);
  member_begin.reserve(n + 1);
  std::vector<char> grouped(n, 0);
  for (const auto& group : problem.co_groups) {
    member_begin.push_back(members.size());
    for (std::size_t core : group) {
      grouped[core] = 1;
      members.push_back(core);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (grouped[i]) continue;
    member_begin.push_back(members.size());
    members.push_back(i);
  }
  const std::size_t m = member_begin.size();
  member_begin.push_back(members.size());

  std::vector<Cycles> time(m * b, 0);
  std::vector<long long> wire(m * b, 0);
  std::vector<Cycles> min_time(m, kInfCycles);
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t j = 0; j < b; ++j) {
      Cycles& t = time[k * b + j];
      long long& w = wire[k * b + j];
      for (std::size_t p = member_begin[k]; p < member_begin[k + 1]; ++p) {
        const std::size_t core = members[p];
        if (!problem.allowed[core][j]) {
          t = kInfCycles;
          w = 0;
          break;
        }
        t += problem.time[core][j];
        if (!problem.wire_cost.empty()) w += problem.wire_cost[core][j];
      }
      if (t != kInfCycles) min_time[k] = std::min(min_time[k], t);
    }
  }
  // std::sort over indices makes exactly the comparisons and moves it would
  // make over whole items, so equal-key items keep their historical order.
  std::vector<std::size_t> order(m);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t c) {
    return min_time[a] > min_time[c];
  });

  time_.resize(m * b);
  wire_.resize(m * b);
  max_power_.assign(m, 0.0);
  cores_.reserve(members.size());
  core_begin_.reserve(m + 1);
  for (std::size_t k = 0; k < m; ++k) {
    const std::size_t src = order[k];
    std::copy_n(time.begin() + static_cast<std::ptrdiff_t>(src * b), b,
                time_.begin() + static_cast<std::ptrdiff_t>(k * b));
    std::copy_n(wire.begin() + static_cast<std::ptrdiff_t>(src * b), b,
                wire_.begin() + static_cast<std::ptrdiff_t>(k * b));
    core_begin_.push_back(cores_.size());
    for (std::size_t p = member_begin[src]; p < member_begin[src + 1]; ++p) {
      const std::size_t core = members[p];
      cores_.push_back(core);
      if (!problem.core_power_mw.empty()) {
        max_power_[k] = std::max(max_power_[k], problem.core_power_mw[core]);
      }
    }
  }
  core_begin_.push_back(cores_.size());
}

/// Σ_j max power over an item-space assignment (0 when unconstrained).
double bus_max_power_sum(const TamProblem& problem, const Items& items,
                         const std::vector<int>& item_bus) {
  if (problem.bus_power_budget < 0) return 0.0;
  std::vector<double> bus_max(problem.num_buses(), 0.0);
  for (std::size_t k = 0; k < items.size(); ++k) {
    auto& m = bus_max[static_cast<std::size_t>(item_bus[k])];
    m = std::max(m, items.max_power(k));
  }
  double sum = 0.0;
  for (double m : bus_max) sum += m;
  return sum;
}

TamSolveResult assemble(const TamProblem& problem, const Items& items,
                        const std::vector<int>& item_bus, long long nodes) {
  TamSolveResult result;
  result.nodes = nodes;
  result.assignment.core_to_bus.assign(problem.num_cores(), -1);
  for (std::size_t k = 0; k < items.size(); ++k) {
    if (item_bus[k] < 0) return result;  // unplaceable item: infeasible
    for (const std::size_t* c = items.cores_begin(k); c != items.cores_end(k);
         ++c) {
      result.assignment.core_to_bus[*c] = item_bus[k];
    }
  }
  result.assignment.makespan = problem.makespan(result.assignment.core_to_bus);
  result.feasible = problem.check_assignment(result.assignment.core_to_bus).empty();
  return result;
}

}  // namespace

TamSolveResult solve_greedy_lpt(const TamProblem& problem) {
  if (obs::enabled()) obs::counter("tam.greedy.solves").add(1);
  const Items items(problem);
  const std::size_t b = problem.num_buses();
  std::vector<Cycles> load(b, 0);
  std::vector<double> bus_max(b, 0.0);
  double power_sum = 0.0;
  long long wire_used = 0;
  std::vector<int> item_bus(items.size(), -1);
  for (std::size_t k = 0; k < items.size(); ++k) {
    const double power = items.max_power(k);
    int best_j = -1;
    bool best_feasible = false;
    for (std::size_t j = 0; j < b; ++j) {
      const Cycles t = items.time(k, j);
      if (t == kInfCycles) continue;
      const bool in_budget =
          problem.wire_budget < 0 ||
          wire_used + items.wire(k, j) <= problem.wire_budget;
      const bool power_fits =
          problem.bus_power_budget < 0 ||
          power_sum + std::max(bus_max[j], power) - bus_max[j] <=
              problem.bus_power_budget + 1e-9;
      const bool depth_fits = problem.bus_depth_limit < 0 ||
                              load[j] + t <= problem.bus_depth_limit;
      const bool feasible = in_budget && power_fits && depth_fits;
      auto better = [&] {
        if (best_j < 0) return true;
        if (feasible != best_feasible) return feasible;  // prefer feasible
        const auto jb = static_cast<std::size_t>(best_j);
        const Cycles lj = load[j] + t;
        const Cycles lb = load[jb] + items.time(k, jb);
        if (lj != lb) return lj < lb;
        return items.wire(k, j) < items.wire(k, jb);
      };
      if (better()) {
        best_j = static_cast<int>(j);
        best_feasible = feasible;
      }
    }
    if (best_j < 0) {
      // Item has no allowed bus at all; leave unassigned -> infeasible.
      return assemble(problem, items, item_bus, static_cast<long long>(k));
    }
    const auto jb = static_cast<std::size_t>(best_j);
    item_bus[k] = best_j;
    load[jb] += items.time(k, jb);
    wire_used += items.wire(k, jb);
    power_sum += std::max(bus_max[jb], power) - bus_max[jb];
    bus_max[jb] = std::max(bus_max[jb], power);
  }
  return assemble(problem, items, item_bus, static_cast<long long>(items.size()));
}

TamSolveResult solve_sa(const TamProblem& problem, const SaSolverOptions& options) {
  obs::Span span("tam.sa.solve", {{"iterations", options.iterations}});
  const Items items(problem);
  const std::size_t b = problem.num_buses();

  // Seed from the greedy solution expressed in item space.
  std::vector<int> item_bus(items.size(), -1);
  {
    std::vector<Cycles> load(b, 0);
    for (std::size_t k = 0; k < items.size(); ++k) {
      int best_j = -1;
      for (std::size_t j = 0; j < b; ++j) {
        if (items.time(k, j) == kInfCycles) continue;
        if (best_j < 0 || load[j] + items.time(k, j) <
                              load[static_cast<std::size_t>(best_j)] +
                                  items.time(k, static_cast<std::size_t>(best_j))) {
          best_j = static_cast<int>(j);
        }
      }
      if (best_j < 0) return assemble(problem, items, item_bus, 0);
      item_bus[k] = best_j;
      load[static_cast<std::size_t>(best_j)] += items.time(k, static_cast<std::size_t>(best_j));
    }
  }

  auto evaluate = [&](const std::vector<int>& assignment) -> double {
    std::vector<Cycles> load(b, 0);
    long long wire = 0;
    for (std::size_t k = 0; k < items.size(); ++k) {
      const auto j = static_cast<std::size_t>(assignment[k]);
      load[j] += items.time(k, j);
      wire += items.wire(k, j);
    }
    const Cycles makespan = *std::max_element(load.begin(), load.end());
    double cost = static_cast<double>(makespan);
    if (problem.wire_budget >= 0 && wire > problem.wire_budget) {
      cost += options.wire_penalty *
              static_cast<double>(wire - problem.wire_budget);
    }
    if (problem.bus_power_budget >= 0) {
      const double power = bus_max_power_sum(problem, items, assignment);
      if (power > problem.bus_power_budget) {
        cost += options.wire_penalty * (power - problem.bus_power_budget);
      }
    }
    if (problem.bus_depth_limit >= 0) {
      for (Cycles l : load) {
        if (l > problem.bus_depth_limit) {
          cost += options.wire_penalty *
                  static_cast<double>(l - problem.bus_depth_limit);
        }
      }
    }
    return cost;
  };
  auto in_budget = [&](const std::vector<int>& assignment) {
    if (problem.wire_budget >= 0) {
      long long wire = 0;
      for (std::size_t k = 0; k < items.size(); ++k) {
        wire += items.wire(k, static_cast<std::size_t>(assignment[k]));
      }
      if (wire > problem.wire_budget) return false;
    }
    if (problem.bus_power_budget >= 0 &&
        bus_max_power_sum(problem, items, assignment) >
            problem.bus_power_budget + 1e-9) {
      return false;
    }
    if (problem.bus_depth_limit >= 0) {
      std::vector<Cycles> load(problem.num_buses(), 0);
      for (std::size_t k = 0; k < items.size(); ++k) {
        const auto j = static_cast<std::size_t>(assignment[k]);
        load[j] += items.time(k, j);
      }
      for (Cycles l : load) {
        if (l > problem.bus_depth_limit) return false;
      }
    }
    return true;
  };

  Rng rng(options.seed);
  double cost = evaluate(item_bus);
  std::vector<int> best_feasible;
  double best_feasible_cost = std::numeric_limits<double>::infinity();
  std::vector<int> best_any = item_bus;
  double best_any_cost = cost;
  if (in_budget(item_bus)) {
    best_feasible = item_bus;
    best_feasible_cost = cost;
  }
  double temperature = options.initial_temperature > 0
                           ? options.initial_temperature
                           : std::max(1.0, cost * 0.05);
  long long moves = 0;
  long long accepted = 0;
  StopCheck stop_check(options.deadline, options.cancel,
                       failpoint::sites::kSaIter);
  for (int it = 0; it < options.iterations; ++it) {
    if (stop_check.should_stop()) break;
    std::vector<int> candidate = item_bus;
    if (items.size() >= 2 && rng.bernoulli(0.3)) {
      // Swap the buses of two items (when mutually allowed).
      const std::size_t a = rng.index(items.size());
      std::size_t c = rng.index(items.size());
      if (a == c) c = (c + 1) % items.size();
      const auto ja = static_cast<std::size_t>(candidate[a]);
      const auto jc = static_cast<std::size_t>(candidate[c]);
      if (ja == jc || items.time(a, jc) == kInfCycles ||
          items.time(c, ja) == kInfCycles) {
        continue;
      }
      std::swap(candidate[a], candidate[c]);
    } else {
      // Move one item to a different allowed bus.
      const std::size_t a = rng.index(items.size());
      const std::size_t j = rng.index(b);
      if (static_cast<int>(j) == candidate[a] || items.time(a, j) == kInfCycles) {
        continue;
      }
      candidate[a] = static_cast<int>(j);
    }
    ++moves;
    const double cand_cost = evaluate(candidate);
    const double delta = cand_cost - cost;
    if (delta <= 0 || rng.uniform01() < std::exp(-delta / temperature)) {
      ++accepted;
      item_bus = std::move(candidate);
      cost = cand_cost;
      if (cost < best_any_cost) {
        best_any_cost = cost;
        best_any = item_bus;
      }
      if (cost < best_feasible_cost && in_budget(item_bus)) {
        best_feasible_cost = cost;
        best_feasible = item_bus;
      }
    }
    temperature *= options.cooling;
  }
  if (obs::enabled()) {
    obs::counter("tam.sa.solves").add(1);
    obs::counter("tam.sa.moves").add(moves);
    obs::counter("tam.sa.accepted").add(accepted);
  }
  if (span.active()) {
    span.arg({"moves", moves});
    span.arg({"accepted", accepted});
  }
  const auto& chosen = best_feasible.empty() ? best_any : best_feasible;
  TamSolveResult result = assemble(problem, items, chosen, moves);
  result.stop = stop_check.reason();
  return result;
}

}  // namespace soctest
