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

struct Item {
  std::vector<std::size_t> cores;
  std::vector<Cycles> time;     // per bus; kInfCycles when not allowed
  std::vector<long long> wire;  // per bus
  Cycles min_time = 0;
  double max_power = 0.0;  // max member power (bus-max-sum constraint)
};

/// Σ_j max power over an item-space assignment (0 when unconstrained).
double bus_max_power_sum(const TamProblem& problem,
                         const std::vector<Item>& items,
                         const std::vector<int>& item_bus) {
  if (problem.bus_power_budget < 0) return 0.0;
  std::vector<double> bus_max(problem.num_buses(), 0.0);
  for (std::size_t k = 0; k < items.size(); ++k) {
    auto& m = bus_max[static_cast<std::size_t>(item_bus[k])];
    m = std::max(m, items[k].max_power);
  }
  double sum = 0.0;
  for (double m : bus_max) sum += m;
  return sum;
}

std::vector<Item> contract_items(const TamProblem& problem) {
  const std::size_t n = problem.num_cores();
  const std::size_t b = problem.num_buses();
  std::vector<char> grouped(n, 0);
  std::vector<Item> items;
  auto make_item = [&](std::vector<std::size_t> cores) {
    Item item;
    item.cores = std::move(cores);
    item.time.assign(b, 0);
    item.wire.assign(b, 0);
    for (std::size_t j = 0; j < b; ++j) {
      for (std::size_t core : item.cores) {
        if (!problem.allowed[core][j]) {
          item.time[j] = kInfCycles;
          break;
        }
        item.time[j] += problem.time[core][j];
        if (!problem.wire_cost.empty()) item.wire[j] += problem.wire_cost[core][j];
      }
      if (item.time[j] == kInfCycles) item.wire[j] = 0;
    }
    item.min_time = kInfCycles;
    for (std::size_t j = 0; j < b; ++j) {
      if (item.time[j] != kInfCycles) item.min_time = std::min(item.min_time, item.time[j]);
    }
    if (!problem.core_power_mw.empty()) {
      for (std::size_t core : item.cores) {
        item.max_power = std::max(item.max_power, problem.core_power_mw[core]);
      }
    }
    return item;
  };
  for (const auto& group : problem.co_groups) {
    for (std::size_t core : group) grouped[core] = 1;
    items.push_back(make_item(group));
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!grouped[i]) items.push_back(make_item({i}));
  }
  return items;
}

TamSolveResult assemble(const TamProblem& problem,
                        const std::vector<Item>& items,
                        const std::vector<int>& item_bus, long long nodes) {
  TamSolveResult result;
  result.nodes = nodes;
  result.assignment.core_to_bus.assign(problem.num_cores(), -1);
  for (std::size_t k = 0; k < items.size(); ++k) {
    if (item_bus[k] < 0) return result;  // unplaceable item: infeasible
    for (std::size_t core : items[k].cores) {
      result.assignment.core_to_bus[core] = item_bus[k];
    }
  }
  result.assignment.makespan = problem.makespan(result.assignment.core_to_bus);
  result.feasible = problem.check_assignment(result.assignment.core_to_bus).empty();
  return result;
}

}  // namespace

TamSolveResult solve_greedy_lpt(const TamProblem& problem) {
  if (obs::enabled()) obs::counter("tam.greedy.solves").add(1);
  auto items = contract_items(problem);
  std::sort(items.begin(), items.end(),
            [](const Item& a, const Item& b) { return a.min_time > b.min_time; });
  const std::size_t b = problem.num_buses();
  std::vector<Cycles> load(b, 0);
  std::vector<double> bus_max(b, 0.0);
  double power_sum = 0.0;
  long long wire_used = 0;
  std::vector<int> item_bus(items.size(), -1);
  for (std::size_t k = 0; k < items.size(); ++k) {
    const Item& item = items[k];
    int best_j = -1;
    bool best_feasible = false;
    for (std::size_t j = 0; j < b; ++j) {
      if (item.time[j] == kInfCycles) continue;
      const bool in_budget = problem.wire_budget < 0 ||
                             wire_used + item.wire[j] <= problem.wire_budget;
      const bool power_fits =
          problem.bus_power_budget < 0 ||
          power_sum + std::max(bus_max[j], item.max_power) - bus_max[j] <=
              problem.bus_power_budget + 1e-9;
      const bool depth_fits = problem.bus_depth_limit < 0 ||
                              load[j] + item.time[j] <= problem.bus_depth_limit;
      const bool feasible = in_budget && power_fits && depth_fits;
      auto better = [&] {
        if (best_j < 0) return true;
        if (feasible != best_feasible) return feasible;  // prefer feasible
        const auto jb = static_cast<std::size_t>(best_j);
        const Cycles lj = load[j] + item.time[j];
        const Cycles lb = load[jb] + item.time[jb];
        if (lj != lb) return lj < lb;
        return item.wire[j] < item.wire[jb];
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
    load[jb] += item.time[jb];
    wire_used += item.wire[jb];
    power_sum += std::max(bus_max[jb], item.max_power) - bus_max[jb];
    bus_max[jb] = std::max(bus_max[jb], item.max_power);
  }
  return assemble(problem, items, item_bus, static_cast<long long>(items.size()));
}

TamSolveResult greedy_floor(const TamProblem& problem,
                            TamSolveResult interrupted) {
  TamSolveResult fallback = solve_greedy_lpt(problem);
  if (!fallback.feasible) return interrupted;
  fallback.stop = interrupted.stop;
  fallback.proved_optimal = false;
  fallback.nodes = interrupted.nodes;
  return fallback;
}

TamSolveResult solve_sa(const TamProblem& problem, const SaSolverOptions& options) {
  obs::Span span("tam.sa.solve", {{"iterations", options.iterations}});
  auto items = contract_items(problem);
  std::sort(items.begin(), items.end(),
            [](const Item& a, const Item& b) { return a.min_time > b.min_time; });
  const std::size_t b = problem.num_buses();

  // Seed from the greedy solution expressed in item space.
  std::vector<int> item_bus(items.size(), -1);
  {
    std::vector<Cycles> load(b, 0);
    for (std::size_t k = 0; k < items.size(); ++k) {
      int best_j = -1;
      for (std::size_t j = 0; j < b; ++j) {
        if (items[k].time[j] == kInfCycles) continue;
        if (best_j < 0 || load[j] + items[k].time[j] <
                              load[static_cast<std::size_t>(best_j)] +
                                  items[k].time[static_cast<std::size_t>(best_j)]) {
          best_j = static_cast<int>(j);
        }
      }
      if (best_j < 0) return assemble(problem, items, item_bus, 0);
      item_bus[k] = best_j;
      load[static_cast<std::size_t>(best_j)] += items[k].time[static_cast<std::size_t>(best_j)];
    }
  }

  auto evaluate = [&](const std::vector<int>& assignment) -> double {
    std::vector<Cycles> load(b, 0);
    long long wire = 0;
    for (std::size_t k = 0; k < items.size(); ++k) {
      const auto j = static_cast<std::size_t>(assignment[k]);
      load[j] += items[k].time[j];
      wire += items[k].wire[j];
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
        wire += items[k].wire[static_cast<std::size_t>(assignment[k])];
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
        load[j] += items[k].time[j];
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
      if (ja == jc || items[a].time[jc] == kInfCycles ||
          items[c].time[ja] == kInfCycles) {
        continue;
      }
      std::swap(candidate[a], candidate[c]);
    } else {
      // Move one item to a different allowed bus.
      const std::size_t a = rng.index(items.size());
      const std::size_t j = rng.index(b);
      if (static_cast<int>(j) == candidate[a] || items[a].time[j] == kInfCycles) {
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
