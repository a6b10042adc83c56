#include "tam/tam_problem.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "tam/power.hpp"

namespace soctest {

std::string TamProblem::validate() const {
  std::ostringstream err;
  const std::size_t n = num_cores();
  const std::size_t b = num_buses();
  if (b == 0) err << "no buses; ";
  if (n == 0) err << "no cores; ";
  for (int w : bus_widths) {
    if (w < 1) err << "non-positive bus width; ";
  }
  if (allowed.size() != n) err << "allowed matrix row count mismatch; ";
  for (const auto& row : time) {
    if (row.size() != b) err << "time matrix column count mismatch; ";
  }
  for (const auto& row : allowed) {
    if (row.size() != b) err << "allowed matrix column count mismatch; ";
  }
  if (!wire_cost.empty()) {
    if (wire_cost.size() != n) err << "wire_cost row count mismatch; ";
    for (const auto& row : wire_cost) {
      if (row.size() != b) err << "wire_cost column count mismatch; ";
    }
  }
  if (!core_power_mw.empty() && core_power_mw.size() != n) {
    err << "core_power_mw size mismatch; ";
  }
  if (bus_power_budget >= 0 && core_power_mw.empty()) {
    err << "bus_power_budget set without core powers; ";
  }
  std::vector<char> seen(n, 0);
  for (const auto& group : co_groups) {
    if (group.size() < 2) err << "co-assignment group of size < 2; ";
    for (std::size_t member : group) {
      if (member >= n) {
        err << "co-assignment group references unknown core; ";
      } else if (seen[member]) {
        err << "core in multiple co-assignment groups; ";
      } else {
        seen[member] = 1;
      }
    }
  }
  return err.str();
}

Cycles TamProblem::makespan(const std::vector<int>& core_to_bus) const {
  std::vector<Cycles> load(num_buses(), 0);
  for (std::size_t i = 0; i < num_cores(); ++i) {
    const auto j = static_cast<std::size_t>(core_to_bus.at(i));
    load.at(j) += time[i][j];
  }
  return *std::max_element(load.begin(), load.end());
}

std::string TamProblem::check_assignment(
    const std::vector<int>& core_to_bus) const {
  if (core_to_bus.size() != num_cores()) return "assignment size mismatch";
  for (std::size_t i = 0; i < num_cores(); ++i) {
    const int j = core_to_bus[i];
    if (j < 0 || static_cast<std::size_t>(j) >= num_buses()) {
      return "core " + std::to_string(i) + " assigned to unknown bus";
    }
    if (!allowed[i][static_cast<std::size_t>(j)]) {
      return "core " + std::to_string(i) + " assigned to forbidden bus " +
             std::to_string(j);
    }
  }
  for (const auto& group : co_groups) {
    for (std::size_t m = 1; m < group.size(); ++m) {
      if (core_to_bus[group[m]] != core_to_bus[group[0]]) {
        return "power co-assignment group split across buses (cores " +
               std::to_string(group[0]) + " and " + std::to_string(group[m]) +
               ")";
      }
    }
  }
  if (wire_budget >= 0 && !wire_cost.empty()) {
    long long total = 0;
    for (std::size_t i = 0; i < num_cores(); ++i) {
      total += wire_cost[i][static_cast<std::size_t>(core_to_bus[i])];
    }
    if (total > wire_budget) {
      return "wiring budget exceeded (" + std::to_string(total) + " > " +
             std::to_string(wire_budget) + ")";
    }
  }
  if (bus_depth_limit >= 0) {
    std::vector<Cycles> load(num_buses(), 0);
    for (std::size_t i = 0; i < num_cores(); ++i) {
      const auto j = static_cast<std::size_t>(core_to_bus[i]);
      load[j] += time[i][j];
    }
    for (std::size_t j = 0; j < num_buses(); ++j) {
      if (load[j] > bus_depth_limit) {
        return "bus " + std::to_string(j) + " load " + std::to_string(load[j]) +
               " exceeds ATE depth limit " + std::to_string(bus_depth_limit);
      }
    }
  }
  if (bus_power_budget >= 0 && !core_power_mw.empty()) {
    std::vector<double> bus_max(num_buses(), 0.0);
    for (std::size_t i = 0; i < num_cores(); ++i) {
      auto& m = bus_max[static_cast<std::size_t>(core_to_bus[i])];
      m = std::max(m, core_power_mw[i]);
    }
    double sum = 0.0;
    for (double m : bus_max) sum += m;
    if (sum > bus_power_budget + 1e-9) {
      return "bus-max power sum " + std::to_string(sum) +
             " exceeds budget " + std::to_string(bus_power_budget);
    }
  }
  return {};
}

Cycles TamProblem::lower_bound() const {
  Cycles max_min = 0;
  Cycles sum_min = 0;
  for (std::size_t i = 0; i < num_cores(); ++i) {
    Cycles best = -1;
    for (std::size_t j = 0; j < num_buses(); ++j) {
      if (allowed[i][j] && (best < 0 || time[i][j] < best)) best = time[i][j];
    }
    if (best < 0) return std::numeric_limits<Cycles>::max();  // infeasible
    max_min = std::max(max_min, best);
    sum_min += best;
  }
  const auto b = static_cast<Cycles>(num_buses());
  return std::max(max_min, (sum_min + b - 1) / b);
}

namespace {

void check_widths_in_table(const TestTimeTable& table,
                           const std::vector<int>& bus_widths) {
  for (int w : bus_widths) {
    if (w < 1 || w > table.max_width()) {
      throw std::invalid_argument("bus width outside test time table range");
    }
  }
}

}  // namespace

TamProblem make_tam_problem_frame(const Soc& soc, const TestTimeTable& table,
                                  std::size_t num_buses,
                                  const LayoutConstraints* layout,
                                  long long wire_budget, double p_max_mw,
                                  PowerConstraintMode power_mode,
                                  Cycles bus_depth_limit) {
  if (num_buses == 0) throw std::invalid_argument("no bus widths given");
  if (table.num_cores() != soc.num_cores()) {
    throw std::invalid_argument("test time table core count mismatch");
  }
  if (layout != nullptr) {
    if (layout->num_cores() != soc.num_cores()) {
      throw std::invalid_argument("layout constraint core count mismatch");
    }
    if (layout->num_buses() != num_buses) {
      throw std::invalid_argument("layout constraint bus count mismatch");
    }
  }

  TamProblem problem;
  problem.bus_widths.assign(num_buses, 1);
  const std::size_t n = soc.num_cores();
  const std::size_t b = num_buses;
  problem.time.assign(n, std::vector<Cycles>(b, 0));
  problem.allowed.assign(n, std::vector<char>(b, 1));
  if (layout != nullptr) {
    problem.wire_cost.assign(n, std::vector<long long>(b, 0));
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < b; ++j) {
        problem.allowed[i][j] = layout->allowed(i, j) ? 1 : 0;
        const int d = layout->distance(i, j);
        problem.wire_cost[i][j] = d < 0 ? 0 : d;  // forbidden pairs never chosen
      }
    }
    problem.wire_budget = wire_budget;
  }

  // Trivial infeasibility diagnostics, reported eagerly with core names.
  for (std::size_t i = 0; i < n; ++i) {
    bool any = false;
    for (std::size_t j = 0; j < b && !any; ++j) any = problem.allowed[i][j];
    if (!any) {
      throw std::runtime_error("core " + soc.core(i).name +
                               " has no allowed test bus under the layout "
                               "constraints (d_max too small)");
    }
  }
  const auto over = overbudget_cores(soc, p_max_mw);
  if (!over.empty()) {
    throw std::runtime_error("core " + soc.core(over.front()).name +
                             " alone exceeds the test power budget");
  }
  switch (power_mode) {
    case PowerConstraintMode::kPairwiseSerialization:
      problem.co_groups = power_co_groups(soc, p_max_mw);
      break;
    case PowerConstraintMode::kBusMaxSum:
      if (p_max_mw >= 0) {
        problem.core_power_mw.reserve(n);
        for (const auto& c : soc.cores()) {
          problem.core_power_mw.push_back(c.test_power_mw);
        }
        problem.bus_power_budget = p_max_mw;
      }
      break;
  }
  problem.bus_depth_limit = bus_depth_limit;

  const std::string err = problem.validate();
  if (!err.empty()) throw std::logic_error("built invalid TamProblem: " + err);
  return problem;
}

void set_tam_problem_widths(TamProblem& problem, const Soc& soc,
                            const TestTimeTable& table,
                            const std::vector<int>& bus_widths) {
  if (bus_widths.size() != problem.num_buses()) {
    throw std::invalid_argument("bus width count differs from the frame");
  }
  check_widths_in_table(table, bus_widths);
  problem.bus_widths = bus_widths;
  const std::size_t n = problem.num_cores();
  const std::size_t b = problem.num_buses();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < b; ++j) {
      problem.time[i][j] = table.time(i, bus_widths[j]);
    }
  }
  if (problem.bus_depth_limit < 0) return;
  for (std::size_t i = 0; i < n; ++i) {
    Cycles best = -1;
    for (std::size_t j = 0; j < b; ++j) {
      if (problem.allowed[i][j] && (best < 0 || problem.time[i][j] < best)) {
        best = problem.time[i][j];
      }
    }
    if (best > problem.bus_depth_limit) {
      throw std::runtime_error(
          "core " + soc.core(i).name +
          " does not fit the ATE depth limit on any allowed bus");
    }
  }
}

TamProblem make_tam_problem(const Soc& soc, const TestTimeTable& table,
                            std::vector<int> bus_widths,
                            const LayoutConstraints* layout,
                            long long wire_budget, double p_max_mw,
                            PowerConstraintMode power_mode,
                            Cycles bus_depth_limit) {
  if (bus_widths.empty()) throw std::invalid_argument("no bus widths given");
  check_widths_in_table(table, bus_widths);
  TamProblem problem =
      make_tam_problem_frame(soc, table, bus_widths.size(), layout,
                             wire_budget, p_max_mw, power_mode,
                             bus_depth_limit);
  set_tam_problem_widths(problem, soc, table, bus_widths);
  return problem;
}

}  // namespace soctest
