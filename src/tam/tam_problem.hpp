#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "layout/constraints.hpp"
#include "soc/soc.hpp"
#include "wrapper/test_time_table.hpp"

namespace soctest {

/// A core-to-test-bus assignment: core i is tested through bus
/// core_to_bus[i]. Cores sharing a bus are tested sequentially; buses run in
/// parallel; the system test time is the makespan over buses.
struct TamAssignment {
  std::vector<int> core_to_bus;
  Cycles makespan = 0;
};

/// The constrained TAM assignment problem of the DAC 2000 paper, in matrix
/// form, decoupled from how the matrices were produced:
///
///   minimize   max_j Σ_{i: x(i)=j} time[i][j]
///   subject to x(i) ∈ {j : allowed[i][j]}
///              x(i) = x(k) for i,k in the same co-assignment group
///              Σ_i wire_cost[i][x(i)] <= wire_budget   (if budgeted)
///
/// `time[i][j]` is the test time of core i on bus j (from wrapper design at
/// bus j's width). `allowed` encodes the place-and-route forbidden pairs.
/// Co-assignment groups encode the conservative power constraint: cores
/// whose combined power exceeds the budget may not be tested concurrently,
/// hence must share a bus.
struct TamProblem {
  std::vector<int> bus_widths;                   ///< documentation/reporting
  std::vector<std::vector<Cycles>> time;         ///< [core][bus]
  std::vector<std::vector<char>> allowed;        ///< [core][bus], 1 = assignable
  std::vector<std::vector<long long>> wire_cost; ///< [core][bus]; empty = zero cost
  long long wire_budget = -1;                    ///< -1 = unlimited
  /// Disjoint groups of cores that must share a bus. Cores absent from every
  /// group are unconstrained singletons.
  std::vector<std::vector<std::size_t>> co_groups;

  /// Bus-max-sum power constraint (extension; sound for ANY bus count,
  /// unlike the pairwise form which is exact only for B=2):
  ///   Σ_j  max_{i : x(i)=j} core_power_mw[i]  <=  bus_power_budget.
  /// At any instant at most one core per bus is under test, so this sum
  /// upper-bounds every concurrent overlap. Disabled when
  /// bus_power_budget < 0 or core_power_mw is empty.
  std::vector<double> core_power_mw;
  double bus_power_budget = -1.0;

  /// ATE vector-memory depth limit per TAM (extension, after the multisite
  /// test-resource line): each pattern occupies one vector row per cycle,
  /// so a bus's total test length may not exceed the tester channel depth.
  /// Constraint: Σ_{i on j} time[i][j] <= bus_depth_limit for every bus j.
  /// -1 disables. Note this also caps the makespan.
  Cycles bus_depth_limit = -1;

  std::size_t num_cores() const { return time.size(); }
  std::size_t num_buses() const { return bus_widths.size(); }

  /// Structural validation: matrix shapes, group disjointness. Empty if OK.
  std::string validate() const;

  /// Makespan of an assignment (no constraint checking).
  Cycles makespan(const std::vector<int>& core_to_bus) const;

  /// Full feasibility check of an assignment against allowed/groups/budget.
  /// Returns an explanation of the first violation, or empty if feasible.
  std::string check_assignment(const std::vector<int>& core_to_bus) const;

  /// Lower bound on any feasible makespan:
  ///   max( max_i min_{j allowed} time[i][j],
  ///        ceil(Σ_i min_{j allowed} time[i][j] / B) ).
  Cycles lower_bound() const;
};

/// How a test power ceiling is encoded into the assignment problem.
enum class PowerConstraintMode {
  /// The DAC 2000 form: any two cores whose combined power exceeds the
  /// budget must share a bus (transitively grouped). Exact peak guarantee
  /// for B = 2; optimistic for B >= 3 (a triple may still overlap).
  kPairwiseSerialization,
  /// Extension: constrain Σ_j max_{i on j} P_i <= budget. Sound for any B
  /// (conservative: assumes the heaviest core of every bus may overlap).
  kBusMaxSum,
};

/// Wire and CLI name of a power mode: "pairwise" or "busmax".
const char* power_mode_name(PowerConstraintMode mode);

/// The mode named `name` (the inverse of power_mode_name); nullopt for an
/// unknown name.
std::optional<PowerConstraintMode> parse_power_mode(std::string_view name);

/// Assembles a TamProblem from a SOC, bus widths, and the optional physical
/// constraints of the paper:
///  * `table` supplies time[i][j] = table.time(i, bus_widths[j]);
///  * `layout` (nullable) supplies allowed pairs (d_max form) and wire costs;
///    pass wire_budget >= 0 to activate the total-wiring-budget row;
///  * `p_max_mw` < 0 disables the power constraint; otherwise it is encoded
///    per `power_mode` (pairwise co-assignment groups, or the bus-max-sum
///    row).
///
/// Throws std::invalid_argument when a width exceeds the table, and
/// std::runtime_error when the constraints are trivially infeasible (a core
/// with no allowed bus, or a single core's power above p_max).
TamProblem make_tam_problem(
    const Soc& soc, const TestTimeTable& table, std::vector<int> bus_widths,
    const LayoutConstraints* layout = nullptr, long long wire_budget = -1,
    double p_max_mw = -1.0,
    PowerConstraintMode power_mode = PowerConstraintMode::kPairwiseSerialization,
    Cycles bus_depth_limit = -1);

/// The width-invariant part of make_tam_problem, for searches that solve
/// many width vectors of one SOC under one constraint set: shapes, layout
/// `allowed`/`wire_cost`, power co-groups or bus-max powers, the depth
/// limit, and the trivial-infeasibility diagnostics (std::runtime_error).
/// `bus_widths` and `time` are placeholders (all 1 / all 0) until
/// set_tam_problem_widths fills them.
TamProblem make_tam_problem_frame(
    const Soc& soc, const TestTimeTable& table, std::size_t num_buses,
    const LayoutConstraints* layout = nullptr, long long wire_budget = -1,
    double p_max_mw = -1.0,
    PowerConstraintMode power_mode = PowerConstraintMode::kPairwiseSerialization,
    Cycles bus_depth_limit = -1);

/// Rewrites `problem.bus_widths` and `problem.time` in place for
/// `bus_widths` (one per bus of the frame). Throws std::invalid_argument
/// when a width exceeds the table, and std::runtime_error when some core
/// fits the ATE depth limit on no allowed bus at these widths.
void set_tam_problem_widths(TamProblem& problem, const Soc& soc,
                            const TestTimeTable& table,
                            const std::vector<int>& bus_widths);

}  // namespace soctest
