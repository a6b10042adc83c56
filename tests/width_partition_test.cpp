#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "layout/bus_planner.hpp"
#include "soc/builtin.hpp"
#include "soc/generator.hpp"
#include "tam/heuristics.hpp"
#include "tam/ilp_solver.hpp"
#include "tam/staircase.hpp"
#include "tam/width_partition.hpp"

namespace soctest {
namespace {

TEST(WidthPartitions, KnownCounts) {
  // Partitions of n into exactly k parts: p(6,3) = 3; p(8,4) = 5; p(10,2)=5.
  EXPECT_EQ(width_partitions(6, 3).size(), 3u);
  EXPECT_EQ(width_partitions(8, 4).size(), 5u);
  EXPECT_EQ(width_partitions(10, 2).size(), 5u);
  EXPECT_EQ(width_partitions(5, 5).size(), 1u);
  EXPECT_EQ(width_partitions(4, 5).size(), 0u);
  EXPECT_EQ(width_partitions(7, 1).size(), 1u);
}

TEST(WidthPartitions, PartsSumAndAreNonIncreasing) {
  for (const auto& partition : width_partitions(20, 4)) {
    EXPECT_EQ(std::accumulate(partition.begin(), partition.end(), 0), 20);
    ASSERT_EQ(partition.size(), 4u);
    for (std::size_t k = 1; k < partition.size(); ++k) {
      EXPECT_LE(partition[k], partition[k - 1]);
    }
    for (int w : partition) EXPECT_GE(w, 1);
  }
}

TEST(WidthPartitions, AllDistinct) {
  const auto partitions = width_partitions(24, 3);
  std::set<std::vector<int>> unique(partitions.begin(), partitions.end());
  EXPECT_EQ(unique.size(), partitions.size());
}

class WidthSearch : public ::testing::Test {
 protected:
  void SetUp() override {
    soc_ = builtin_soc2();
    table_.emplace(soc_, 24);
  }
  Soc soc_;
  std::optional<TestTimeTable> table_;
};

TEST_F(WidthSearch, BeatsOrMatchesEqualSplit) {
  const auto best = optimize_widths(soc_, *table_, 2, 24);
  ASSERT_TRUE(best.feasible);
  EXPECT_TRUE(best.proved_optimal);
  // Compare to the fixed equal split (12, 12).
  const TamProblem equal = make_tam_problem(soc_, *table_, {12, 12});
  const auto equal_result = solve_exact(equal);
  ASSERT_TRUE(equal_result.feasible);
  EXPECT_LE(best.assignment.makespan, equal_result.assignment.makespan);
}

TEST_F(WidthSearch, MoreTotalWidthNeverHurts) {
  Cycles prev = -1;
  for (int total : {8, 12, 16, 20, 24}) {
    const auto r = optimize_widths(soc_, *table_, 2, total);
    ASSERT_TRUE(r.feasible) << "W=" << total;
    if (prev >= 0) {
      EXPECT_LE(r.assignment.makespan, prev) << "W=" << total;
    }
    prev = r.assignment.makespan;
  }
}

TEST_F(WidthSearch, MoreBusesNeverHelpWithFixedTotal) {
  // With total width fixed, adding buses splits wires; 1 fat bus serializes
  // everything, many thin buses parallelize. Neither direction is monotone a
  // priori, but B buses can always emulate B-1 buses only if a zero-width
  // bus were allowed — it is not — so we just assert all are solved and the
  // best of the three is no worse than each individually.
  const auto b1 = optimize_widths(soc_, *table_, 1, 16);
  const auto b2 = optimize_widths(soc_, *table_, 2, 16);
  const auto b3 = optimize_widths(soc_, *table_, 3, 16);
  ASSERT_TRUE(b1.feasible && b2.feasible && b3.feasible);
  // Parallelism should pay off for this SOC: 2 buses beat 1.
  EXPECT_LE(b2.assignment.makespan, b1.assignment.makespan);
}

TEST_F(WidthSearch, WidthSumsRespected) {
  const auto r = optimize_widths(soc_, *table_, 3, 18);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(std::accumulate(r.bus_widths.begin(), r.bus_widths.end(), 0), 18);
  EXPECT_EQ(r.bus_widths.size(), 3u);
}

TEST_F(WidthSearch, GreedyInnerSolverRunsAndIsNoBetter) {
  WidthPartitionOptions greedy_options;
  greedy_options.solver = InnerSolver::kGreedy;
  const auto greedy = optimize_widths(soc_, *table_, 2, 16, nullptr, -1, -1.0,
                                      greedy_options);
  const auto exact = optimize_widths(soc_, *table_, 2, 16);
  ASSERT_TRUE(greedy.feasible && exact.feasible);
  EXPECT_GE(greedy.assignment.makespan, exact.assignment.makespan);
  EXPECT_FALSE(greedy.proved_optimal);
}

TEST_F(WidthSearch, RejectsBadArguments) {
  EXPECT_THROW(optimize_widths(soc_, *table_, 0, 8), std::invalid_argument);
  EXPECT_THROW(optimize_widths(soc_, *table_, 4, 3), std::invalid_argument);
}

TEST_F(WidthSearch, PowerConstraintsRaiseTestTime) {
  const auto unconstrained = optimize_widths(soc_, *table_, 2, 16);
  const auto constrained =
      optimize_widths(soc_, *table_, 2, 16, nullptr, -1, 1200.0);
  ASSERT_TRUE(unconstrained.feasible);
  ASSERT_TRUE(constrained.feasible);
  EXPECT_GE(constrained.assignment.makespan, unconstrained.assignment.makespan);
}

TEST_F(WidthSearch, LayoutPermutationExploresWidthsOntoRoutes) {
  const BusPlan plan = plan_buses(soc_, 2);
  const LayoutConstraints layout(plan, soc_.num_cores(), -1);
  const auto r = optimize_widths(soc_, *table_, 2, 12, &layout);
  ASSERT_TRUE(r.feasible);
  // Permutation mode: partitions_tried counts arrangements, which must be at
  // least the number of plain partitions of 12 into 2 parts (6).
  EXPECT_GE(r.partitions_tried, 6);
}

TEST_F(WidthSearch, InterruptedSearchAnswersWithItsBestSeed) {
  // One node per exact solve finds no leaf anywhere, yet every candidate
  // was scored: the answer is the best valid greedy seed, which is what
  // the greedy width search returns.
  WidthPartitionOptions budgeted;
  budgeted.max_nodes_per_solve = 1;
  const auto r = optimize_widths(soc_, *table_, 3, 20, nullptr, -1, -1.0,
                                 budgeted);
  WidthPartitionOptions greedy_options;
  greedy_options.solver = InnerSolver::kGreedy;
  const auto greedy = optimize_widths(soc_, *table_, 3, 20, nullptr, -1,
                                      -1.0, greedy_options);
  ASSERT_TRUE(r.feasible);
  EXPECT_FALSE(r.proved_optimal);
  EXPECT_EQ(r.stop, StopReason::kNodeBudget);
  EXPECT_EQ(r.bus_widths, greedy.bus_widths);
  EXPECT_EQ(r.assignment.core_to_bus, greedy.assignment.core_to_bus);
  EXPECT_EQ(r.partitions_tried, greedy.partitions_tried);
}

// ------------------------------------------------- differential reference --

/// The plain enumeration-order width search: every candidate in order,
/// a fresh TamProblem each, skipped when its lower bound reaches the
/// incumbent, solved with the incumbent as the exact solver's bound and
/// accepted on strict improvement. Complete searches only (no deadline,
/// cancellation or node budget). optimize_widths must return exactly its
/// answer.
ArchitectureResult reference_widths(const Soc& soc, const TestTimeTable& table,
                                    int num_buses, int total_width,
                                    const LayoutConstraints* layout,
                                    long long wire_budget, double p_max_mw,
                                    const WidthPartitionOptions& options) {
  ArchitectureResult best;
  best.proved_optimal = true;
  const bool permute = layout != nullptr;
  for (const auto& partition : width_partitions(total_width, num_buses)) {
    std::vector<int> widths = partition;
    std::sort(widths.begin(), widths.end());
    do {
      ++best.partitions_tried;
      TamProblem problem;
      try {
        problem = make_tam_problem(soc, table, widths, layout, wire_budget,
                                   p_max_mw, options.power_mode,
                                   options.bus_depth_limit);
      } catch (const std::runtime_error&) {
        if (options.bus_depth_limit < 0) throw;
        continue;
      }
      if (best.feasible && problem.lower_bound() >= best.assignment.makespan) {
        continue;
      }
      TamSolveResult result;
      switch (options.solver) {
        case InnerSolver::kExact: {
          ExactSolverOptions exact;
          exact.initial_upper_bound =
              best.feasible ? best.assignment.makespan : -1;
          result = solve_exact(problem, exact);
          break;
        }
        case InnerSolver::kIlp:
          result = solve_ilp(problem, MipOptions{});
          break;
        case InnerSolver::kGreedy:
          result = solve_greedy_lpt(problem);
          break;
        default:
          throw std::logic_error("reference covers exact, ilp and greedy");
      }
      best.total_nodes += result.nodes;
      if (!result.proved_optimal) best.proved_optimal = false;
      if (result.feasible && (!best.feasible || result.assignment.makespan <
                                                    best.assignment.makespan)) {
        best.feasible = true;
        best.bus_widths = widths;
        best.assignment = result.assignment;
      }
    } while (permute && std::next_permutation(widths.begin(), widths.end()));
  }
  if (!best.feasible) best.proved_optimal = false;

  const int w_max = std::min(table.max_width(), total_width - (num_buses - 1));
  const Staircase::RowStats stats = Staircase(table).row_stats(w_max);
  const auto b = static_cast<Cycles>(num_buses);
  const Cycles lb = std::max(stats.max_single, (stats.total + b - 1) / b);
  const auto makespan = static_cast<long long>(best.assignment.makespan);
  if (!best.feasible) {
    best.certificate = certify_infeasible(/*proven=*/true, StopReason::kNone);
  } else if (best.proved_optimal || (lb > 0 && makespan <= lb)) {
    best.proved_optimal = true;
    best.certificate = certify_optimal(makespan);
  } else if (lb > 0) {
    best.certificate = certify_bounded(makespan, lb, StopReason::kNone);
  } else {
    best.certificate = certify_feasible(makespan, StopReason::kNone);
  }
  return best;
}

struct DiffCase {
  int n = 8;
  int buses = 2;
  int width = 16;
  int power = 0;  ///< 0 off, 1 pairwise, 2 bus-max-sum
  bool d_max = false;
  bool wire = false;
  bool depth = false;
  InnerSolver solver = InnerSolver::kExact;

  std::string label() const {
    return "n=" + std::to_string(n) + " B=" + std::to_string(buses) +
           " W=" + std::to_string(width) + " power=" + std::to_string(power) +
           " d_max=" + std::to_string(d_max) + " wire=" + std::to_string(wire) +
           " depth=" + std::to_string(depth) + " solver=" +
           inner_solver_name(solver);
  }
};

struct NodeTally {
  long long got = 0;
  long long want = 0;
};

/// Runs one case through both searches and compares the answers.
void check_against_reference(const DiffCase& c, std::uint64_t seed,
                             NodeTally& tally) {
  SCOPED_TRACE(c.label() + " seed=" + std::to_string(seed));
  Rng rng(seed);
  SocGeneratorOptions gen;
  gen.num_cores = c.n;
  const Soc soc = generate_soc(gen, rng);
  const TestTimeTable table(soc, c.width - (c.buses - 1));

  std::optional<LayoutConstraints> layout;
  long long wire_budget = -1;
  if (c.d_max || c.wire) {
    const BusPlan plan = plan_buses(soc, c.buses);
    const LayoutConstraints open(plan, soc.num_cores(), -1);
    // The tightest d_max that still connects every core, and a wiring
    // budget a third of the way from the cheapest to the dearest stubs.
    int d_max = -1;
    long long cheapest = 0;
    long long dearest = 0;
    for (std::size_t i = 0; i < soc.num_cores(); ++i) {
      int lo = -1;
      int hi = 0;
      for (std::size_t j = 0; j < open.num_buses(); ++j) {
        const int d = open.distance(i, j);
        if (d < 0) continue;
        if (lo < 0 || d < lo) lo = d;
        hi = std::max(hi, d);
      }
      d_max = std::max(d_max, lo);
      cheapest += lo;
      dearest += hi;
    }
    layout.emplace(plan, soc.num_cores(), c.d_max ? d_max : -1);
    if (c.wire) wire_budget = cheapest + (dearest - cheapest) / 3;
  }
  double max_power = 0.0;
  for (std::size_t i = 0; i < soc.num_cores(); ++i) {
    max_power = std::max(max_power, soc.core(i).test_power_mw);
  }
  WidthPartitionOptions options;
  options.solver = c.solver;
  double p_max = -1.0;
  if (c.power == 1) p_max = 1.6 * max_power;
  if (c.power == 2) {
    p_max = 1.5 * max_power;
    options.power_mode = PowerConstraintMode::kBusMaxSum;
  }
  if (c.depth) {
    options.bus_depth_limit =
        table.total_time(std::max(1, c.width / c.buses)) * 5 / (4 * c.buses);
  }
  const LayoutConstraints* layout_ptr = layout ? &*layout : nullptr;

  std::optional<ArchitectureResult> want;
  bool want_threw = false;
  try {
    want = reference_widths(soc, table, c.buses, c.width, layout_ptr,
                            wire_budget, p_max, options);
  } catch (const std::runtime_error&) {
    want_threw = true;
  }
  std::vector<SolveProgress> partials;
  options.progress = [&](const SolveProgress& p) { partials.push_back(p); };
  std::optional<ArchitectureResult> got;
  bool got_threw = false;
  try {
    got = optimize_widths(soc, table, c.buses, c.width, layout_ptr,
                          wire_budget, p_max, options);
  } catch (const std::runtime_error&) {
    got_threw = true;
  }
  ASSERT_EQ(got_threw, want_threw);
  if (want_threw) return;

  EXPECT_EQ(got->feasible, want->feasible);
  EXPECT_EQ(got->bus_widths, want->bus_widths);
  EXPECT_EQ(got->assignment.core_to_bus, want->assignment.core_to_bus);
  EXPECT_EQ(got->assignment.makespan, want->assignment.makespan);
  EXPECT_EQ(got->proved_optimal, want->proved_optimal);
  EXPECT_EQ(got->partitions_tried, want->partitions_tried);
  // Fewer search nodes is the point, but the seed order is a heuristic. A
  // wiring budget, a depth limit or bus-max power can make seeds invalid or
  // far above the optimum; the first solves then run under a looser bound
  // than the enumeration order had reached by that candidate (one depth-
  // limited case reads 15554 vs 10149 nodes). Where greedy-LPT can break
  // none of the constraints, every case must not search more; across the
  // whole suite the total must not grow.
  if (!c.wire && !c.depth && c.power != 2) {
    EXPECT_LE(got->total_nodes, want->total_nodes);
  }
  tally.got += got->total_nodes;
  tally.want += want->total_nodes;
  EXPECT_EQ(got->certificate.status, want->certificate.status);
  EXPECT_EQ(got->certificate.to_string(), want->certificate.to_string());
  EXPECT_EQ(got->stop, StopReason::kNone);

  // Partials: strictly improving, and the last one is the final makespan.
  for (std::size_t k = 1; k < partials.size(); ++k) {
    EXPECT_LT(partials[k].t_cycles, partials[k - 1].t_cycles);
  }
  if (got->feasible) {
    ASSERT_FALSE(partials.empty());
    EXPECT_EQ(partials.back().t_cycles,
              static_cast<long long>(got->assignment.makespan));
  } else {
    EXPECT_TRUE(partials.empty());
  }
}

TEST(WidthSearchDifferential, MatchesEnumerationOrderSearch) {
  // Every power x layout x depth combination, for each solver, over
  // generated placed SOCs N 8-24, B {2,3}, W 16-48. One ILP solve on three
  // buses under a wiring budget can take seconds, so ILP cases take N 8-10,
  // W up to 32 on two buses and 20 on three, and two buses with a budget.
  Rng draw(20260415);
  NodeTally tally;
  int cases = 0;
  for (int power = 0; power < 3; ++power) {
    for (int mask = 0; mask < 8; ++mask) {
      for (InnerSolver solver :
           {InnerSolver::kExact, InnerSolver::kGreedy, InnerSolver::kIlp}) {
        const bool ilp = solver == InnerSolver::kIlp;
        for (int r = 0; r < (ilp ? 1 : 4); ++r) {
          DiffCase c;
          c.solver = solver;
          c.power = power;
          c.d_max = (mask & 1) != 0;
          c.wire = (mask & 2) != 0;
          c.depth = (mask & 4) != 0;
          c.n = static_cast<int>(ilp ? draw.uniform_int(8, 10)
                                     : draw.uniform_int(8, 24));
          c.buses =
              static_cast<int>(draw.uniform_int(2, ilp && c.wire ? 2 : 3));
          c.width = static_cast<int>(
              draw.uniform_int(16, !ilp ? 48 : c.buses == 2 ? 32 : 20));
          check_against_reference(c, draw.next(), tally);
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 3 * 8 * 9);
  EXPECT_LE(tally.got, tally.want);
}

}  // namespace
}  // namespace soctest
