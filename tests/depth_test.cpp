// Tests for the ATE vector-memory depth constraint (per-bus load cap).

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "soc/builtin.hpp"
#include "tam/exact_solver.hpp"
#include "tam/heuristics.hpp"
#include "tam/ilp_solver.hpp"
#include "tam/width_partition.hpp"
#include "test_util.hpp"

namespace soctest {
namespace {

TEST(DepthConstraint, CheckAssignmentEnforcesCap) {
  TamProblem p;
  p.bus_widths = {8, 8};
  p.time = {{40, 40}, {30, 30}, {20, 20}};
  p.allowed.assign(3, {1, 1});
  p.bus_depth_limit = 50;
  EXPECT_EQ(p.check_assignment({0, 1, 1}), "");   // loads 40, 50
  EXPECT_NE(p.check_assignment({0, 0, 1}), "");   // load 70 on bus 0
}

TEST(DepthConstraint, ExactRespectsCap) {
  TamProblem p;
  p.bus_widths = {8, 8};
  p.time = {{40, 40}, {30, 30}, {20, 20}};
  p.allowed.assign(3, {1, 1});
  p.bus_depth_limit = 50;
  const auto r = solve_exact(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.assignment.makespan, 50);
  EXPECT_EQ(p.check_assignment(r.assignment.core_to_bus), "");
  // Depth below the balanced optimum (45) -> infeasible.
  p.bus_depth_limit = 44;
  EXPECT_FALSE(solve_exact(p).feasible);
}

TEST(DepthConstraint, MakeProblemRejectsUnfittableCore) {
  const Soc soc = builtin_soc2();
  const TestTimeTable table(soc, 8);
  // Some core needs more than 10 cycles even at full width.
  EXPECT_THROW(
      make_tam_problem(soc, table, {8, 8}, nullptr, -1, -1.0,
                       PowerConstraintMode::kPairwiseSerialization, 10),
      std::runtime_error);
}

TEST(DepthConstraint, IlpCapsT) {
  TamProblem p;
  p.bus_widths = {8, 8};
  p.time = {{40, 40}, {30, 30}, {20, 20}};
  p.allowed.assign(3, {1, 1});
  p.bus_depth_limit = 50;
  const auto ilp = solve_ilp(p);
  const auto exact = solve_exact(p);
  ASSERT_TRUE(ilp.feasible && exact.feasible);
  EXPECT_EQ(ilp.assignment.makespan, exact.assignment.makespan);
  p.bus_depth_limit = 44;
  EXPECT_FALSE(solve_ilp(p).feasible);
}

TEST(DepthConstraint, GreedyAndSaRespectCap) {
  Rng rng(3);
  testutil::RandomProblemOptions options;
  options.num_cores = 8;
  options.num_buses = 3;
  TamProblem p = testutil::random_problem(rng, options);
  // Cap slightly above the exact optimum so feasible room exists.
  const auto exact_free = solve_exact(p);
  p.bus_depth_limit = exact_free.assignment.makespan + 50;
  const auto greedy = solve_greedy_lpt(p);
  const auto sa = solve_sa(p);
  if (greedy.feasible) {
    EXPECT_EQ(p.check_assignment(greedy.assignment.core_to_bus), "");
  }
  if (sa.feasible) {
    EXPECT_EQ(p.check_assignment(sa.assignment.core_to_bus), "");
  }
  // Exact must find the same optimum (cap above it is slack).
  const auto exact = solve_exact(p);
  ASSERT_TRUE(exact.feasible);
  EXPECT_EQ(exact.assignment.makespan, exact_free.assignment.makespan);
}

class DepthVsBrute : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DepthVsBrute, ExactMatchesExhaustive) {
  Rng rng(GetParam());
  testutil::RandomProblemOptions options;
  options.num_cores = 6;
  options.num_buses = 2;
  TamProblem p = testutil::random_problem(rng, options);
  // A cap between the balanced optimum and the serial time bites often.
  const auto free_opt = solve_exact(p);
  p.bus_depth_limit = free_opt.assignment.makespan +
                      static_cast<Cycles>(rng.uniform_int(0, 200));
  const Cycles brute = testutil::brute_force_makespan(p);
  const auto r = solve_exact(p);
  ASSERT_EQ(r.feasible, brute >= 0) << "seed " << GetParam();
  if (brute >= 0) EXPECT_EQ(r.assignment.makespan, brute);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DepthVsBrute,
                         ::testing::Range<std::uint64_t>(0, 15));

TEST(DepthConstraint, WidthSearchSkipsUnfittablePartitions) {
  const Soc soc = builtin_soc2();
  const TestTimeTable table(soc, 15);
  WidthPartitionOptions options;
  // Depth chosen so extreme partitions (1, 15) cannot host the big cores
  // but balanced ones can.
  options.bus_depth_limit = 9000;
  const auto r = optimize_widths(soc, table, 2, 16, nullptr, -1, -1.0, options);
  ASSERT_TRUE(r.feasible);
  EXPECT_LE(r.assignment.makespan, 9000);
}

/// The message of the std::runtime_error `search` throws; empty if none.
template <typename Search>
std::string runtime_error_of(Search search) {
  try {
    search();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

TEST(DepthConstraint, WidthSearchKeepsWidthIndependentDiagnostics) {
  // A core above p_max is infeasible at every width. A depth limit that
  // every partition fits must not turn that diagnostic into "infeasible".
  const Soc soc = builtin_soc1();
  const TestTimeTable table(soc, 23);
  const auto search = [&](Cycles depth) {
    WidthPartitionOptions options;
    options.bus_depth_limit = depth;
    return runtime_error_of([&] {
      optimize_widths(soc, table, 2, 24, nullptr, -1, 1.0, options);
    });
  };
  const std::string plain = search(-1);
  EXPECT_NE(plain.find("alone exceeds the test power budget"),
            std::string::npos)
      << plain;
  EXPECT_EQ(search(100000000), plain);
}

TEST(DepthConstraint, WidthSearchRejectingEveryPartitionRethrowsTheFirst) {
  const Soc soc = builtin_soc2();
  const TestTimeTable table(soc, 15);
  WidthPartitionOptions options;
  options.bus_depth_limit = 10;  // no core fits at any width
  const std::string first = runtime_error_of([&] {
    make_tam_problem(soc, table, {1, 15}, nullptr, -1, -1.0,
                     PowerConstraintMode::kPairwiseSerialization, 10);
  });
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(runtime_error_of([&] {
              optimize_widths(soc, table, 2, 16, nullptr, -1, -1.0, options);
            }),
            first);
}

TEST(DepthConstraint, DepthSweepTracesFrontier) {
  const Soc soc = builtin_soc2();
  const TestTimeTable table(soc, 8);
  const TamProblem base = make_tam_problem(soc, table, {8, 8});
  const Cycles optimum = solve_exact(base).assignment.makespan;
  // Above the optimum: same answer. At the optimum: still feasible.
  for (Cycles depth : {optimum * 2, optimum + 1, optimum}) {
    const TamProblem p = make_tam_problem(
        soc, table, {8, 8}, nullptr, -1, -1.0,
        PowerConstraintMode::kPairwiseSerialization, depth);
    const auto r = solve_exact(p);
    ASSERT_TRUE(r.feasible) << depth;
    EXPECT_EQ(r.assignment.makespan, optimum);
  }
  // Below the optimum: infeasible.
  const TamProblem tight = make_tam_problem(
      soc, table, {8, 8}, nullptr, -1, -1.0,
      PowerConstraintMode::kPairwiseSerialization, optimum - 1);
  EXPECT_FALSE(solve_exact(tight).feasible);
}

}  // namespace
}  // namespace soctest
