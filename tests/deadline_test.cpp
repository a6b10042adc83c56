#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "layout/router.hpp"
#include "layout/sa_placer.hpp"
#include "obs/obs.hpp"
#include "sched/power_sched.hpp"
#include "soc/builtin.hpp"
#include "tam/timing.hpp"
#include "tam/architect.hpp"
#include "tam/exact_solver.hpp"
#include "tam/heuristics.hpp"
#include "tam/ilp_solver.hpp"
#include "tam/portfolio.hpp"
#include "test_util.hpp"

namespace soctest {
namespace {

// Mid-solve interruption coverage: every long-running component must honor
// a wall-clock Deadline and a CancellationToken, return its best incumbent
// (or a clean "nothing yet"), and record why it stopped. A pre-expired
// deadline / pre-fired token makes the interruption deterministic without
// depending on machine speed.

TamProblem hard_problem(unsigned seed = 7) {
  Rng rng(seed);
  testutil::RandomProblemOptions options;
  options.num_cores = 12;
  options.num_buses = 3;
  return testutil::random_problem(rng, options);
}

// ------------------------------------------------------------ exact / BB --

TEST(DeadlineSolvers, ExactHonorsPreExpiredDeadline) {
  const TamProblem problem = hard_problem();
  ExactSolverOptions options;
  options.deadline = Deadline::after_ms(0);
  const TamSolveResult result = solve_exact(problem, options);
  EXPECT_EQ(result.stop, StopReason::kDeadline);
  EXPECT_FALSE(result.proved_optimal);
}

TEST(DeadlineSolvers, ExactHonorsCancellation) {
  const TamProblem problem = hard_problem();
  CancellationToken cancel;
  cancel.cancel();
  ExactSolverOptions options;
  options.cancel = &cancel;
  const TamSolveResult result = solve_exact(problem, options);
  EXPECT_EQ(result.stop, StopReason::kCancelled);
  EXPECT_FALSE(result.proved_optimal);
}

TEST(DeadlineSolvers, ExactWithoutDeadlineIsUnaffected) {
  const TamProblem problem = hard_problem();
  const TamSolveResult golden = solve_exact(problem, {});
  ExactSolverOptions options;
  options.deadline = Deadline::after_ms(60000);  // far away: never fires
  const TamSolveResult timed = solve_exact(problem, options);
  ASSERT_TRUE(golden.feasible);
  ASSERT_TRUE(timed.feasible);
  EXPECT_TRUE(timed.proved_optimal);
  EXPECT_EQ(timed.stop, StopReason::kNone);
  // Bit-identical result: same makespan AND same assignment.
  EXPECT_EQ(timed.assignment.makespan, golden.assignment.makespan);
  EXPECT_EQ(timed.assignment.core_to_bus, golden.assignment.core_to_bus);
}

TEST(DeadlineSolvers, IlpHonorsPreExpiredDeadline) {
  const TamProblem problem = hard_problem();
  MipOptions options;
  options.deadline = Deadline::after_ms(0);
  const TamSolveResult result = solve_ilp(problem, options);
  EXPECT_EQ(result.stop, StopReason::kDeadline);
  EXPECT_FALSE(result.proved_optimal);
}

TEST(DeadlineSolvers, SaReturnsSeedUnderPreExpiredDeadline) {
  const TamProblem problem = hard_problem();
  SaSolverOptions options;
  options.deadline = Deadline::after_ms(0);
  const TamSolveResult result = solve_sa(problem, options);
  // SA refines the greedy seed, so even an immediate stop stays feasible.
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.stop, StopReason::kDeadline);
}

// --------------------------------------------------------------- portfolio --

TEST(DeadlinePortfolio, DegradesToHeuristicIncumbent) {
  const TamProblem problem = hard_problem();
  PortfolioOptions options;
  options.deadline = Deadline::after_ms(0);
  const PortfolioResult race = solve_portfolio(problem, options);
  // The greedy floor guarantees an incumbent whenever one exists.
  ASSERT_TRUE(race.best.feasible);
  EXPECT_TRUE(race.certificate.status == SolveStatus::kFeasibleBounded ||
              race.certificate.status == SolveStatus::kOptimal)
      << race.certificate.to_string();
  if (race.certificate.status == SolveStatus::kFeasibleBounded) {
    EXPECT_GT(race.certificate.lower_bound, 0);
    EXPECT_GE(race.certificate.gap(), 0.0);
    EXPECT_GE(race.certificate.upper_bound, race.certificate.lower_bound);
  }
}

TEST(DeadlinePortfolio, UnlimitedRunStaysOptimal) {
  const TamProblem problem = hard_problem();
  const TamSolveResult exact = solve_exact(problem, {});
  const PortfolioResult race = solve_portfolio(problem, {});
  ASSERT_TRUE(race.best.feasible);
  EXPECT_TRUE(race.best.proved_optimal);
  EXPECT_EQ(race.certificate.status, SolveStatus::kOptimal);
  EXPECT_EQ(race.best.assignment.makespan, exact.assignment.makespan);
}

// ----------------------------------------------------------- width search --

TEST(DeadlineWidthSearch, PreExpiredDeadlineStillYieldsArchitecture) {
  const Soc soc = builtin_soc1();
  const TestTimeTable& table = cached_test_time_table(soc, 31);
  WidthPartitionOptions options;
  options.solver = InnerSolver::kPortfolio;
  options.deadline = Deadline::after_ms(0);
  const ArchitectureResult arch = optimize_widths(soc, table, 2, 32, nullptr,
                                                  -1, -1.0, options);
  ASSERT_TRUE(arch.feasible);
  EXPECT_EQ(arch.stop, StopReason::kDeadline);
  EXPECT_NE(arch.certificate.status, SolveStatus::kOptimal);
  EXPECT_GE(arch.assignment.makespan, 1);
}

TEST(DeadlineWidthSearch, NoDeadlineMatchesGolden) {
  const Soc soc = builtin_soc1();
  const TestTimeTable& table = cached_test_time_table(soc, 31);
  const ArchitectureResult golden = optimize_widths(soc, table, 2, 32);
  const ArchitectureResult again = optimize_widths(soc, table, 2, 32);
  ASSERT_TRUE(golden.feasible);
  EXPECT_TRUE(golden.proved_optimal);
  EXPECT_EQ(golden.certificate.status, SolveStatus::kOptimal);
  EXPECT_EQ(golden.bus_widths, again.bus_widths);
  EXPECT_EQ(golden.assignment.core_to_bus, again.assignment.core_to_bus);
  EXPECT_EQ(golden.assignment.makespan, again.assignment.makespan);
}

// --------------------------------------------------------------- architect --

TEST(DeadlineArchitect, AnytimeRequestRoutesExactThroughPortfolio) {
  const Soc soc = builtin_soc1();
  DesignRequest request;
  request.num_buses = 2;
  request.total_width = 32;
  request.solver = InnerSolver::kExact;
  request.deadline = Deadline::after_ms(0);
  const DesignResult design = design_architecture(soc, request);
  // Degradation chain: the portfolio's greedy floor keeps this feasible.
  ASSERT_TRUE(design.feasible);
  EXPECT_EQ(design.stop, StopReason::kDeadline);
  EXPECT_TRUE(design.certificate.status == SolveStatus::kFeasibleBounded ||
              design.certificate.status == SolveStatus::kFeasible)
      << design.certificate.to_string();
}

TEST(DeadlineArchitect, NoDeadlineRunsAreIdentical) {
  const Soc soc = builtin_soc2();
  DesignRequest request;
  request.bus_widths = {16, 16};
  const DesignResult a = design_architecture(soc, request);
  const DesignResult b = design_architecture(soc, request);
  ASSERT_TRUE(a.feasible);
  EXPECT_TRUE(a.proved_optimal);
  EXPECT_EQ(a.certificate.status, SolveStatus::kOptimal);
  EXPECT_EQ(a.assignment.core_to_bus, b.assignment.core_to_bus);
  EXPECT_EQ(a.assignment.makespan, b.assignment.makespan);
}

TEST(DeadlineArchitect, CancelledFixedWidthSolveReportsStop) {
  const Soc soc = builtin_soc1();
  CancellationToken cancel;
  cancel.cancel();
  DesignRequest request;
  request.bus_widths = {16, 16};
  request.solver = InnerSolver::kSa;
  request.cancel = &cancel;
  const DesignResult design = design_architecture(soc, request);
  ASSERT_TRUE(design.feasible);  // SA's greedy seed survives
  EXPECT_EQ(design.stop, StopReason::kCancelled);
}

// A cancellation token alone keeps kExact on the calling thread (it is not
// a budget); once fired, an exact solve that found nothing answers with the
// greedy-LPT floor instead of "infeasible".
TEST(DeadlineArchitect, CancelledFixedWidthExactFallsBackToGreedy) {
  const Soc soc = builtin_soc1();
  CancellationToken cancel;
  cancel.cancel();
  DesignRequest request;
  request.bus_widths = {16, 16};
  request.solver = InnerSolver::kExact;
  request.cancel = &cancel;
  const DesignResult design = design_architecture(soc, request);
  ASSERT_TRUE(design.feasible);
  EXPECT_EQ(design.stop, StopReason::kCancelled);
  EXPECT_FALSE(design.proved_optimal);
  EXPECT_NE(design.certificate.status, SolveStatus::kOptimal);
}

TEST(DeadlineArchitect, FiniteDeadlineStillRacesThePortfolio) {
  obs::TraceSession session(nullptr);  // counters only
  auto races = [] {
    for (const auto& c : obs::counter_values()) {
      if (c.name == "tam.portfolio.races") return c.value;
    }
    return 0LL;
  };
  const long long before = races();
  const Soc soc = builtin_soc1();
  DesignRequest request;
  request.bus_widths = {16, 16};
  request.solver = InnerSolver::kExact;
  request.deadline = Deadline::after_ms(600000);  // never binds
  const DesignResult design = design_architecture(soc, request);
  ASSERT_TRUE(design.feasible);
  EXPECT_TRUE(design.proved_optimal);
  EXPECT_EQ(races(), before + 1);
}

// ------------------------------------------------------------------ layout --

TEST(DeadlineLayout, PlacerCommitsBestUnderCancellation) {
  Soc soc = builtin_soc1();
  ASSERT_TRUE(soc.has_placement());
  CancellationToken cancel;
  cancel.cancel();
  SaPlacerOptions options;
  options.cancel = &cancel;
  Rng rng(1);
  sa_place(soc, options, rng);  // must not hang or throw
  EXPECT_TRUE(soc.has_placement());
  EXPECT_GT(placement_cost(soc), 0);
}

TEST(DeadlineLayout, RouterReturnsNulloptOnExpiredDeadline) {
  DieGrid grid(16, 16);
  SolveControl control;
  control.deadline = Deadline::after_ms(0);
  // Stride 256 exceeds the polls a 16x16 BFS makes, so force every router
  // stop-check to read the clock by expiring before the search begins.
  const GridRouter router(grid, control);
  EXPECT_FALSE(router.route({0, 0}, {15, 15}).has_value());
  const std::vector<double> costs(
      static_cast<std::size_t>(grid.num_cells()), 0.0);
  EXPECT_FALSE(router.route_weighted({0, 0}, {15, 15}, costs).has_value());
  EXPECT_FALSE(
      router.route_weighted_multi({{0, 0}}, {{15, 15}}, costs).has_value());
}

TEST(DeadlineLayout, DistanceMapStaysPartialOnExpiredDeadline) {
  DieGrid grid(16, 16);
  SolveControl control;
  control.deadline = Deadline::after_ms(0);
  const GridRouter router(grid, control);
  const std::vector<int> dist = router.distance_map({{0, 0}});
  // The sources are seeded before the loop; everything else stays -1.
  EXPECT_EQ(dist[grid.index({0, 0})], 0);
  EXPECT_EQ(dist[grid.index({15, 15})], -1);
}

TEST(DeadlineLayout, RouterUnlimitedStillRoutes) {
  DieGrid grid(16, 16);
  const GridRouter router(grid);
  const auto path = router.route({0, 0}, {15, 15});
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->length(), 30);
}

// --------------------------------------------------------------- scheduler --

TEST(DeadlineScheduler, PowerSchedulerReportsInterruption) {
  const Soc soc = builtin_soc1();
  DesignRequest request;
  request.bus_widths = {16, 16};
  const DesignResult design = design_architecture(soc, request);
  ASSERT_TRUE(design.feasible);
  const TestTimeTable& table = cached_test_time_table(soc, 16);
  const TamProblem problem = make_tam_problem(soc, table, design.bus_widths);
  PowerScheduleOptions options;
  options.p_max_mw = 2000;
  options.deadline = Deadline::after_ms(0);
  const PowerScheduleResult ps = build_power_aware_schedule(
      problem, soc, design.assignment.core_to_bus, options);
  EXPECT_FALSE(ps.feasible);
  EXPECT_EQ(ps.stop, StopReason::kDeadline);
  EXPECT_NE(ps.error.find("interrupted"), std::string::npos) << ps.error;
  EXPECT_TRUE(ps.schedule.tests.empty());
}

}  // namespace
}  // namespace soctest
