#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "obs/obs.hpp"
#include "runtime/deadline.hpp"
#include "soc/builtin.hpp"
#include "soc/generator.hpp"
#include "tam/architect.hpp"

namespace soctest {
namespace {

TEST(Architect, FixedWidthsUnconstrained) {
  const Soc soc = builtin_soc1();
  DesignRequest request;
  request.bus_widths = {16, 16};
  const auto result = design_architecture(soc, request);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(result.proved_optimal);
  EXPECT_EQ(result.bus_widths, (std::vector<int>{16, 16}));
  EXPECT_FALSE(result.bus_plan.has_value());
  EXPECT_EQ(result.partitions_tried, 1);
}

TEST(Architect, WidthSearchMode) {
  const Soc soc = builtin_soc2();
  DesignRequest request;
  request.num_buses = 2;
  request.total_width = 16;
  const auto result = design_architecture(soc, request);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.bus_widths.size(), 2u);
  EXPECT_EQ(result.bus_widths[0] + result.bus_widths[1], 16);
  EXPECT_GT(result.partitions_tried, 1);
}

TEST(Architect, LayoutRunProducesPlanAndWirelength) {
  const Soc soc = builtin_soc1();
  DesignRequest request;
  request.bus_widths = {16, 16};
  request.d_max = 40;
  const auto result = design_architecture(soc, request);
  ASSERT_TRUE(result.feasible);
  ASSERT_TRUE(result.bus_plan.has_value());
  EXPECT_EQ(result.bus_plan->num_buses(), 2u);
  EXPECT_GT(result.stub_wirelength, 0);
}

TEST(Architect, LayoutConstraintCanOnlyHurt) {
  const Soc soc = builtin_soc1();
  DesignRequest free_request;
  free_request.bus_widths = {16, 8};
  DesignRequest tight_request = free_request;
  tight_request.d_max = 25;
  const auto free_result = design_architecture(soc, free_request);
  const auto tight_result = design_architecture(soc, tight_request);
  ASSERT_TRUE(free_result.feasible);
  ASSERT_TRUE(tight_result.feasible);
  EXPECT_GE(tight_result.assignment.makespan, free_result.assignment.makespan);
}

TEST(Architect, PowerConstraintCanOnlyHurt) {
  const Soc soc = builtin_soc1();
  DesignRequest free_request;
  free_request.bus_widths = {16, 16};
  DesignRequest power_request = free_request;
  power_request.p_max_mw = 1500;
  const auto free_result = design_architecture(soc, free_request);
  const auto power_result = design_architecture(soc, power_request);
  ASSERT_TRUE(free_result.feasible && power_result.feasible);
  EXPECT_GE(power_result.assignment.makespan, free_result.assignment.makespan);
}

TEST(Architect, UnplacedSocRejectsLayoutRequests) {
  Soc soc("u", 10, 10);
  Core c;
  c.name = "a";
  c.num_inputs = 2;
  c.num_outputs = 2;
  c.num_patterns = 3;
  c.test_power_mw = 10;
  soc.add_core(c);
  DesignRequest request;
  request.bus_widths = {4};
  request.d_max = 5;
  EXPECT_THROW(design_architecture(soc, request), std::invalid_argument);
}

TEST(Architect, UnplacedSocFineWithoutLayout) {
  Soc soc("u", 10, 10);
  Core c;
  c.name = "a";
  c.num_inputs = 2;
  c.num_outputs = 2;
  c.num_patterns = 3;
  c.test_power_mw = 10;
  soc.add_core(c);
  DesignRequest request;
  request.bus_widths = {4};
  const auto result = design_architecture(soc, request);
  EXPECT_TRUE(result.feasible);
}

TEST(Architect, InvalidSocRejected) {
  Soc soc("empty", 10, 10);
  DesignRequest request;
  request.bus_widths = {4};
  EXPECT_THROW(design_architecture(soc, request), std::invalid_argument);
}

TEST(Architect, OverbudgetPowerThrows) {
  const Soc soc = builtin_soc1();  // s38417 draws 1144 mW
  DesignRequest request;
  request.bus_widths = {16, 16};
  request.p_max_mw = 800;
  EXPECT_THROW(design_architecture(soc, request), std::runtime_error);
}

TEST(Architect, HeuristicSolversWork) {
  const Soc soc = builtin_soc1();
  DesignRequest exact_request;
  exact_request.bus_widths = {16, 16};
  DesignRequest greedy_request = exact_request;
  greedy_request.solver = InnerSolver::kGreedy;
  DesignRequest sa_request = exact_request;
  sa_request.solver = InnerSolver::kSa;
  const auto exact = design_architecture(soc, exact_request);
  const auto greedy = design_architecture(soc, greedy_request);
  const auto sa = design_architecture(soc, sa_request);
  ASSERT_TRUE(exact.feasible && greedy.feasible && sa.feasible);
  EXPECT_GE(greedy.assignment.makespan, exact.assignment.makespan);
  EXPECT_GE(sa.assignment.makespan, exact.assignment.makespan);
}

TEST(Architect, IlpSolverMatchesExact) {
  const Soc soc = builtin_soc2();
  DesignRequest exact_request;
  exact_request.bus_widths = {8, 8};
  DesignRequest ilp_request = exact_request;
  ilp_request.solver = InnerSolver::kIlp;
  const auto exact = design_architecture(soc, exact_request);
  const auto ilp = design_architecture(soc, ilp_request);
  ASSERT_TRUE(exact.feasible && ilp.feasible);
  EXPECT_EQ(exact.assignment.makespan, ilp.assignment.makespan);
}

long long counter_value(const std::string& name) {
  for (const auto& c : obs::counter_values()) {
    if (c.name == name) return c.value;
  }
  return 0;
}

// An unfired cancellation token is not a budget: it must leave the exact
// width search on the calling thread (no portfolio race) and change nothing
// about the answer or the search that found it. The solve service hands
// every job such a token, so this pins served answers to the plain solve.
TEST(Architect, UnfiredCancelTokenLeavesExactSolveUnchanged) {
  obs::TraceSession session(nullptr);  // counters only
  const long long races_before = counter_value("tam.portfolio.races");
  for (int n = 16; n <= 24; ++n) {
    Rng rng(static_cast<std::uint64_t>(n) * 7919);
    SocGeneratorOptions gen;
    gen.num_cores = n;
    const Soc soc = generate_soc(gen, rng);
    double max_power = 0.0;
    for (std::size_t i = 0; i < soc.num_cores(); ++i) {
      max_power = std::max(max_power, soc.core(i).test_power_mw);
    }
    for (int buses : {2, 3}) {
      for (int width : {24, 32, 40}) {
        for (double p_max : {-1.0, 1.6 * max_power}) {
          SCOPED_TRACE("n=" + std::to_string(n) + " B=" +
                       std::to_string(buses) + " W=" + std::to_string(width) +
                       " p_max=" + std::to_string(p_max));
          DesignRequest request;
          request.num_buses = buses;
          request.total_width = width;
          request.p_max_mw = p_max;
          request.solver = InnerSolver::kExact;
          const DesignResult plain = design_architecture(soc, request);
          CancellationToken cancel;
          request.cancel = &cancel;
          const DesignResult tokened = design_architecture(soc, request);
          EXPECT_EQ(tokened.feasible, plain.feasible);
          EXPECT_EQ(tokened.bus_widths, plain.bus_widths);
          EXPECT_EQ(tokened.assignment.core_to_bus,
                    plain.assignment.core_to_bus);
          EXPECT_EQ(tokened.assignment.makespan, plain.assignment.makespan);
          EXPECT_EQ(tokened.certificate.status, plain.certificate.status);
          EXPECT_EQ(tokened.search_mode, plain.search_mode);
          EXPECT_EQ(tokened.total_nodes, plain.total_nodes);
        }
      }
    }
  }
  EXPECT_EQ(counter_value("tam.portfolio.races"), races_before);
}

TEST(Architect, DeadlinePortfolioWidthSearchKeepsItsProof) {
  // A finite deadline routes an exact width search through the portfolio.
  // When the deadline never fires, that search is complete: every
  // candidate whose exact racer proves "nothing at or below the bound"
  // must keep the proof, so the answer and its certificate match the plain
  // exact search and no stop reason leaks out of the race.
  obs::TraceSession session(nullptr);  // counters only
  const long long races_before = counter_value("tam.portfolio.races");
  for (int n = 17; n <= 21; ++n) {
    Rng rng(static_cast<std::uint64_t>(n) * 104729);
    SocGeneratorOptions gen;
    gen.num_cores = n;
    const Soc soc = generate_soc(gen, rng);
    for (int buses : {2, 3}) {
      for (int width : {24, 32}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " B=" +
                     std::to_string(buses) + " W=" + std::to_string(width));
        DesignRequest request;
        request.num_buses = buses;
        request.total_width = width;
        request.solver = InnerSolver::kExact;
        const DesignResult plain = design_architecture(soc, request);
        request.deadline = Deadline::after_ms(60000);
        const DesignResult raced = design_architecture(soc, request);
        ASSERT_EQ(plain.certificate.status, SolveStatus::kOptimal);
        EXPECT_EQ(raced.certificate.status, SolveStatus::kOptimal)
            << raced.certificate.to_string();
        EXPECT_TRUE(raced.proved_optimal);
        EXPECT_EQ(raced.stop, StopReason::kNone);
        EXPECT_EQ(raced.assignment.makespan, plain.assignment.makespan);
        EXPECT_EQ(raced.bus_widths, plain.bus_widths);
      }
    }
  }
  EXPECT_GT(counter_value("tam.portfolio.races"), races_before);
}

TEST(Architect, DescribeDesignMentionsKeyFacts) {
  const Soc soc = builtin_soc2();
  DesignRequest request;
  request.bus_widths = {8, 8};
  request.p_max_mw = 1400;
  const auto result = design_architecture(soc, request);
  const std::string report = describe_design(soc, request, result);
  EXPECT_NE(report.find("soc2"), std::string::npos);
  EXPECT_NE(report.find("system test time"), std::string::npos);
  EXPECT_NE(report.find("p_max"), std::string::npos);
  EXPECT_NE(report.find("bus 0"), std::string::npos);
  EXPECT_NE(report.find("bus 1"), std::string::npos);
}

TEST(Architect, DescribeInfeasibleDesign) {
  const Soc soc = builtin_soc2();
  DesignRequest request;
  request.bus_widths = {8, 8};
  DesignResult result;  // default: infeasible
  const std::string report = describe_design(soc, request, result);
  EXPECT_NE(report.find("NO FEASIBLE"), std::string::npos);
}

}  // namespace
}  // namespace soctest
