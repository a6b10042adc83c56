#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "obs/obs.hpp"
#include "runtime/deadline.hpp"
#include "soc/builtin.hpp"
#include "soc/generator.hpp"
#include "tam/architect.hpp"
#include "tam/heuristics.hpp"
#include "tam/ilp_solver.hpp"
#include "tam/portfolio.hpp"
#include "tam/timing.hpp"

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

// ---------------------------------------------- explicit-width reference --

/// The explicit-width solve as design_architecture ran it before explicit
/// widths became a one-candidate width search: one TamProblem, the greedy
/// floor streamed first, one inner solve, and the certificate measured
/// against the problem's own lower bound. Complete solves only (no token,
/// deadline or node budget), so its token-only greedy fallback is left out.
DesignResult reference_explicit(const Soc& soc, const DesignRequest& request,
                                std::vector<SolveProgress>* partials) {
  std::optional<LayoutConstraints> layout;
  if (request.use_layout || request.d_max >= 0 || request.wire_budget >= 0) {
    const BusPlan plan =
        plan_buses(soc, static_cast<int>(request.bus_widths.size()));
    layout.emplace(plan, soc.num_cores(), request.d_max);
  }
  const TestTimeTable& table = cached_test_time_table(
      soc, *std::max_element(request.bus_widths.begin(),
                             request.bus_widths.end()));
  const TamProblem problem =
      make_tam_problem(soc, table, request.bus_widths,
                       layout ? &*layout : nullptr, request.wire_budget,
                       request.p_max_mw, request.power_mode,
                       request.ate_depth_limit);
  long long progress_best = -1;
  const auto report_progress = [&](const TamSolveResult& incumbent) {
    if (!incumbent.feasible) return;
    const auto makespan = static_cast<long long>(incumbent.assignment.makespan);
    if (progress_best >= 0 && makespan >= progress_best) return;
    progress_best = makespan;
    SolveProgress snapshot;
    snapshot.bus_widths = request.bus_widths;
    snapshot.t_cycles = makespan;
    const Cycles lb = problem.lower_bound();
    snapshot.lower_bound = lb > 0 ? static_cast<long long>(lb) : -1;
    partials->push_back(snapshot);
  };
  if (request.solver != InnerSolver::kGreedy) {
    report_progress(solve_greedy_lpt(problem));
  }
  DesignResult result;
  TamSolveResult solved;
  bool have_certificate = false;
  switch (request.solver) {
    case InnerSolver::kExact: {
      ExactSolverOptions options;
      options.threads = request.threads;
      solved = solve_exact(problem, options);
      break;
    }
    case InnerSolver::kIlp:
      solved = solve_ilp(problem, MipOptions{});
      break;
    case InnerSolver::kGreedy:
      solved = solve_greedy_lpt(problem);
      break;
    case InnerSolver::kSa:
      solved = solve_sa(problem, SaSolverOptions{});
      break;
    case InnerSolver::kPortfolio: {
      PortfolioOptions options;
      options.threads = request.threads;
      const PortfolioResult race = solve_portfolio(problem, options);
      solved = race.best;
      result.certificate = race.certificate;
      have_certificate = true;
      break;
    }
    default:
      throw std::logic_error("reference covers the assignment solvers");
  }
  report_progress(solved);
  result.feasible = solved.feasible;
  result.proved_optimal = solved.proved_optimal;
  result.bus_widths = request.bus_widths;
  result.assignment = solved.assignment;
  result.partitions_tried = 1;
  result.total_nodes = solved.nodes;
  result.stop = solved.stop;
  result.search_mode = solved.search_mode;
  if (!have_certificate) {
    const auto makespan = static_cast<long long>(result.assignment.makespan);
    const Cycles lb = problem.lower_bound();
    if (!result.feasible) {
      result.certificate = certify_infeasible(solved.proved_optimal, solved.stop);
    } else if (result.proved_optimal) {
      result.certificate = certify_optimal(makespan);
    } else {
      result.certificate =
          lb > 0 ? certify_bounded(makespan, static_cast<long long>(lb),
                                   solved.stop)
                 : certify_feasible(makespan, solved.stop);
    }
  }
  return result;
}

struct ExplicitCase {
  int n = 8;
  int buses = 2;
  int power = 0;  ///< 0 off, 1 pairwise, 2 bus-max-sum
  bool d_max = false;
  bool wire = false;
  bool depth = false;
  InnerSolver solver = InnerSolver::kExact;

  std::string label() const {
    return "n=" + std::to_string(n) + " B=" + std::to_string(buses) +
           " power=" + std::to_string(power) + " d_max=" +
           std::to_string(d_max) + " wire=" + std::to_string(wire) +
           " depth=" + std::to_string(depth) + " solver=" +
           inner_solver_name(solver);
  }
};

/// Draws a placed SOC and explicit widths for `c`, then runs the request
/// through design_architecture and the reference and compares the answers.
void check_explicit_against_reference(const ExplicitCase& c, Rng& draw,
                                      int* sa_kept_floor) {
  SCOPED_TRACE(c.label());
  Rng rng(draw.next());
  SocGeneratorOptions gen;
  gen.num_cores = c.n;
  const Soc soc = generate_soc(gen, rng);
  DesignRequest request;
  request.solver = c.solver;
  for (int j = 0; j < c.buses; ++j) {
    request.bus_widths.push_back(static_cast<int>(draw.uniform_int(1, 20)));
  }
  SCOPED_TRACE("widths=" + ::testing::PrintToString(request.bus_widths));
  if (c.d_max || c.wire) {
    // The tightest d_max that still connects every core, and a wiring
    // budget a third of the way from the cheapest to the dearest stubs.
    const LayoutConstraints open(plan_buses(soc, c.buses), soc.num_cores(),
                                 -1);
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
    if (c.d_max) request.d_max = d_max;
    if (c.wire) request.wire_budget = cheapest + (dearest - cheapest) / 3;
  }
  double max_power = 0.0;
  for (std::size_t i = 0; i < soc.num_cores(); ++i) {
    max_power = std::max(max_power, soc.core(i).test_power_mw);
  }
  if (c.power == 1) request.p_max_mw = 1.6 * max_power;
  if (c.power == 2) {
    request.p_max_mw = 1.5 * max_power;
    request.power_mode = PowerConstraintMode::kBusMaxSum;
  }
  if (c.depth) {
    const int narrowest = *std::min_element(request.bus_widths.begin(),
                                            request.bus_widths.end());
    request.ate_depth_limit =
        cached_test_time_table(soc, narrowest).total_time(narrowest) * 5 /
        (4 * c.buses);
  }

  std::vector<SolveProgress> want_partials;
  std::optional<DesignResult> want;
  try {
    want = reference_explicit(soc, request, &want_partials);
  } catch (const std::runtime_error&) {
  }
  std::vector<SolveProgress> partials;
  request.progress = [&](const SolveProgress& p) { partials.push_back(p); };
  std::optional<DesignResult> got;
  try {
    got = design_architecture(soc, request);
  } catch (const std::runtime_error&) {
  }
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!want) return;

  EXPECT_EQ(got->partitions_tried, 1);
  EXPECT_EQ(got->stop, StopReason::kNone);

  // Partials: the same stream as the reference (the greedy floor, then
  // the solve when it improves on it), so strictly improving.
  ASSERT_EQ(partials.size(), want_partials.size());
  for (std::size_t k = 0; k < partials.size(); ++k) {
    EXPECT_EQ(partials[k].bus_widths, want_partials[k].bus_widths);
    EXPECT_EQ(partials[k].t_cycles, want_partials[k].t_cycles);
    EXPECT_EQ(partials[k].lower_bound, want_partials[k].lower_bound);
    if (k > 0) {
      EXPECT_LT(partials[k].t_cycles, partials[k - 1].t_cycles);
    }
  }

  // SA can end above the greedy-LPT floor the reference streamed first and
  // then returned anyway. The search keeps that floor as its incumbent,
  // so its answer is the floor and matches the last partial.
  if (c.solver == InnerSolver::kSa && !want_partials.empty() &&
      (!want->feasible ||
       want->assignment.makespan > want_partials.front().t_cycles)) {
    ASSERT_TRUE(got->feasible);
    EXPECT_EQ(static_cast<long long>(got->assignment.makespan),
              want_partials.front().t_cycles);
    EXPECT_EQ(got->certificate.lower_bound, want_partials.front().lower_bound);
    ++*sa_kept_floor;
    return;
  }

  EXPECT_EQ(got->feasible, want->feasible);
  EXPECT_EQ(got->certificate.status, want->certificate.status);
  EXPECT_EQ(got->certificate.lower_bound, want->certificate.lower_bound);
  if (got->feasible) {
    EXPECT_EQ(got->bus_widths, want->bus_widths);
    EXPECT_EQ(got->assignment.core_to_bus, want->assignment.core_to_bus);
    EXPECT_EQ(got->assignment.makespan, want->assignment.makespan);
    EXPECT_EQ(got->proved_optimal, want->proved_optimal);
    ASSERT_FALSE(partials.empty());
    EXPECT_EQ(partials.back().t_cycles,
              static_cast<long long>(got->assignment.makespan));
  } else {
    // An answer without an architecture names no widths, as a width
    // search's does; the single-solve path echoed the request and the
    // failed assignment.
    EXPECT_TRUE(got->bus_widths.empty());
    EXPECT_FALSE(got->proved_optimal);
  }
}

TEST(ExplicitWidthDifferential, MatchesTheSingleSolveReference) {
  // Every power x layout x depth combination over generated placed SOCs,
  // N 8-24 on two and three buses, widths 1-20 per bus. ILP takes N 8-10
  // on two buses.
  Rng draw(20261017);
  int cases = 0;
  int sa_kept_floor = 0;
  for (int power = 0; power < 3; ++power) {
    for (int mask = 0; mask < 8; ++mask) {
      for (InnerSolver solver :
           {InnerSolver::kExact, InnerSolver::kGreedy, InnerSolver::kSa,
            InnerSolver::kPortfolio, InnerSolver::kIlp}) {
        const bool ilp = solver == InnerSolver::kIlp;
        for (int r = 0; r < (ilp ? 1 : 2); ++r) {
          ExplicitCase c;
          c.solver = solver;
          c.power = power;
          c.d_max = (mask & 1) != 0;
          c.wire = (mask & 2) != 0;
          c.depth = (mask & 4) != 0;
          c.n = static_cast<int>(ilp ? draw.uniform_int(8, 10)
                                     : draw.uniform_int(8, 24));
          c.buses = static_cast<int>(ilp ? 2 : draw.uniform_int(2, 3));
          check_explicit_against_reference(c, draw, &sa_kept_floor);
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 3 * 8 * 9);
  // SA beats or ties its floor on all but a few of its 48 cases.
  EXPECT_LE(sa_kept_floor, 4);
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
