#include <gtest/gtest.h>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

#include "cli/options.hpp"
#include "cli/run.hpp"
#include "report/json.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

namespace soctest {
namespace {

std::string trim_copy(const std::string& s) {
  const auto b = s.find_first_not_of(" \n\t");
  const auto e = s.find_last_not_of(" \n\t");
  return b == std::string::npos ? std::string{} : s.substr(b, e - b + 1);
}

TEST(CliParse, Defaults) {
  const CliOptions o = parse_cli({});
  EXPECT_EQ(o.request.soc, "soc1");
  EXPECT_EQ(o.request.buses, 2);
  EXPECT_EQ(o.request.total_width, 32);
  EXPECT_TRUE(o.request.widths.empty());
  EXPECT_EQ(o.request.d_max, -1);
  EXPECT_EQ(o.request.p_max, -1.0);
  EXPECT_EQ(o.request.solver, InnerSolver::kExact);
  EXPECT_FALSE(o.help);
  EXPECT_FALSE(o.gantt);
  EXPECT_FALSE(o.idle_insertion);
}

TEST(CliParse, AllFlags) {
  const CliOptions o = parse_cli({"--soc", "soc3", "--widths", "16,8,8",
                                  "--dmax", "20", "--wire-budget", "100",
                                  "--pmax", "1500", "--solver", "sa",
                                  "--gantt", "--idle-insertion"});
  EXPECT_EQ(o.request.soc, "soc3");
  EXPECT_EQ(o.request.widths, (std::vector<int>{16, 8, 8}));
  EXPECT_EQ(o.request.d_max, 20);
  EXPECT_EQ(o.request.wire_budget, 100);
  EXPECT_DOUBLE_EQ(o.request.p_max, 1500.0);
  EXPECT_EQ(o.request.solver, InnerSolver::kSa);
  EXPECT_TRUE(o.gantt);
  EXPECT_TRUE(o.idle_insertion);
}

TEST(CliParse, SolverNames) {
  EXPECT_EQ(parse_cli({"--solver", "exact"}).request.solver, InnerSolver::kExact);
  EXPECT_EQ(parse_cli({"--solver", "ilp"}).request.solver, InnerSolver::kIlp);
  EXPECT_EQ(parse_cli({"--solver", "greedy"}).request.solver,
            InnerSolver::kGreedy);
  EXPECT_THROW(parse_cli({"--solver", "magic"}), std::invalid_argument);
}

TEST(CliParse, Rejections) {
  EXPECT_THROW(parse_cli({"--frobnicate"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--buses"}), std::invalid_argument);        // missing value
  EXPECT_THROW(parse_cli({"--buses", "0"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--buses", "two"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--widths", ""}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--widths", "4,,8"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--widths", "4,0"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--width", "2", "--buses", "3"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--pmax", "12x"}), std::invalid_argument);
}

TEST(CliParse, PowerMode) {
  EXPECT_EQ(parse_cli({"--power-mode", "pairwise"}).request.power_mode,
            PowerConstraintMode::kPairwiseSerialization);
  EXPECT_EQ(parse_cli({"--power-mode", "busmax"}).request.power_mode,
            PowerConstraintMode::kBusMaxSum);
  EXPECT_THROW(parse_cli({"--power-mode", "triple"}), std::invalid_argument);
}

TEST(CliRun, BusMaxModeMeetsBudgetOnThreeBuses) {
  const CliResult r = run_cli(parse_cli({"--soc", "soc1", "--widths",
                                         "16,16,16", "--pmax", "2000",
                                         "--power-mode", "busmax"}));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("OK"), std::string::npos);
  EXPECT_EQ(r.output.find("VIOLATION"), std::string::npos);
}

TEST(CliParse, HelpFlag) {
  EXPECT_TRUE(parse_cli({"--help"}).help);
  EXPECT_TRUE(parse_cli({"-h"}).help);
}

TEST(CliRun, HelpPrintsUsage) {
  CliOptions o;
  o.help = true;
  const CliResult r = run_cli(o);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("usage: soctest"), std::string::npos);
}

TEST(CliRun, BuiltinSocFixedWidths) {
  const CliResult r = run_cli(parse_cli({"--soc", "soc2", "--widths", "8,8"}));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("system test time"), std::string::npos);
  EXPECT_NE(r.output.find("optimal"), std::string::npos);
}

TEST(CliRun, WidthSearchWithGantt) {
  const CliResult r = run_cli(
      parse_cli({"--soc", "soc2", "--buses", "2", "--width", "12", "--gantt"}));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("bus 0 ["), std::string::npos);
}

TEST(CliRun, PowerConstrainedReportsPeak) {
  const CliResult r = run_cli(
      parse_cli({"--soc", "soc2", "--widths", "8,8", "--pmax", "1400"}));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("schedule peak power"), std::string::npos);
  EXPECT_NE(r.output.find("OK"), std::string::npos);
}

TEST(CliRun, IdleInsertionPath) {
  const CliResult r = run_cli(parse_cli({"--soc", "soc1", "--widths", "16,16",
                                         "--pmax", "1700",
                                         "--idle-insertion"}));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("idle-insertion schedule"), std::string::npos);
  EXPECT_NE(r.output.find("OK"), std::string::npos);
}

TEST(CliRun, LayoutConstrained) {
  const CliResult r = run_cli(
      parse_cli({"--soc", "soc1", "--widths", "16,16,16", "--dmax", "30"}));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("stub wirelength"), std::string::npos);
}

TEST(CliRun, LoadsSocFromFile) {
  const std::string path = ::testing::TempDir() + "/cli_test_chip.soc";
  {
    std::ofstream out(path);
    out << "soc filechip 20 20\n"
           "core a inputs 8 outputs 8 patterns 20 power 100 size 4 4\n"
           "core b inputs 6 outputs 6 patterns 30 power 150 size 4 4\n"
           "scan a 12 12\n"
           "softscan b 40\n"
           "place a 2 2\n"
           "place b 10 2\n"
           "end\n";
  }
  const CliResult r = run_cli(parse_cli({"--soc", path, "--widths", "4,4"}));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("filechip"), std::string::npos);
  EXPECT_NE(r.output.find("system test time"), std::string::npos);
}

TEST(CliRun, LoadsShippedSampleSoc) {
  // The repo ships data/camchip.soc; resolve it relative to this source
  // file's directory recorded at configure time.
#ifdef SOCTEST_REPO_ROOT
  const std::string path = std::string(SOCTEST_REPO_ROOT) + "/data/camchip.soc";
  const CliResult r = run_cli(parse_cli(
      {"--soc", path, "--widths", "12,8", "--dmax", "24", "--pmax", "1650"}));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("camchip"), std::string::npos);
#else
  GTEST_SKIP() << "SOCTEST_REPO_ROOT not defined";
#endif
}

TEST(CliRun, MissingSocFileReportsError) {
  const CliResult r = run_cli(parse_cli({"--soc", "/no/such/file.soc"}));
  EXPECT_EQ(r.exit_code, 3);  // input error (docs/robustness.md exit codes)
  EXPECT_NE(r.output.find("error:"), std::string::npos);
  EXPECT_NE(r.output.find("not_found"), std::string::npos);
}

TEST(CliRun, InfeasiblePowerBudgetExitsNonzero) {
  const CliResult r = run_cli(
      parse_cli({"--soc", "soc2", "--widths", "8,8", "--pmax", "100"}));
  EXPECT_NE(r.exit_code, 0);
}

TEST(CliRun, JsonOutputIsValid) {
  const CliResult r = run_cli(parse_cli(
      {"--soc", "soc2", "--widths", "8,8", "--pmax", "1400", "--json"}));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(json_check(trim_copy(r.output)), "") << r.output;
  EXPECT_NE(r.output.find("\"test_time_cycles\""), std::string::npos);
  // The text report must not be mixed in.
  EXPECT_EQ(r.output.find("system test time"), std::string::npos);
}

TEST(CliRun, SvgOutputWritesWellFormedFile) {
  const std::string path = ::testing::TempDir() + "/soctest_cli_test.svg";
  const CliResult r = run_cli(parse_cli({"--soc", "soc1", "--widths",
                                         "16,16", "--dmax", "40", "--svg",
                                         path}));
  EXPECT_EQ(r.exit_code, 0);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("<svg"), std::string::npos);
  EXPECT_NE(buffer.str().find("polyline"), std::string::npos);  // trunks+stubs
}

TEST(CliRun, SvgToUnwritablePathFails) {
  const CliResult r = run_cli(parse_cli(
      {"--soc", "soc1", "--widths", "16,16", "--svg", "/no/such/dir/x.svg"}));
  EXPECT_EQ(r.exit_code, 4);  // output I/O error
  EXPECT_NE(r.output.find("io_error"), std::string::npos);
}

TEST(CliParse, RobustnessFlags) {
  const CliOptions o = parse_cli(
      {"--time-limit-ms", "250", "--failpoints", "tam.exact.node=error"});
  EXPECT_DOUBLE_EQ(o.request.time_limit_ms, 250.0);
  EXPECT_EQ(o.failpoints, "tam.exact.node=error");
  EXPECT_THROW(parse_cli({"--time-limit-ms", "-1"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--time-limit-ms"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--failpoints", ""}), std::invalid_argument);
}

TEST(CliRun, TimeLimitReportsCertificate) {
  // A zero budget expires before the first search node; the degradation
  // chain (portfolio greedy floor) must still deliver an architecture with
  // an honest gap report and a success exit.
#ifdef SOCTEST_REPO_ROOT
  const std::string path = std::string(SOCTEST_REPO_ROOT) + "/data/camchip.soc";
  const CliResult r = run_cli(
      parse_cli({"--soc", path, "--buses", "2", "--width", "24",
                 "--time-limit-ms", "0"}));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("system test time"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("status=feasible_bounded"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("gap="), std::string::npos) << r.output;
#else
  GTEST_SKIP() << "SOCTEST_REPO_ROOT not defined";
#endif
}

TEST(CliRun, NoTimeLimitMatchesGoldenOutput) {
  // Without --time-limit-ms the anytime machinery must stay fully inert:
  // two runs (and the pre-deadline code path) give byte-identical reports.
  const std::vector<std::string> args{"--soc", "soc2", "--widths", "16,16"};
  const CliResult a = run_cli(parse_cli(args));
  const CliResult b = run_cli(parse_cli(args));
  EXPECT_EQ(a.exit_code, 0);
  EXPECT_EQ(a.output, b.output);
  EXPECT_NE(a.output.find("status=optimal"), std::string::npos) << a.output;
}

TEST(CliRun, JsonReportCarriesCertificate) {
  const CliResult r = run_cli(parse_cli(
      {"--soc", "soc2", "--widths", "16,16", "--json"}));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("\"status\":\"optimal\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"stop_reason\":\"none\""), std::string::npos)
      << r.output;
}

TEST(CliRun, Soc3Solves) {
  const CliResult r = run_cli(
      parse_cli({"--soc", "soc3", "--widths", "24,16,16", "--solver", "greedy"}));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("system test time"), std::string::npos);
}

// ------------------------------------------- CLI / service parity --

// One table of solve requests, each run as `soctest` flags and as a
// soctest-req-v1 line: both front ends must accept or reject it alike, and
// an accepted request must have the same canonical request_json. Parsing
// only — the threads=5000 case must never reach a solve.
TEST(FrontEndParity, FlagsAndWireLinesAcceptAndRejectAlike) {
  struct Case {
    std::vector<std::string> flags;
    std::string members;  ///< the same request as JSON members
  };
  const Case cases[] = {
      {{}, ""},
      {{"--soc", "soc3", "--widths", "16,8,8", "--dmax", "20",
        "--wire-budget", "100", "--pmax", "1500", "--power-mode", "busmax",
        "--ate-depth", "400000", "--solver", "sa", "--threads", "4",
        "--time-limit-ms", "250"},
       R"("soc":"soc3","widths":[16,8,8],"dmax":20,"wire_budget":100,)"
       R"("pmax":1500,"power_mode":"busmax","ate_depth":400000,)"
       R"("solver":"sa","threads":4,"time_limit_ms":250)"},
      {{"--buses", "3", "--width", "48", "--dmax", "0", "--wire-budget", "0",
        "--pmax", "0", "--ate-depth", "1", "--threads", "0",
        "--time-limit-ms", "0"},
       R"("buses":3,"width":48,"dmax":0,"wire_budget":0,"pmax":0,)"
       R"("ate_depth":1,"threads":0,"time_limit_ms":0)"},
      {{"--ate-depth", "0"}, R"("ate_depth":0)"},
      {{"--ate-depth", "-5"}, R"("ate_depth":-5)"},
      {{"--time-limit-ms", "-5"}, R"("time_limit_ms":-5)"},
      {{"--pmax", "nan"}, R"("pmax":nan)"},
      {{"--pmax", "-5"}, R"("pmax":-5)"},
      {{"--dmax", "-5"}, R"("dmax":-5)"},
      {{"--wire-budget", "-5"}, R"("wire_budget":-5)"},
      {{"--threads", "5000"}, R"("threads":5000)"},
      {{"--width", "70000"}, R"("width":70000)"},
      {{"--widths", "70000,8"}, R"("widths":[70000,8])"},
      {{"--frobnicate"}, R"("frobnicate":true)"},
      {{"--buses"}, R"("buses":null)"},
      {{"--buses", "0"}, R"("buses":0)"},
      {{"--buses", "two"}, R"("buses":"two")"},
      {{"--widths", ""}, R"("widths":[])"},
      {{"--widths", "4,,8"}, R"("widths":[4,,8])"},
      {{"--widths", "4,0"}, R"("widths":[4,0])"},
      {{"--width", "2", "--buses", "3"}, R"("width":2,"buses":3)"},
      {{"--pmax", "12x"}, R"("pmax":"12x")"},
      {{"--solver", "magic"}, R"("solver":"magic")"},
      {{"--power-mode", "triple"}, R"("power_mode":"triple")"},
  };
  for (const Case& c : cases) {
    const std::string line = R"({"schema":"soctest-req-v1")" +
                             (c.members.empty() ? "" : "," + c.members) + "}";
    std::optional<CliOptions> cli;
    try {
      cli = parse_cli(c.flags);
    } catch (const std::invalid_argument&) {
    }
    const StatusOr<ServiceRequest> wire = parse_request(line);
    EXPECT_EQ(cli.has_value(), wire.ok())
        << line << " -> "
        << (wire.ok() ? "wire accepts" : wire.status().to_string());
    if (cli && wire.ok()) {
      EXPECT_EQ(request_json(cli->request), request_json(wire.value()))
          << line;
    }
  }
}

TEST(CliParse, ConstraintFlagsSpellOffByOmission) {
  // -1 is the wire's "off"; a flag that is given sets a limit.
  for (const char* flag : {"--dmax", "--wire-budget", "--pmax", "--ate-depth",
                           "--time-limit-ms"}) {
    EXPECT_THROW(parse_cli({flag, "-1"}), std::invalid_argument) << flag;
  }
}

std::string last_ledger_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::string last;
  while (std::getline(in, line)) last = line;
  return last;
}

TEST(FrontEndParity, OverBudgetCoreIsInfeasibleInBothLedgers) {
  // soc1 has a core whose own test power exceeds 1 mW: a structurally
  // infeasible request, answered "infeasible" by both front ends.
  const std::string cli_path = ::testing::TempDir() + "/parity_cli.jsonl";
  const std::string serve_path = ::testing::TempDir() + "/parity_serve.jsonl";
  std::remove(cli_path.c_str());
  std::remove(serve_path.c_str());

  const CliResult r = run_cli(
      parse_cli({"--soc", "soc1", "--pmax", "1", "--ledger", cli_path}));
  EXPECT_EQ(r.exit_code, kExitInfeasible) << r.output;
  {
    ServiceConfig config;
    config.serial = true;
    config.ledger_path = serve_path;
    SolveService service(config);
    std::string response;
    service.submit(R"({"schema":"soctest-req-v1","soc":"soc1","pmax":1})",
                   [&](std::string line) { response = std::move(line); });
    EXPECT_NE(response.find(R"("status":"infeasible")"), std::string::npos)
        << response;
  }

  for (const std::string& path : {cli_path, serve_path}) {
    const auto doc = parse_json(last_ledger_line(path));
    ASSERT_TRUE(doc.has_value()) << path;
    EXPECT_EQ(doc->string_or("status", ""), "infeasible") << path;
    EXPECT_DOUBLE_EQ(doc->number_or("exit_code", -1.0), kExitInfeasible)
        << path;
    EXPECT_EQ(doc->string_or("soc", ""), "soc1") << path;
  }
  std::remove(cli_path.c_str());
  std::remove(serve_path.c_str());
}

}  // namespace
}  // namespace soctest
