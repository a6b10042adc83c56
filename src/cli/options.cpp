#include "cli/options.hpp"

#include <sstream>
#include <stdexcept>

namespace soctest {

namespace {

[[noreturn]] void fail(const std::string& msg) {
  throw std::invalid_argument(msg + "\n" + cli_usage());
}

int to_int(const std::string& value, const std::string& flag) {
  try {
    std::size_t pos = 0;
    const int v = std::stoi(value, &pos);
    if (pos != value.size()) fail(flag + ": trailing characters in '" + value + "'");
    return v;
  } catch (const std::invalid_argument&) {
    fail(flag + ": expected an integer, got '" + value + "'");
  } catch (const std::out_of_range&) {
    fail(flag + ": value out of range");
  }
}

double to_double(const std::string& value, const std::string& flag) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(value, &pos);
    if (pos != value.size()) fail(flag + ": trailing characters in '" + value + "'");
    return v;
  } catch (const std::invalid_argument&) {
    fail(flag + ": expected a number, got '" + value + "'");
  } catch (const std::out_of_range&) {
    fail(flag + ": value out of range");
  }
}

/// A constraint flag sets its limit; -1 is the request's "off" value, and
/// on the command line "off" is spelled by leaving the flag out.
template <typename T>
T not_off(T limit, const std::string& flag) {
  if (limit == -1) fail(flag + ": -1 means off; omit the flag instead");
  return limit;
}

std::vector<int> to_int_list(const std::string& value, const std::string& flag) {
  std::vector<int> out;
  std::string item;
  std::istringstream in(value);
  while (std::getline(in, item, ',')) {
    if (item.empty()) fail(flag + ": empty element in list");
    out.push_back(to_int(item, flag));
  }
  if (out.empty()) fail(flag + ": empty list");
  return out;
}

}  // namespace

CliOptions parse_cli(const std::vector<std::string>& args) {
  CliOptions options;
  ServiceRequest& request = options.request;
  std::size_t i = 0;
  auto value = [&](const std::string& flag) -> std::string {
    if (i + 1 >= args.size()) fail(flag + " requires a value");
    return args[++i];
  };
  for (; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      options.help = true;
    } else if (arg == "--soc") {
      request.soc = value(arg);
    } else if (arg == "--widths") {
      request.widths = to_int_list(value(arg), arg);
    } else if (arg == "--buses") {
      request.buses = to_int(value(arg), arg);
    } else if (arg == "--width") {
      request.total_width = to_int(value(arg), arg);
    } else if (arg == "--dmax") {
      request.d_max = not_off(to_int(value(arg), arg), arg);
    } else if (arg == "--wire-budget") {
      request.wire_budget = not_off(to_int(value(arg), arg), arg);
    } else if (arg == "--pmax") {
      request.p_max = not_off(to_double(value(arg), arg), arg);
    } else if (arg == "--ate-depth") {
      request.ate_depth = not_off(to_int(value(arg), arg), arg);
    } else if (arg == "--solver") {
      const std::string name = value(arg);
      const auto solver = parse_inner_solver(name);
      if (!solver) fail("--solver: unknown solver '" + name + "'");
      request.solver = *solver;
    } else if (arg == "--threads") {
      request.threads = to_int(value(arg), arg);
    } else if (arg == "--power-mode") {
      const std::string name = value(arg);
      const auto mode = parse_power_mode(name);
      if (!mode) {
        fail("--power-mode: expected pairwise or busmax, got '" + name + "'");
      }
      request.power_mode = *mode;
    } else if (arg == "--gantt") {
      options.gantt = true;
    } else if (arg == "--json") {
      options.json = true;
    } else if (arg == "--svg") {
      options.svg_path = value(arg);
    } else if (arg == "--idle-insertion") {
      options.idle_insertion = true;
    } else if (arg == "--trace") {
      options.trace_path = value(arg);
    } else if (arg == "--trace-chrome") {
      options.trace_chrome_path = value(arg);
    } else if (arg == "--metrics") {
      options.metrics = true;
    } else if (arg == "--profile") {
      options.profile = true;
    } else if (arg == "--profile-top") {
      options.profile_top = to_int(value(arg), arg);
    } else if (arg == "--profile-json") {
      options.profile_json_path = value(arg);
    } else if (arg == "--profile-folded") {
      options.profile_folded_path = value(arg);
    } else if (arg == "--ledger") {
      options.ledger_path = value(arg);
      if (options.ledger_path.empty()) fail("--ledger: empty path");
    } else if (arg == "--time-limit-ms") {
      request.time_limit_ms = not_off(to_double(value(arg), arg), arg);
    } else if (arg == "--failpoints") {
      options.failpoints = value(arg);
      if (options.failpoints.empty()) fail("--failpoints: empty spec");
    } else if (arg == "--client") {
      options.client_socket = value(arg);
      if (options.client_socket.empty()) fail("--client: empty endpoint");
    } else if (arg == "--batch") {
      options.batch_path = value(arg);
      if (options.batch_path.empty()) fail("--batch: empty path");
    } else if (arg == "--stream") {
      request.stream = true;
    } else if (arg == "--retries") {
      options.retries = to_int(value(arg), arg);
      if (options.retries < 0) fail("--retries must be >= 0");
    } else if (arg == "--retry-backoff-ms") {
      options.retry_backoff_ms = to_double(value(arg), arg);
      if (options.retry_backoff_ms < 0) {
        fail("--retry-backoff-ms must be >= 0");
      }
    } else if (arg == "--response-timeout-ms") {
      options.response_timeout_ms = to_double(value(arg), arg);
      if (options.response_timeout_ms <= 0) {
        fail("--response-timeout-ms must be positive");
      }
    } else if (arg == "--trace-sample") {
      options.trace_sample = to_int(value(arg), arg);
      if (options.trace_sample < 0) fail("--trace-sample must be >= 0");
    } else {
      fail("unknown argument '" + arg + "'");
    }
  }
  if (const Status st = validate_request(request); !st.ok()) {
    fail(st.message());
  }
  if (options.idle_insertion && (request.solver == InnerSolver::kPack ||
                                 request.solver == InnerSolver::kPackExact)) {
    fail("--idle-insertion is not supported with --solver pack/pack-exact "
         "(the packing formulation schedules power directly)");
  }
  if (!options.batch_path.empty() && options.client_socket.empty()) {
    fail("--batch requires --client");
  }
  if (request.stream && options.client_socket.empty()) {
    fail("--stream requires --client");
  }
  if (options.client_socket.empty() &&
      (options.retries != 0 || options.retry_backoff_ms != 10.0 ||
       options.response_timeout_ms > 0)) {
    fail("--retries/--retry-backoff-ms/--response-timeout-ms require "
         "--client");
  }
  if (options.trace_sample != 0 && options.client_socket.empty()) {
    fail("--trace-sample requires --client");
  }
  return options;
}

std::string cli_usage() {
  return R"(usage: soctest [options]

SOC selection:
  --soc <name|path>     built-in soc1/soc2/soc3 or a .soc file (default soc1)

Architecture:
  --widths w1,w2,...    explicit bus widths (skips the width search)
  --buses B             number of test buses for the width search (default 2)
  --width W             total TAM width to distribute (default 32)

Constraints:
  --dmax D              max core-to-trunk detour distance (needs placement)
  --wire-budget L       total stub wiring budget (needs placement)
  --pmax P              test power ceiling in mW
  --power-mode M        pairwise (DAC 2000 serialization, exact for B=2) or
                        busmax (bus-max-sum, sound for any B); default pairwise
  --ate-depth D         ATE vector-memory depth per TAM channel (cycles)

Solving:
  --solver S            exact | ilp | greedy | sa | portfolio | pack |
                        pack-exact (default exact); portfolio races
                        greedy/SA/exact concurrently (and, on width
                        searches, the packing formulation) and returns the
                        best result; pack / pack-exact solve the rectangle-
                        packing formulation instead of fixed buses
  --threads N           worker threads for the exact solver's parallel search
                        and the portfolio race; 1 = serial (default), 0 = auto
                        (hardware concurrency, SOCTEST_THREADS override)
  --idle-insertion      meet --pmax by delaying test starts instead of
                        co-assigning conflicting cores
  --gantt               draw the schedule
  --json                emit a machine-readable JSON design report
  --svg FILE            write an SVG floorplan (cores, trunks, stubs);
                        requires a placed SOC

Observability:
  --trace FILE          record solver spans/counters and write a
                        soctest-trace-v1 JSON trace to FILE
  --trace-chrome FILE   also write the trace in Chrome trace_event format
                        (load via chrome://tracing or ui.perfetto.dev)
  --metrics             append run counters/histograms to the output (a table,
                        or a JSON object with --json)
  --profile             append the span-profile table (per-span call count,
                        total/self time, p50/p95) folded from the run's trace
  --profile-top N       row limit of the --profile table (default 20; 0 = all)
  --profile-json FILE   write the full profile as soctest-profile-v1 JSON
  --profile-folded FILE write collapsed stacks ("a;b;c self_us" lines) for
                        flamegraph.pl or speedscope
  --ledger FILE         append one soctest-ledger-v1 JSONL record per solve
                        (soc, widths, solver, threads, certificate, wall ms,
                        pinned counters); SOCTEST_LEDGER sets a default path

Robustness:
  --time-limit-ms T     wall-clock solve budget; the run becomes anytime and
                        reports the best incumbent found in time with a
                        quality certificate (status=... line / JSON fields)
  --failpoints SPEC     arm fault-injection sites, e.g.
                        "tam.exact.node=error:100"; comma-separated
                        site=action[:hit] entries (docs/robustness.md)

Service client (docs/service.md):
  --client ENDPOINT     send the request to a running soctest-serve or
                        soctest-frontdoor (Unix socket path or HOST:PORT)
                        and print the soctest-resp-v1 responses
  --batch FILE          with --client: send FILE's soctest-req-v1 lines
                        verbatim instead of one request built from the flags
                        above ("-" reads stdin)
  --stream              with --client: stream soctest-partial-v1 incumbent
                        lines before the final response
  --retries N           with --client: resend budget per request — reconnect
                        on drops, replay unanswered requests, honor
                        retry_after_ms on rejections (default 0 = fail fast;
                        docs/robustness.md)
  --retry-backoff-ms T  with --client: reconnect backoff base (default 10)
  --response-timeout-ms T
                        with --client: drop + reconnect when responses are
                        outstanding and the server is silent for T ms
  --trace-sample N      with --client: stamp a trace context on every Nth
                        request (1 = all) so the fleet records a
                        client/frontdoor/worker waterfall; combine with
                        --trace FILE to write this process's shard for
                        `soctest-perf trace-merge` (docs/observability.md)
  --help                this text
)";
}

}  // namespace soctest
