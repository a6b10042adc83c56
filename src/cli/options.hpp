#pragma once

#include <string>
#include <vector>

#include "service/protocol.hpp"

namespace soctest {

/// Parsed command line of the `soctest` tool.
struct CliOptions {
  bool help = false;
  /// The solve: --soc, --widths or --buses/--width, the constraint flags,
  /// --solver, --threads, --time-limit-ms and (client mode) --stream. It is
  /// the request a client sends (docs/service.md) and passes the same
  /// validate_request; in client mode it goes out as request_json.
  ServiceRequest request;
  bool gantt = false;
  bool idle_insertion = false;
  /// Emit a machine-readable JSON design report instead of the text report.
  bool json = false;
  /// When non-empty, write an SVG floorplan (die, cores, trunks, stubs) to
  /// this path. Requires a placed SOC.
  std::string svg_path;
  /// When non-empty, record a trace of the run and write it to this path in
  /// the soctest-trace-v1 JSON format (--trace).
  std::string trace_path;
  /// When non-empty, also write the trace in Chrome trace_event format for
  /// chrome://tracing / Perfetto (--trace-chrome).
  std::string trace_chrome_path;
  /// Collect solver counters/histograms and append them to the output
  /// (--metrics). Implied collection also happens whenever tracing is on.
  bool metrics = false;
  /// Append the span-profile table (per-span-name count/total/self/
  /// percentiles, folded from the run's trace) to the output (--profile).
  bool profile = false;
  /// Row limit of the --profile table (--profile-top N; <= 0 shows all).
  int profile_top = 20;
  /// When non-empty, write the full profile as soctest-profile-v1 JSON to
  /// this path (--profile-json).
  std::string profile_json_path;
  /// When non-empty, write the collapsed-stack export (flamegraph.pl /
  /// speedscope format) to this path (--profile-folded).
  std::string profile_folded_path;
  /// When non-empty, append one soctest-ledger-v1 JSONL record describing
  /// this solve to the file (--ledger; SOCTEST_LEDGER is the env fallback).
  std::string ledger_path;
  /// Fault-injection spec (--failpoints "site=action[:hit],..."); empty means
  /// no faults armed. See docs/robustness.md for the site catalog.
  std::string failpoints;
  /// Client mode (--client ENDPOINT): send the request to a running
  /// soctest-serve or soctest-frontdoor — ENDPOINT is a Unix socket path
  /// or HOST:PORT — instead of solving in-process, and print the response
  /// lines (docs/service.md).
  std::string client_socket;
  /// Batch file of soctest-req-v1 lines to send in client mode (--batch
  /// FILE; "-" reads stdin). Without it, client mode sends one request
  /// built from the solve flags above.
  std::string batch_path;
  /// Client mode: per-request retry budget beyond the first attempt
  /// (--retries N). 0 keeps the old fail-fast behavior; with retries the
  /// client reconnects on drops, replays unanswered requests, and honors
  /// retry_after_ms on rejections (docs/robustness.md).
  int retries = 0;
  /// Client mode: base of the exponential reconnect backoff
  /// (--retry-backoff-ms; docs/robustness.md has the formula).
  double retry_backoff_ms = 10.0;
  /// Client mode: silence watchdog — drop and re-establish the connection
  /// when responses are outstanding and the server has been quiet this
  /// long (--response-timeout-ms; <= 0 disables).
  double response_timeout_ms = -1.0;
  /// Client mode: stamp a distributed-trace context (trace object with a
  /// deterministic trace_id) on every Nth request (--trace-sample N; 1 =
  /// every request, 0 = off). Combine with --trace to write this process's
  /// soctest-trace-v1 shard for `soctest-perf trace-merge`.
  int trace_sample = 0;
};

/// Parses argv-style arguments (without argv[0]). Throws
/// std::invalid_argument with a user-facing message on malformed input.
CliOptions parse_cli(const std::vector<std::string>& args);

/// The --help text.
std::string cli_usage();

}  // namespace soctest
