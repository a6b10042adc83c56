#pragma once

// The benchmark's own traffic generator: one thread multiplexing up to
// `Workload::connections` TCP connections to the front door.
//
// Closed loop: each connection keeps one request outstanding; latency runs
// from the send. Open loop: requests are due on a fixed schedule per ladder
// step and latency runs from the due time, so a stall also charges the
// requests queued behind it; how late the generator sent is recorded too.

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

/// One sent request, indexed by stream position.
struct RequestRecord {
  double due_ms = 0.0;   ///< schedule slot (open) / connection free (closed)
  double sent_ms = 0.0;  ///< when the line was written
  double done_ms = -1.0; ///< first final received; -1 = none
  int finals = 0;        ///< finals received (1 expected)
  int partials = 0;
  bool partials_monotone = true;  ///< t_cycles strictly decreasing
  long long last_partial_t = -1;
  std::string final_line;
};

struct StepResult {
  double rate_rps = 0.0;
  std::size_t first = 0;  ///< first record of the step
  std::size_t count = 0;  ///< records sent in the step
  bool aborted = false;   ///< a worker's backlog hit the cap: sending stopped
  bool passed = false;    ///< not aborted, all ok, p99 within the limit
  double p99_ms = 0.0;
  double completion_rps = 0.0;  ///< ok finals / step span
};

struct LoadResult {
  std::vector<RequestRecord> records;  ///< records[i] = stream position i
  std::vector<StepResult> steps;       ///< open loop only
  double window_s = 0.0;               ///< closed loop: the timed window
  std::size_t warmup = 0;              ///< open loop: records sent as warm-up
  long long unmatched_finals = 0;      ///< finals with an unknown id
  long long transport_errors = 0;      ///< connections lost mid-run
  /// (ms since the run started, cpu_steal_s()) about every 100 ms.
  std::vector<std::pair<double, double>> steal_samples;
};

/// Steal time of all CPUs (the 8th field of /proc/stat's cpu line), in
/// seconds: time the hypervisor ran something else while this VM was ready.
/// A run with a lot of it measured a busy host, not the program.
double cpu_steal_s();

/// Steal seconds between `from_ms` and `to_ms` of the run, from the samples.
double steal_between(const LoadResult& result, double from_ms, double to_ms);

/// Runs `hook` once, when the run's `finals`-th final arrives: a probe taken
/// after a fixed amount of work rather than at a fixed time.
struct Mark {
  std::size_t finals = 0;
  std::function<void()> hook;
};

/// Sends the stream from position 0 for `seconds`, then waits for the
/// outstanding finals. `workers` is the fleet size, for the sharding rule.
LoadResult run_closed_loop(const Workload& workload,
                           const std::string& endpoint, int workers,
                           double seconds, const Mark& mark);

/// Sends Workload::warmup_requests positions closed loop, then runs the
/// ladder steps for `seconds` in total, lowest rate first: the report step
/// for Workload::report_share of it, the others for equal shares of the
/// rest. Stops after the first failed step above the report step.
LoadResult run_open_loop(const Workload& workload, const std::string& endpoint,
                         int workers, double seconds, double p99_limit_ms,
                         const Mark& mark);

/// Latency of a completed record: from the due time (open loop) or the send
/// (closed loop).
double latency_ms(const RequestRecord& record, bool open_loop);

/// Nearest-rank quantile of `values` (copied and sorted).
double quantile(std::vector<double> values, double q);

/// Whether a final response line reports ok=true.
bool final_ok(const std::string& line);

}  // namespace perfbench
