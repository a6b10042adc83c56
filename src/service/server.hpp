#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <string>

#include "common/thread_pool.hpp"
#include "obs/ledger.hpp"
#include "obs/obs.hpp"
#include "service/cache.hpp"
#include "service/protocol.hpp"
#include "tam/architect.hpp"

namespace soctest {

// One solve request from either front end (`soctest` flags or a
// soctest-req-v1 line) runs through the same four steps: load its SOC,
// lower it to a DesignRequest, map the architect's answer to a
// SolveOutcome, and build the ledger record from that outcome.

/// The request's SOC: inline soc_text, else a builtin name (soc1..soc4),
/// else a .soc file path.
StatusOr<Soc> load_request_soc(const ServiceRequest& request);

/// The architect's input for a validated request: widths or the search
/// shape, every constraint, solver and threads. The caller adds cancel,
/// progress and deadline.
DesignRequest design_request_for(const ServiceRequest& request);

/// The answer of a solve that returned. A certificate error is !ok
/// (internal); anything else is ok with the certificate's status.
SolveOutcome solve_outcome(const DesignResult& design);

/// The answer of a solve that threw. std::runtime_error is the architect's
/// structurally infeasible constraint set (unconnectable core, over-budget
/// core power): ok and infeasible. std::invalid_argument is !ok
/// invalid_argument, anything else !ok internal.
SolveOutcome solve_outcome(const std::exception& error);

/// The soctest-ledger-v1 record of one answered request. exit_code is the
/// one the outcome implies (0 feasible, 1 infeasible, internal error);
/// counters are left empty for the caller.
obs::LedgerRecord ledger_record_for(const ServiceRequest& request,
                                    const SolveOutcome& outcome,
                                    double wall_ms);

/// Server knobs (defaults match docs/service.md).
struct ServiceConfig {
  /// Worker threads; 0 = auto (hardware concurrency, SOCTEST_THREADS
  /// override). Ignored in serial mode.
  int workers = 0;
  /// Admission bound: requests beyond this many queued-or-running jobs are
  /// rejected with retry_after_ms backpressure advice instead of queued.
  std::size_t queue_capacity = 64;
  /// Result-cache entry budget (0 disables eviction, not the cache).
  std::size_t cache_capacity = 512;
  std::size_t cache_shards = 8;
  /// Deterministic mode: requests run in arrival order on the caller's
  /// thread and responses omit timing fields, so a fixed request stream
  /// produces a byte-identical response stream (golden tests).
  bool serial = false;
  /// Backpressure advice attached to queue-full rejections.
  double retry_after_ms = 50.0;
  /// Cap applied to per-request time_limit_ms (and the default when a
  /// request has none); < 0 = no cap. Lets an operator bound worst-case
  /// job occupancy no matter what clients ask for.
  double max_time_limit_ms = -1.0;
  /// When non-empty, append one soctest-ledger-v1 record per completed
  /// solve (docs/observability.md; service records carry no counter set —
  /// the registry is cumulative across a server's lifetime).
  std::string ledger_path;
  /// Socket transports reap a connection that has no request in flight,
  /// nothing buffered in either direction, and no bytes read for this long
  /// (half-open peers and byte-dribbling clients must not hold a slot
  /// forever); <= 0 disables. The stdio transport ignores it. Enforced by
  /// serve_unix_socket/serve_tcp, not the service itself.
  double idle_timeout_ms = -1.0;
};

/// Aggregate service state, from the service's own atomics (the obs
/// `service.*` metrics mirror these; this struct is for tools and tests
/// that have no TraceSession live).
struct ServiceStats {
  long long received = 0;   ///< submit() calls
  long long accepted = 0;   ///< admitted into the queue
  long long rejected = 0;   ///< refused by admission control
  long long completed = 0;  ///< responses delivered for accepted jobs
  long long errors = 0;     ///< responses with ok=false (excluding rejections)
  long long cache_hits = 0;
  long long cache_misses = 0;
};

/// The long-running solve service: bounded job queue + worker pool +
/// result cache. Transport-agnostic — transports (stdio, Unix socket; see
/// transport.hpp) feed request lines into submit() and write out whatever
/// the done callback delivers.
///
/// Threading: submit() may be called from any one producer at a time per
/// transport, and from multiple threads concurrently (tests do). The done
/// callback runs on a worker thread (concurrent mode) or on the caller's
/// thread (serial mode, rejections, and malformed requests); it must be
/// thread-safe and is invoked exactly once per submit().
class SolveService {
 public:
  explicit SolveService(const ServiceConfig& config);
  ~SolveService();  ///< drains outstanding jobs

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Parses and either runs/enqueues one request line or responds
  /// immediately (parse error, admission rejection, draining server).
  ///
  /// `partial`, when provided, receives zero or more soctest-partial-v1
  /// lines for a `"stream":true` request — one per improving incumbent,
  /// gap non-increasing — all delivered before the final `done` line and
  /// on the same thread that will run `done`. Non-streaming requests,
  /// cache hits, rejections, and errors never invoke it.
  void submit(const std::string& line, std::function<void(std::string)> done,
              std::function<void(std::string)> partial = nullptr);

  /// Stops admission and blocks until every accepted job has delivered its
  /// response. Idempotent; submit() after drain() responds with a
  /// resource_exhausted "server draining" rejection.
  void drain();
  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  ServiceStats stats() const;
  ResultCache::Stats cache_stats() const { return cache_.stats(); }
  /// The soctest-stats-v1 scrape answer (role "serve"): cumulative
  /// counters plus the sliding-window req/s and latency percentiles.
  /// Lock-cheap — safe to call from the transport poll loop per probe.
  ServeStatsSnapshot stats_snapshot() const;
  const ServiceConfig& config() const { return config_; }

  /// Current queued-or-running job count (the admission-control measure).
  std::size_t queue_depth() const {
    return static_cast<std::size_t>(
        in_flight_.load(std::memory_order_relaxed));
  }

 private:
  struct Job;
  void run_job(const std::shared_ptr<Job>& job);
  /// `queue_ms` is the job's measured wait before a worker picked it up
  /// (0 in serial mode); it is stamped on the response's timing fields.
  std::string execute(const ServiceRequest& request, double queue_ms,
                      bool* cached,
                      const std::function<void(std::string)>& partial);
  void append_service_ledger(const ServiceRequest& request,
                             const SolveOutcome& outcome, double wall_ms);

  ServiceConfig config_;
  ResultCache cache_;
  std::unique_ptr<ThreadPool> pool_;  ///< null in serial mode
  /// Sliding-window telemetry behind stats_snapshot(); direct members (not
  /// registry-interned) because the window is per-service, not global.
  obs::RateCounter req_rate_;
  obs::WindowedHistogram latency_ms_;
  std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();
  std::atomic<bool> draining_{false};
  std::atomic<long long> in_flight_{0};
  std::atomic<long long> received_{0};
  std::atomic<long long> accepted_{0};
  std::atomic<long long> rejected_{0};
  std::atomic<long long> completed_{0};
  std::atomic<long long> errors_{0};
};

}  // namespace soctest
