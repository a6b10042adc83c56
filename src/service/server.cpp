#include "service/server.hpp"

#include <chrono>
#include <exception>
#include <stdexcept>
#include <utility>

#include "common/parallel.hpp"
#include "obs/ledger.hpp"
#include "obs/obs.hpp"
#include "report/json.hpp"
#include "runtime/deadline.hpp"
#include "soc/builtin.hpp"
#include "soc/soc_format.hpp"
#include "tam/architect.hpp"

namespace soctest {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

StatusOr<Soc> load_request_soc(const ServiceRequest& request) {
  if (!request.soc_text.empty()) {
    return parse_soc_string(request.soc_text,
                            request.id.empty() ? "<inline>" : request.id);
  }
  if (request.soc == "soc1") return builtin_soc1();
  if (request.soc == "soc2") return builtin_soc2();
  if (request.soc == "soc3") return builtin_soc3();
  if (request.soc == "soc4") return builtin_soc4();
  return parse_soc_file(request.soc);
}

/// Best-effort id recovery from a line parse_request rejected, so even the
/// error response for a half-broken request can be matched by the client.
std::string recover_id(const std::string& line) {
  const auto doc = parse_json(line);
  if (doc && doc->is_object()) return doc->string_or("id", "");
  return "";
}

/// Runs the actual design flow for one admitted request. Never throws:
/// every failure becomes an ok=false outcome.
SolveOutcome solve_request(const ServiceRequest& request, const Soc& soc,
                           const CancellationToken* cancel,
                           double effective_time_limit_ms,
                           const ProgressFn& progress) {
  SolveOutcome outcome;
  try {
    DesignRequest design_request;
    design_request.progress = progress;
    design_request.bus_widths = request.widths;
    design_request.num_buses = request.buses;
    design_request.total_width = request.total_width;
    design_request.d_max = request.d_max;
    design_request.wire_budget = request.wire_budget;
    design_request.p_max_mw = request.p_max;
    design_request.power_mode = request.power_mode;
    design_request.ate_depth_limit = request.ate_depth;
    design_request.solver = request.solver;
    design_request.threads = request.threads;
    design_request.cancel = cancel;
    if (effective_time_limit_ms >= 0) {
      design_request.deadline = Deadline::after_ms(effective_time_limit_ms);
    }
    const DesignResult design = design_architecture(soc, design_request);
    if (design.certificate.status == SolveStatus::kError) {
      outcome.error_code = status_code_name(StatusCode::kInternal);
      outcome.error_message = design.certificate.error.empty()
                                  ? "solve failed"
                                  : design.certificate.error;
      return outcome;
    }
    outcome.ok = true;
    outcome.feasible = design.feasible;
    outcome.status = solve_status_name(design.certificate.status);
    outcome.stop = stop_reason_name(design.stop);
    outcome.widths = design.bus_widths;
    outcome.t_cycles =
        design.feasible ? static_cast<long long>(design.assignment.makespan)
                        : -1;
    outcome.lower_bound = design.certificate.lower_bound;
    outcome.gap = design.certificate.gap();
    outcome.solve_mode = search_mode_name(design.search_mode);
  } catch (const std::invalid_argument& e) {
    outcome.ok = false;
    outcome.error_code = status_code_name(StatusCode::kInvalidArgument);
    outcome.error_message = e.what();
  } catch (const std::runtime_error& e) {
    // The architect throws std::runtime_error for structurally infeasible
    // constraint sets — a legitimate (and deterministic) solve answer.
    outcome.ok = true;
    outcome.feasible = false;
    outcome.status = solve_status_name(SolveStatus::kInfeasible);
    outcome.stop = stop_reason_name(StopReason::kNone);
  } catch (const std::exception& e) {
    outcome.ok = false;
    outcome.error_code = status_code_name(StatusCode::kInternal);
    outcome.error_message = e.what();
  }
  return outcome;
}

}  // namespace

struct SolveService::Job {
  ServiceRequest request;
  std::function<void(std::string)> done;
  std::function<void(std::string)> partial;
  Clock::time_point enqueued;
};

SolveService::SolveService(const ServiceConfig& config)
    : config_(config),
      cache_(config.cache_capacity,
             config.cache_shards == 0 ? 1 : config.cache_shards) {
  if (!config_.serial) {
    pool_ = std::make_unique<ThreadPool>(
        static_cast<std::size_t>(resolve_thread_count(config_.workers)));
  }
}

SolveService::~SolveService() { drain(); }

void SolveService::submit(const std::string& line,
                          std::function<void(std::string)> done,
                          std::function<void(std::string)> partial) {
  received_.fetch_add(1, std::memory_order_relaxed);
  obs::counter("service.requests.received").add();
  req_rate_.add();

  StatusOr<ServiceRequest> parsed = parse_request(line);
  if (!parsed.ok()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    obs::counter("service.requests.error").add();
    done(error_response_json(recover_id(line), parsed.status(),
                             /*include_timing=*/!config_.serial));
    return;
  }
  const std::string id = parsed.value().id;

  if (draining()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    obs::counter("service.requests.rejected").add();
    done(rejection_json(id, config_.retry_after_ms, "server draining",
                        parsed.value().trace_id));
    return;
  }

  auto job = std::make_shared<Job>();
  job->request = parsed.take();
  job->done = std::move(done);
  if (job->request.stream) job->partial = std::move(partial);
  job->enqueued = Clock::now();

  if (config_.serial) {
    accepted_.fetch_add(1, std::memory_order_relaxed);
    run_job(job);
    return;
  }

  // Admission control: the queued-or-running count is bounded by
  // queue_capacity; beyond it the request is refused with backpressure
  // advice instead of building unbounded latency.
  const long long depth = in_flight_.fetch_add(1, std::memory_order_acq_rel);
  if (static_cast<std::size_t>(depth) >= config_.queue_capacity) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    rejected_.fetch_add(1, std::memory_order_relaxed);
    obs::counter("service.requests.rejected").add();
    job->done(rejection_json(id, config_.retry_after_ms,
                             "queue full (" +
                                 std::to_string(config_.queue_capacity) +
                                 " jobs in flight)",
                             job->request.trace_id));
    return;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled()) {
    obs::histogram("service.queue.depth")
        .observe(static_cast<double>(depth + 1));
  }
  pool_->post([this, job] {
    run_job(job);
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  });
}

void SolveService::run_job(const std::shared_ptr<Job>& job) {
  const double queue_ms = config_.serial ? 0.0 : ms_since(job->enqueued);
  if (obs::enabled()) {
    obs::histogram("service.queue.wait_ms").observe(queue_ms);
  }
  bool cached = false;
  std::string response;
  {
    obs::Span span("service.request", {{"id", job->request.id},
                                       {"soc", job->request.soc},
                                       {"solver",
                                        inner_solver_name(
                                            job->request.solver)}});
    // Adopt the caller's trace context: this span becomes the worker-side
    // child of the client/frontdoor span named in trace.parent_span.
    stamp_trace(span, job->request, "service.request");
    response = execute(job->request, queue_ms, &cached, job->partial);
    if (span.active()) span.arg({"cached", cached});
  }
  completed_.fetch_add(1, std::memory_order_relaxed);
  job->done(std::move(response));
}

std::string SolveService::execute(
    const ServiceRequest& request, double queue_ms, bool* cached,
    const std::function<void(std::string)>& partial) {
  const auto start = Clock::now();
  ResponseMeta meta;
  meta.id = request.id;
  meta.trace_id = request.trace_id;
  meta.include_timing = !config_.serial;
  meta.queue_ms = queue_ms;

  StatusOr<Soc> loaded = load_request_soc(request);
  if (!loaded.ok()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    obs::counter("service.requests.error").add();
    latency_ms_.observe(ms_since(start));
    return error_response_json(request.id, loaded.status(),
                               meta.include_timing, ms_since(start),
                               request.trace_id);
  }
  const Soc soc = loaded.take();

  const bool use_cache = cacheable_request(request);
  std::string key;
  if (use_cache) {
    key = solve_cache_key(request, soc);
    if (auto hit = cache_.get(key)) {
      obs::counter("service.cache.hits").add();
      meta.cached = true;
      *cached = true;
      meta.wall_ms = ms_since(start);
      latency_ms_.observe(meta.wall_ms);
      append_service_ledger(request, *hit, meta.wall_ms);
      if (hit->ok) {
        obs::counter("service.requests.ok").add();
      }
      return response_json(*hit, meta);
    }
    obs::counter("service.cache.misses").add();
  }

  // Cap the client's budget with the operator's: a server must be able to
  // bound worst-case job occupancy regardless of what clients ask for.
  double limit_ms = request.time_limit_ms;
  if (config_.max_time_limit_ms >= 0 &&
      (limit_ms < 0 || limit_ms > config_.max_time_limit_ms)) {
    limit_ms = config_.max_time_limit_ms;
  }

  // Streaming: translate incumbent improvements into soctest-partial-v1
  // lines. The callback runs on this job's thread, so the sequence state
  // needs no lock; the strictly-better filter here is the protocol's
  // monotonic-gap guarantee (the lower bound is fixed per request, so
  // decreasing t_cycles implies non-increasing gap).
  ProgressFn progress;
  long long partial_seq = 0;
  long long partial_best = -1;
  if (partial && request.stream) {
    progress = [&](const SolveProgress& snapshot) {
      if (snapshot.t_cycles < 0) return;
      if (partial_best >= 0 && snapshot.t_cycles >= partial_best) return;
      partial_best = snapshot.t_cycles;
      PartialRecord record;
      record.id = request.id;
      record.trace_id = request.trace_id;
      record.seq = ++partial_seq;
      record.widths = snapshot.bus_widths;
      record.t_cycles = snapshot.t_cycles;
      record.lower_bound = snapshot.lower_bound;
      record.gap = snapshot.lower_bound > 0
                       ? static_cast<double>(snapshot.t_cycles -
                                             snapshot.lower_bound) /
                             static_cast<double>(snapshot.lower_bound)
                       : -1.0;
      obs::counter("service.stream.partials").add();
      partial(partial_json(record));
    };
  }

  CancellationToken cancel;
  SolveOutcome outcome =
      solve_request(request, soc, &cancel, limit_ms, progress);
  if (outcome.ok) {
    obs::counter("service.requests.ok").add();
  } else {
    errors_.fetch_add(1, std::memory_order_relaxed);
    obs::counter("service.requests.error").add();
  }
  if (use_cache && cacheable_outcome(outcome)) {
    cache_.put(key, std::make_shared<const SolveOutcome>(outcome));
  }
  meta.wall_ms = ms_since(start);
  if (obs::enabled()) {
    obs::histogram("service.solve.wall_ms").observe(meta.wall_ms);
  }
  latency_ms_.observe(meta.wall_ms);
  append_service_ledger(request, outcome, meta.wall_ms);
  return response_json(outcome, meta);
}

void SolveService::append_service_ledger(const ServiceRequest& request,
                                         const SolveOutcome& outcome,
                                         double wall_ms) {
  if (config_.ledger_path.empty()) return;
  obs::LedgerRecord record;
  record.soc = request.soc_text.empty() ? request.soc : "<inline>";
  record.widths = outcome.widths;
  record.solver = inner_solver_name(request.solver);
  record.seed = request.seed;
  record.threads_configured = request.threads;
  record.threads_effective = resolve_thread_count(request.threads);
  record.feasible = outcome.feasible;
  record.status = outcome.ok ? outcome.status : "error";
  record.gap = outcome.gap;
  record.t_cycles = outcome.t_cycles;
  record.solve_mode = outcome.solve_mode;
  record.wall_ms = wall_ms;
  record.trace_id = request.trace_id;
  record.exit_code = outcome.ok ? (outcome.feasible ? 0 : 1) : kExitInternal;
  // Deliberately no counter snapshot: the registry is cumulative across the
  // server's lifetime, so per-request values would be meaningless.
  obs::append_ledger_record(config_.ledger_path, record);
}

void SolveService::drain() {
  draining_.store(true, std::memory_order_release);
  if (pool_) pool_->wait_all();
}

ServiceStats SolveService::stats() const {
  ServiceStats s;
  s.received = received_.load(std::memory_order_relaxed);
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  const ResultCache::Stats cache = cache_.stats();
  s.cache_hits = cache.hits;
  s.cache_misses = cache.misses;
  return s;
}

ServeStatsSnapshot SolveService::stats_snapshot() const {
  ServeStatsSnapshot snap;
  snap.role = "serve";
  const ServiceStats s = stats();
  snap.received = s.received;
  snap.completed = s.completed;
  snap.rejected = s.rejected;
  snap.errors = s.errors;
  snap.cache_hits = s.cache_hits;
  snap.cache_misses = s.cache_misses;
  snap.queue_depth = static_cast<long long>(queue_depth());
  snap.req_rate = req_rate_.rate();
  snap.p50_ms = latency_ms_.percentile(0.50);
  snap.p95_ms = latency_ms_.percentile(0.95);
  snap.uptime_s =
      std::chrono::duration<double>(Clock::now() - started_).count();
  return snap;
}

}  // namespace soctest
