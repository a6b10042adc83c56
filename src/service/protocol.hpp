#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"
#include "runtime/status.hpp"
#include "tam/tam_problem.hpp"
#include "tam/width_partition.hpp"

namespace soctest {

// Versioned JSON-lines solve protocol (docs/service.md):
//   request  = one "soctest-req-v1" JSON object per line
//   response = one "soctest-resp-v1" JSON object per line
//   partial  = zero or more "soctest-partial-v1" JSON objects per
//              streaming request, before its final response
// Responses carry the request's `id`, so a pipelined client can match them
// even when a concurrent server completes jobs out of order. The serial
// (deterministic) server mode additionally preserves request order and
// omits timing fields, making response streams byte-identical across runs.
//
// Streaming: a request with `"stream":true` opts into partial records —
// one per improving incumbent the anytime solver finds, gap monotonically
// non-increasing, always terminated by the ordinary final response on the
// same connection. Clients that never set `stream` never see a partial, so
// strict non-streaming parsers keep working unchanged.

inline constexpr const char* kRequestSchema = "soctest-req-v1";
inline constexpr const char* kResponseSchema = "soctest-resp-v1";
inline constexpr const char* kPartialSchema = "soctest-partial-v1";
inline constexpr const char* kPingSchema = "soctest-ping-v1";
inline constexpr const char* kPongSchema = "soctest-pong-v1";
inline constexpr const char* kStatsSchema = "soctest-stats-v1";

/// Hard cap on one protocol line, enforced by every poll-based line reader
/// (server transport, front door, clients). Sized to hold a request whose
/// soc_text is at the .soc parser's own 16 MiB input cap even after JSON
/// escaping doubles it; anything longer is a broken or hostile peer, and a
/// newline-less byte stream must never grow a read buffer without bound.
/// Readers answer one structured resource_exhausted error per oversized
/// line and discard bytes until the next newline resynchronizes the stream.
inline constexpr std::size_t kMaxProtocolLineBytes = 32u << 20;

/// Sanity bounds on request fields, enforced by validate_request. They exist
/// for robustness, not modeling: a fuzzer (or a hostile client) can write
/// "width": 99999999 and the per-width staircase tables would try to
/// allocate it. Real designs sit orders of magnitude below these.
inline constexpr long long kMaxRequestWidth = 1 << 16;
inline constexpr int kMaxRequestBuses = 4096;
inline constexpr int kMaxRequestThreads = 4096;

/// One parsed solve request. Defaults mirror the CLI's: a request only
/// states what it wants to override.
struct ServiceRequest {
  std::string id;
  /// Builtin name (soc1..soc4) or a .soc file path, like `soctest --soc`.
  std::string soc = "soc1";
  /// Inline .soc source; when non-empty it overrides `soc` (the server
  /// never touches the filesystem for such requests).
  std::string soc_text;
  std::vector<int> widths;  ///< explicit bus widths (skips width search)
  int buses = 2;
  int total_width = 32;
  int d_max = -1;
  long long wire_budget = -1;
  double p_max = -1.0;
  PowerConstraintMode power_mode = PowerConstraintMode::kPairwiseSerialization;
  long long ate_depth = -1;
  InnerSolver solver = InnerSolver::kExact;
  /// Sweep-point seed: not interpreted by the solve (concrete SOCs are
  /// seedless) but part of the cache key and the ledger record, so synthetic
  /// sweeps that regenerate SOCs per seed never alias cache entries.
  std::uint64_t seed = 0;
  int threads = 1;
  /// Per-request wall-clock budget; < 0 means unlimited. Deadline-limited
  /// results are anytime (timing-dependent) and therefore bypass the cache.
  double time_limit_ms = -1.0;
  bool no_cache = false;  ///< skip cache lookup AND fill for this request
  /// Opt into soctest-partial-v1 incumbent streaming for this request.
  /// Delivery-only: it never affects the solve or the cache key (a cache
  /// hit simply answers with the final response and no partials).
  bool stream = false;
  /// Distributed-trace context from the optional `trace` request object
  /// (docs/observability.md). `trace_id` groups spans recorded in different
  /// processes; `trace_parent` is the hex span guid (see trace_span_guid)
  /// of the caller's span, adopted as `parent_guid` by the worker's
  /// service.request span. Both empty = untraced request; like `stream`,
  /// delivery-only — never part of the solve or the cache key.
  std::string trace_id;
  std::string trace_parent;
};

/// Parses one request line. Unknown members are rejected (they are most
/// likely typos of a knob the caller believes it set); a malformed line is
/// a kParseError, a structurally valid object with bad field values is a
/// kInvalidArgument. Field types are checked here, ranges by
/// validate_request. Never throws.
StatusOr<ServiceRequest> parse_request(const std::string& line);

/// The one range check of a solve request, shared by parse_request and the
/// CLI's parse_cli (docs/service.md). An optional constraint (dmax,
/// wire_budget, pmax, ate_depth, time_limit_ms) is exactly -1 (off) or in
/// range: dmax, wire_budget >= 0; pmax, time_limit_ms finite and >= 0;
/// ate_depth >= 1. widths lie in [1, kMaxRequestWidth], at most
/// kMaxRequestBuses of them; buses in [1, kMaxRequestBuses]; width in
/// [1, kMaxRequestWidth] and, when searching, at least buses; threads in
/// [0, kMaxRequestThreads]. A failure is kInvalidArgument naming the field.
Status validate_request(const ServiceRequest& request);

/// The request back as its canonical soctest-req-v1 line (used by the CLI
/// client to build requests from flags).
std::string request_json(const ServiceRequest& request);

/// The cacheable part of a solve response: everything except per-delivery
/// fields (id, cached, timing). This is the value the result cache stores.
struct SolveOutcome {
  bool ok = false;            ///< false = the solve itself failed
  std::string error_code;     ///< status_code_name() when !ok
  std::string error_message;  ///< human-readable detail when !ok
  bool feasible = false;
  std::string status;  ///< solve_status_name() of the certificate
  std::string stop;    ///< stop_reason_name() of the certificate
  std::vector<int> widths;
  long long t_cycles = -1;
  long long lower_bound = -1;
  double gap = -1.0;
  /// search_mode_name() of the winning solve; feeds the ledger record only
  /// (not the response line, whose key set is pinned by the protocol).
  std::string solve_mode = "-";
};

/// Per-delivery envelope around an outcome.
struct ResponseMeta {
  std::string id;
  /// Echoed request trace_id (empty = untraced request, field omitted) so
  /// clients and ledgers can attribute a response without keeping their own
  /// id→trace map across retries.
  std::string trace_id;
  bool cached = false;
  /// Timing fields are omitted when include_timing is false (serial mode's
  /// determinism contract).
  bool include_timing = true;
  double queue_ms = 0.0;
  double wall_ms = 0.0;
};

/// Serializes a completed solve as one soctest-resp-v1 line (no newline).
std::string response_json(const SolveOutcome& outcome,
                          const ResponseMeta& meta);

/// Serializes a request-level failure (malformed line, bad field, server
/// error) as one soctest-resp-v1 line with ok=false and an error object.
/// `trace_id`, when non-empty, is echoed like response_json does.
std::string error_response_json(const std::string& id, const Status& status,
                                bool include_timing = true,
                                double wall_ms = 0.0,
                                const std::string& trace_id = "");

/// Serializes an admission-control rejection: ok=false, error code
/// resource_exhausted, plus retry_after_ms backpressure advice.
std::string rejection_json(const std::string& id, double retry_after_ms,
                           const std::string& message,
                           const std::string& trace_id = "");

/// Liveness probe: a soctest-ping-v1 line is answered with a matching
/// soctest-pong-v1 line by the transport layer itself — never queued behind
/// solve jobs, so a responsive poll loop answers even when every worker
/// thread is busy. The front door answers client pings authoritatively and
/// uses pings on its own health links to detect hung (not crashed) workers.
std::string ping_json(const std::string& id);
std::string pong_json(const std::string& id);

/// True iff `line` is a soctest-ping-v1 request; fills `*id` (may be empty).
/// Cheap on non-ping traffic: a substring probe gates the JSON parse.
bool parse_ping(const std::string& line, std::string* id);

/// True iff `line` is a soctest-pong-v1 reply; fills `*id`.
bool parse_pong(const std::string& line, std::string* id);

/// The structured error a reader sends for a line that exceeded
/// kMaxProtocolLineBytes (resource_exhausted; no timing fields, so serial
/// streams stay deterministic). The offender's id is unknowable — the line
/// was discarded unparsed — so the id is empty.
std::string oversized_line_response_json();

/// One streamed incumbent improvement (soctest-partial-v1). `seq` starts
/// at 1 and increments per partial of the same request; `t_cycles` is
/// strictly decreasing and `gap` non-increasing across a request's
/// partials (the emitter enforces it). No timing fields: partial streams
/// from a serial server stay byte-identical across runs.
struct PartialRecord {
  std::string id;
  std::string trace_id;  ///< echoed request trace_id; empty = omitted
  long long seq = 1;
  std::vector<int> widths;
  long long t_cycles = -1;
  long long lower_bound = -1;  ///< -1 when no useful bound exists
  double gap = -1.0;           ///< (t - lb) / lb, or -1 without a bound
};

/// Serializes one partial as a soctest-partial-v1 line (no newline).
std::string partial_json(const PartialRecord& partial);

/// What a pipelined client saw, summarized for the "did every request get
/// answered" check. Final responses are matched to request ids as a
/// multiset (duplicate ids allowed, arbitrary response order); partial
/// records are counted but never consume a request slot.
struct ClientBatchSummary {
  std::size_t requests = 0;
  std::size_t finals = 0;    ///< soctest-resp-v1 lines seen
  std::size_t partials = 0;  ///< soctest-partial-v1 lines seen
  /// Request ids (one entry per unanswered request) with no matching final.
  std::vector<std::string> missing_ids;
};

ClientBatchSummary summarize_client_batch(
    const std::vector<std::string>& request_lines,
    const std::vector<std::string>& response_lines);

// ---------------------------------------------------------------------------
// Distributed-trace span linkage (docs/observability.md).
//
// Cross-process span links are content-derived hex-string guids, not the
// sink's integer span ids: integer ids restart at 1 in every process, and
// JSON numbers travel through a double-backed parser that cannot hold a
// random 64-bit id exactly. A span's guid is trace_span_guid(trace_id,
// label); both ends of a parent/child edge can compute it independently,
// so the frontdoor can name the worker span it is about to cause without a
// round trip. Spans carry the links as string args (`trace_id`,
// `span_guid`, `parent_guid`); `soctest-perf trace-merge` joins
// parent_guid -> span_guid across shards.

/// 16-lowercase-hex-char guid for the span `label` of trace `trace_id`
/// (fnv1a64 of "trace_id/label").
std::string trace_span_guid(std::string_view trace_id, std::string_view label);

/// Attaches the cross-process link args to a live span: `trace_id`,
/// `span_guid` = trace_span_guid(trace_id, span_name), and `parent_guid`
/// from the request's parent_span when present. A no-op — zero allocations,
/// zero Arg construction — when the request is untraced or the span is not
/// recording, which is what keeps tracing free on the untraced hot path.
void stamp_trace(obs::Span& span, const ServiceRequest& request,
                 std::string_view span_name);

// ---------------------------------------------------------------------------
// Live fleet scraping (soctest-stats-v1, docs/service.md).
//
// A stats probe is answered by the serve/frontdoor poll loops without
// queueing, exactly like ping/pong; the reply reuses the same schema tag
// and is told apart by its `role` member (a probe has none). The frontdoor
// fans the probe to every worker and returns one merged reply whose
// `shards` array holds each worker's own reply (plus `shard`, or
// `{"shard":k,"broken":true}` for a dead shard).

/// Every member name that may appear in a soctest-stats-v1 reply (probe
/// members included), name-sorted. This is the scrape contract: check_docs
/// diffs it bidirectionally against the field catalog in docs/service.md,
/// and soctest-top renders from it.
inline constexpr const char* kStatsFields[] = {
    "broken",      "cache_hit_rate", "cache_hits", "cache_misses",
    "completed",   "errors",         "hung",       "id",
    "p50_ms",      "p95_ms",         "queue_depth", "received",
    "rejected",    "req_rate",       "restarts",   "role",
    "schema",      "shard",          "shards",     "uptime_s",
    "window_s",    "workers",
};

/// One process's scrape answer. Counters are cumulative since process
/// start; req_rate/p50_ms/p95_ms are computed over the trailing
/// `window_s`-second sliding window (obs::RateCounter /
/// obs::WindowedHistogram).
struct ServeStatsSnapshot {
  std::string id;    ///< echoed probe id (may be empty)
  std::string role;  ///< "serve" or "frontdoor"
  long long received = 0;
  long long completed = 0;
  long long rejected = 0;
  long long errors = 0;
  long long cache_hits = 0;
  long long cache_misses = 0;
  long long queue_depth = 0;
  double req_rate = 0.0;  ///< requests/second over the window
  double p50_ms = 0.0;    ///< windowed solve-latency percentiles
  double p95_ms = 0.0;
  double uptime_s = 0.0;
  int window_s = 60;
};

/// The probe line: {"schema":"soctest-stats-v1"} plus the echo id.
std::string stats_probe_json(const std::string& id);

/// True iff `line` is a stats *probe* (schema matches and there is no
/// `role` member — replies reuse the schema tag); fills `*id`. Cheap on
/// non-probe traffic: a substring probe gates the JSON parse.
bool parse_stats_probe(const std::string& line, std::string* id);

/// Serializes one process's reply (keys: schema, id when non-empty, role,
/// then the numeric fields name-sorted — the same contract as the CLI
/// metrics dump). cache_hit_rate is derived: hits / (hits + misses), 0
/// when the cache has seen nothing.
std::string serve_stats_json(const ServeStatsSnapshot& snapshot);

}  // namespace soctest
