#include "service/protocol.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <map>

#include "common/sharded_cache.hpp"
#include "report/json.hpp"

namespace soctest {

namespace {

/// Integer-valued JSON number that `T` can hold. Fractions are rejected
/// ("widths":[16.5] is a client bug worth a loud error, not a silent
/// truncation), and so are values past T's range (a wrapped 2^32 + 2 must
/// not pass as 2).
template <typename T>
bool as_int(const JsonValue& value, T* out) {
  if (!value.is_number()) return false;
  const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
  const double x = value.number;
  if (x != std::floor(x) || x < -limit || x >= limit) return false;
  *out = static_cast<T>(x);
  return true;
}

constexpr const char* kInteger = "expected an integer";

Status bad_field(const std::string& name, const std::string& why) {
  return invalid_argument_error("request field '" + name + "': " + why);
}

}  // namespace

StatusOr<ServiceRequest> parse_request(const std::string& line) {
  std::string error;
  const auto doc = parse_json(line, &error);
  if (!doc) return parse_error("request is not valid JSON: " + error);
  if (!doc->is_object()) return parse_error("request must be a JSON object");
  const std::string schema = doc->string_or("schema", "");
  if (schema != kRequestSchema) {
    return invalid_argument_error(
        schema.empty() ? "request has no \"schema\" member"
                       : "unsupported request schema '" + schema +
                             "' (this server speaks " + kRequestSchema + ")");
  }

  ServiceRequest request;
  for (const auto& [name, value] : doc->members) {
    if (name == "schema") {
      continue;
    } else if (name == "id") {
      if (!value.is_string()) return bad_field(name, "expected a string");
      request.id = value.text;
    } else if (name == "soc") {
      if (!value.is_string()) return bad_field(name, "expected a string");
      request.soc = value.text;
    } else if (name == "soc_text") {
      if (!value.is_string()) return bad_field(name, "expected a string");
      request.soc_text = value.text;
    } else if (name == "widths") {
      if (!value.is_array()) return bad_field(name, "expected an array");
      if (value.items.empty()) return bad_field(name, "empty list");
      for (const JsonValue& item : value.items) {
        int width = 0;
        if (!as_int(item, &width)) return bad_field(name, "expected integers");
        request.widths.push_back(width);
      }
    } else if (name == "buses") {
      if (!as_int(value, &request.buses)) return bad_field(name, kInteger);
    } else if (name == "width") {
      if (!as_int(value, &request.total_width)) return bad_field(name, kInteger);
    } else if (name == "dmax") {
      if (!as_int(value, &request.d_max)) return bad_field(name, kInteger);
    } else if (name == "wire_budget") {
      if (!as_int(value, &request.wire_budget)) return bad_field(name, kInteger);
    } else if (name == "pmax") {
      if (!value.is_number()) return bad_field(name, "expected a number");
      request.p_max = value.number;
    } else if (name == "power_mode") {
      if (!value.is_string()) return bad_field(name, "expected a string");
      const auto mode = parse_power_mode(value.text);
      if (!mode) return bad_field(name, "expected pairwise or busmax");
      request.power_mode = *mode;
    } else if (name == "ate_depth") {
      if (!as_int(value, &request.ate_depth)) return bad_field(name, kInteger);
    } else if (name == "solver") {
      if (!value.is_string()) return bad_field(name, "expected a string");
      const auto solver = parse_inner_solver(value.text);
      if (!solver) {
        return bad_field(name, "unknown solver '" + value.text + "'");
      }
      request.solver = *solver;
    } else if (name == "seed") {
      long long seed = 0;
      if (!as_int(value, &seed) || seed < 0) {
        return bad_field(name, "expected a non-negative integer");
      }
      request.seed = static_cast<std::uint64_t>(seed);
    } else if (name == "threads") {
      if (!as_int(value, &request.threads)) return bad_field(name, kInteger);
    } else if (name == "time_limit_ms") {
      if (!value.is_number()) return bad_field(name, "expected a number");
      request.time_limit_ms = value.number;
    } else if (name == "no_cache") {
      if (!value.is_bool()) return bad_field(name, "expected a boolean");
      request.no_cache = value.boolean;
    } else if (name == "stream") {
      if (!value.is_bool()) return bad_field(name, "expected a boolean");
      request.stream = value.boolean;
    } else if (name == "trace") {
      if (!value.is_object()) return bad_field(name, "expected an object");
      for (const auto& [tname, tvalue] : value.members) {
        if (tname == "trace_id") {
          if (!tvalue.is_string() || tvalue.text.empty()) {
            return bad_field("trace.trace_id", "expected a non-empty string");
          }
          request.trace_id = tvalue.text;
        } else if (tname == "parent_span") {
          if (!tvalue.is_string()) {
            return bad_field("trace.parent_span", "expected a string");
          }
          request.trace_parent = tvalue.text;
        } else {
          return invalid_argument_error("unknown request field 'trace." +
                                        tname + "'");
        }
      }
      if (request.trace_id.empty()) {
        return bad_field(name, "trace object requires trace_id");
      }
    } else {
      return invalid_argument_error("unknown request field '" + name + "'");
    }
  }
  if (Status st = validate_request(request); !st.ok()) return st;
  return request;
}

namespace {

/// Ok when `value` lies in [min, max], else the range error naming `field`.
Status in_range(const char* field, double value, long long min,
                long long max) {
  if (value >= min && value <= max) return Status::Ok();
  return bad_field(field, "expected an integer in [" + std::to_string(min) +
                              ", " + std::to_string(max) + "]");
}

/// Ok when an optional limit is exactly -1 (off), or finite and at least
/// `min`; else the range error naming `field`.
Status off_or_at_least(const char* field, double value, long long min) {
  if (value == -1.0 || (std::isfinite(value) && value >= min)) {
    return Status::Ok();
  }
  return bad_field(field, "expected -1 (off) or a finite value >= " +
                              std::to_string(min));
}

}  // namespace

Status validate_request(const ServiceRequest& r) {
  if (r.widths.size() > static_cast<std::size_t>(kMaxRequestBuses)) {
    return bad_field("widths", "more than " + std::to_string(kMaxRequestBuses) +
                                   " buses");
  }
  Status st = Status::Ok();
  for (std::size_t i = 0; st.ok() && i < r.widths.size(); ++i) {
    st = in_range("widths", r.widths[i], 1, kMaxRequestWidth);
  }
  if (st.ok()) st = in_range("buses", r.buses, 1, kMaxRequestBuses);
  if (st.ok()) st = in_range("width", r.total_width, 1, kMaxRequestWidth);
  if (st.ok()) st = in_range("threads", r.threads, 0, kMaxRequestThreads);
  if (st.ok()) st = off_or_at_least("dmax", r.d_max, 0);
  if (st.ok()) st = off_or_at_least("wire_budget", double(r.wire_budget), 0);
  if (st.ok()) st = off_or_at_least("pmax", r.p_max, 0);
  if (st.ok()) st = off_or_at_least("ate_depth", double(r.ate_depth), 1);
  if (st.ok()) st = off_or_at_least("time_limit_ms", r.time_limit_ms, 0);
  if (st.ok() && r.widths.empty() && r.total_width < r.buses) {
    st = invalid_argument_error(
        "width must be at least buses (one wire per bus)");
  }
  return st;
}

std::string request_json(const ServiceRequest& request) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value(kRequestSchema);
  if (!request.id.empty()) w.key("id").value(request.id);
  w.key("soc").value(request.soc);
  if (!request.soc_text.empty()) w.key("soc_text").value(request.soc_text);
  if (!request.widths.empty()) {
    w.key("widths").begin_array();
    for (int width : request.widths) w.value(width);
    w.end_array();
  } else {
    w.key("buses").value(request.buses);
    w.key("width").value(request.total_width);
  }
  if (request.d_max >= 0) w.key("dmax").value(request.d_max);
  if (request.wire_budget >= 0) w.key("wire_budget").value(request.wire_budget);
  if (request.p_max >= 0) w.key("pmax").value(request.p_max);
  if (request.power_mode != PowerConstraintMode::kPairwiseSerialization) {
    w.key("power_mode").value(power_mode_name(request.power_mode));
  }
  if (request.ate_depth >= 0) {
    w.key("ate_depth").value(static_cast<long long>(request.ate_depth));
  }
  w.key("solver").value(inner_solver_name(request.solver));
  if (request.seed != 0) {
    w.key("seed").value(static_cast<long long>(request.seed));
  }
  if (request.threads != 1) w.key("threads").value(request.threads);
  if (request.time_limit_ms >= 0) {
    w.key("time_limit_ms").value(request.time_limit_ms);
  }
  if (request.no_cache) w.key("no_cache").value(true);
  if (request.stream) w.key("stream").value(true);
  if (!request.trace_id.empty()) {
    w.key("trace").begin_object();
    w.key("trace_id").value(request.trace_id);
    if (!request.trace_parent.empty()) {
      w.key("parent_span").value(request.trace_parent);
    }
    w.end_object();
  }
  w.end_object();
  return w.str();
}

std::string partial_json(const PartialRecord& partial) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value(kPartialSchema);
  w.key("id").value(partial.id);
  if (!partial.trace_id.empty()) w.key("trace_id").value(partial.trace_id);
  w.key("seq").value(partial.seq);
  w.key("widths").begin_array();
  for (int width : partial.widths) w.value(width);
  w.end_array();
  w.key("t_cycles").value(partial.t_cycles);
  w.key("lower_bound").value(partial.lower_bound);
  w.key("gap").value(partial.gap);
  w.end_object();
  return w.str();
}

ClientBatchSummary summarize_client_batch(
    const std::vector<std::string>& request_lines,
    const std::vector<std::string>& response_lines) {
  ClientBatchSummary summary;
  summary.requests = request_lines.size();

  // Multiset of outstanding request ids. Unparseable request lines still
  // occupy a slot under the id the server would recover for them ("" when
  // nothing is recoverable) — the server answers those with an error
  // response carrying that id.
  std::map<std::string, std::size_t> outstanding;
  for (const std::string& line : request_lines) {
    std::string id;
    if (const auto doc = parse_json(line); doc && doc->is_object()) {
      id = doc->string_or("id", "");
    }
    ++outstanding[id];
  }

  for (const std::string& line : response_lines) {
    const auto doc = parse_json(line);
    if (!doc || !doc->is_object()) continue;
    const std::string schema = doc->string_or("schema", "");
    if (schema == kPartialSchema) {
      ++summary.partials;
      continue;
    }
    if (schema != kResponseSchema) continue;
    ++summary.finals;
    const std::string id = doc->string_or("id", "");
    const auto it = outstanding.find(id);
    if (it != outstanding.end() && it->second > 0) {
      if (--it->second == 0) outstanding.erase(it);
    }
  }

  for (const auto& [id, count] : outstanding) {
    for (std::size_t i = 0; i < count; ++i) summary.missing_ids.push_back(id);
  }
  return summary;
}

namespace {

/// Opens a soctest-resp-v1 object and writes its shared head: schema, id,
/// trace_id (omitted when empty), ok, the error object of a failure, and
/// cached. The caller appends its own tail and closes the object.
void begin_response(JsonWriter& w, const std::string& id,
                    const std::string& trace_id, bool ok,
                    std::string_view error_code,
                    std::string_view error_message, bool cached) {
  w.begin_object();
  w.key("schema").value(kResponseSchema);
  w.key("id").value(id);
  if (!trace_id.empty()) w.key("trace_id").value(trace_id);
  w.key("ok").value(ok);
  if (!ok) {
    w.key("error").begin_object();
    w.key("code").value(error_code);
    w.key("message").value(error_message);
    w.end_object();
  }
  w.key("cached").value(cached);
}

}  // namespace

std::string response_json(const SolveOutcome& outcome,
                          const ResponseMeta& meta) {
  JsonWriter w;
  begin_response(w, meta.id, meta.trace_id, outcome.ok, outcome.error_code,
                 outcome.error_message, meta.cached);
  if (outcome.ok) {
    w.key("feasible").value(outcome.feasible);
    w.key("status").value(outcome.status);
    w.key("stop").value(outcome.stop);
    w.key("widths").begin_array();
    for (int width : outcome.widths) w.value(width);
    w.end_array();
    w.key("t_cycles").value(outcome.t_cycles);
    w.key("lower_bound").value(outcome.lower_bound);
    w.key("gap").value(outcome.gap);
  }
  if (meta.include_timing) {
    w.key("queue_ms").value(meta.queue_ms);
    w.key("wall_ms").value(meta.wall_ms);
  }
  w.end_object();
  return w.str();
}

std::string error_response_json(const std::string& id, const Status& status,
                                bool include_timing, double wall_ms,
                                const std::string& trace_id) {
  JsonWriter w;
  begin_response(w, id, trace_id, false, status_code_name(status.code()),
                 status.message(), false);
  if (include_timing) w.key("wall_ms").value(wall_ms);
  w.end_object();
  return w.str();
}

namespace {

/// Shared shape of ping and pong: {"schema":...,"id":...}.
std::string probe_json(const char* schema, const std::string& id) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value(schema);
  w.key("id").value(id);
  w.end_object();
  return w.str();
}

bool parse_probe(const char* schema, const std::string& line,
                 std::string* id) {
  if (line.find(schema) == std::string::npos) return false;
  const auto doc = parse_json(line);
  if (!doc || !doc->is_object()) return false;
  if (doc->string_or("schema", "") != schema) return false;
  *id = doc->string_or("id", "");
  return true;
}

}  // namespace

std::string ping_json(const std::string& id) {
  return probe_json(kPingSchema, id);
}

std::string pong_json(const std::string& id) {
  return probe_json(kPongSchema, id);
}

bool parse_ping(const std::string& line, std::string* id) {
  return parse_probe(kPingSchema, line, id);
}

bool parse_pong(const std::string& line, std::string* id) {
  return parse_probe(kPongSchema, line, id);
}

std::string oversized_line_response_json() {
  return error_response_json(
      "",
      resource_exhausted_error(
          "request line exceeds the " +
          std::to_string(kMaxProtocolLineBytes) +
          "-byte protocol cap (docs/service.md); bytes up to the next "
          "newline were discarded"),
      /*include_timing=*/false);
}

std::string rejection_json(const std::string& id, double retry_after_ms,
                           const std::string& message,
                           const std::string& trace_id) {
  JsonWriter w;
  begin_response(w, id, trace_id, false,
                 status_code_name(StatusCode::kResourceExhausted), message,
                 false);
  w.key("retry_after_ms").value(retry_after_ms);
  w.end_object();
  return w.str();
}

std::string trace_span_guid(std::string_view trace_id,
                            std::string_view label) {
  std::string key;
  key.reserve(trace_id.size() + 1 + label.size());
  key.append(trace_id);
  key.push_back('/');
  key.append(label);
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fnv1a64(key)));
  return std::string(buf, 16);
}

void stamp_trace(obs::Span& span, const ServiceRequest& request,
                 std::string_view span_name) {
  // The untraced fast path: one empty() check, no Arg construction.
  if (request.trace_id.empty() || !span.active()) return;
  span.arg({"trace_id", request.trace_id});
  span.arg({"span_guid", trace_span_guid(request.trace_id, span_name)});
  if (!request.trace_parent.empty()) {
    span.arg({"parent_guid", request.trace_parent});
  }
}

std::string stats_probe_json(const std::string& id) {
  return probe_json(kStatsSchema, id);
}

bool parse_stats_probe(const std::string& line, std::string* id) {
  if (line.find(kStatsSchema) == std::string::npos) return false;
  const auto doc = parse_json(line);
  if (!doc || !doc->is_object()) return false;
  if (doc->string_or("schema", "") != kStatsSchema) return false;
  // Replies reuse the schema tag; only a reply carries `role`.
  if (doc->find("role") != nullptr) return false;
  *id = doc->string_or("id", "");
  return true;
}

std::string serve_stats_json(const ServeStatsSnapshot& snapshot) {
  const long long lookups = snapshot.cache_hits + snapshot.cache_misses;
  const double hit_rate =
      lookups > 0 ? static_cast<double>(snapshot.cache_hits) /
                        static_cast<double>(lookups)
                  : 0.0;
  JsonWriter w;
  w.begin_object();
  w.key("schema").value(kStatsSchema);
  if (!snapshot.id.empty()) w.key("id").value(snapshot.id);
  w.key("role").value(snapshot.role);
  w.key("cache_hit_rate").value(hit_rate);
  w.key("cache_hits").value(snapshot.cache_hits);
  w.key("cache_misses").value(snapshot.cache_misses);
  w.key("completed").value(snapshot.completed);
  w.key("errors").value(snapshot.errors);
  w.key("p50_ms").value(snapshot.p50_ms);
  w.key("p95_ms").value(snapshot.p95_ms);
  w.key("queue_depth").value(snapshot.queue_depth);
  w.key("received").value(snapshot.received);
  w.key("rejected").value(snapshot.rejected);
  w.key("req_rate").value(snapshot.req_rate);
  w.key("uptime_s").value(snapshot.uptime_s);
  w.key("window_s").value(snapshot.window_s);
  w.end_object();
  return w.str();
}

}  // namespace soctest
