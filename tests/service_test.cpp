#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/sharded_cache.hpp"
#include "obs/obs.hpp"
#include "report/json.hpp"
#include "service/cache.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "soc/builtin.hpp"
#include "tam/timing.hpp"

namespace soctest {
namespace {

// The solve service (docs/service.md): request parsing, result cache,
// admission control, deterministic serial mode, and graceful drain.

std::string req(const std::string& body) {
  return "{\"schema\":\"soctest-req-v1\"," + body + "}";
}

/// Runs one line through a service synchronously and returns the response.
std::string roundtrip(SolveService& service, const std::string& line) {
  std::string response;
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  service.submit(line, [&](std::string r) {
    std::lock_guard<std::mutex> lock(mu);
    response = std::move(r);
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  return response;
}

ServiceConfig serial_config() {
  ServiceConfig config;
  config.serial = true;
  return config;
}

// ------------------------------------------------------------- protocol --

TEST(ServiceProtocol, RequestRoundTripsThroughItsJson) {
  ServiceRequest request;
  request.id = "rt-1";
  request.soc = "soc2";
  request.widths = {16, 8, 8};
  request.d_max = 12;
  request.wire_budget = 400;
  request.p_max = 1800.0;
  request.power_mode = PowerConstraintMode::kBusMaxSum;
  request.ate_depth = 100000;
  request.solver = InnerSolver::kGreedy;
  request.seed = 42;
  request.threads = 2;
  request.time_limit_ms = 250.0;
  request.no_cache = true;

  StatusOr<ServiceRequest> parsed = parse_request(request_json(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const ServiceRequest& back = parsed.value();
  EXPECT_EQ(back.id, request.id);
  EXPECT_EQ(back.soc, request.soc);
  EXPECT_EQ(back.widths, request.widths);
  EXPECT_EQ(back.d_max, request.d_max);
  EXPECT_EQ(back.wire_budget, request.wire_budget);
  EXPECT_EQ(back.p_max, request.p_max);
  EXPECT_EQ(back.power_mode, request.power_mode);
  EXPECT_EQ(back.ate_depth, request.ate_depth);
  EXPECT_EQ(back.solver, request.solver);
  EXPECT_EQ(back.seed, request.seed);
  EXPECT_EQ(back.threads, request.threads);
  EXPECT_EQ(back.time_limit_ms, request.time_limit_ms);
  EXPECT_EQ(back.no_cache, request.no_cache);
}

TEST(ServiceProtocol, TraceContextRoundTripsAndStampsSpanLinks) {
  ServiceRequest request;
  request.id = "tr-1";
  request.soc = "soc1";
  request.trace_id = "cafef00dcafef00d";
  request.trace_parent = trace_span_guid(request.trace_id, "client.request");

  const std::string line = request_json(request);
  StatusOr<ServiceRequest> parsed = parse_request(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().trace_id, request.trace_id);
  EXPECT_EQ(parsed.value().trace_parent, request.trace_parent);

  // Untraced requests omit the object entirely — the wire stays identical
  // to the pre-trace protocol.
  ServiceRequest untraced;
  untraced.id = "tr-2";
  EXPECT_EQ(request_json(untraced).find("trace"), std::string::npos);

  // The guid is a pure function of (trace_id, label): 16 lowercase hex
  // chars, stable across processes, distinct per label.
  const std::string guid = trace_span_guid("cafef00dcafef00d", "service.request");
  EXPECT_EQ(guid.size(), 16u);
  EXPECT_EQ(guid.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_EQ(guid, trace_span_guid("cafef00dcafef00d", "service.request"));
  EXPECT_NE(guid, trace_span_guid("cafef00dcafef00d", "frontdoor.relay"));

  // stamp_trace attaches the cross-process link args to a live span.
  obs::TraceSink sink;
  {
    obs::TraceSession session(&sink);
    obs::Span span("service.request");
    stamp_trace(span, request, "service.request");
  }
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 1u);
  const auto& args = events[0].args;
  ASSERT_EQ(args.size(), 3u);
  EXPECT_EQ(args[0].key, "trace_id");
  EXPECT_EQ(args[0].text, request.trace_id);
  EXPECT_EQ(args[1].key, "span_guid");
  EXPECT_EQ(args[1].text, trace_span_guid(request.trace_id, "service.request"));
  EXPECT_EQ(args[2].key, "parent_guid");
  EXPECT_EQ(args[2].text, request.trace_parent);
}

TEST(ServiceProtocol, StatsProbeParsesAndReplyIsNameSorted) {
  const std::string probe = stats_probe_json("top-1");
  std::string id;
  EXPECT_TRUE(parse_stats_probe(probe, &id));
  EXPECT_EQ(id, "top-1");
  // Requests and replies are not probes.
  EXPECT_FALSE(parse_stats_probe(req("\"id\":\"x\""), &id));

  ServeStatsSnapshot snapshot;
  snapshot.id = "top-1";
  snapshot.role = "serve";
  snapshot.received = 10;
  snapshot.completed = 8;
  snapshot.cache_hits = 3;
  snapshot.cache_misses = 5;
  const std::string reply = serve_stats_json(snapshot);
  // A reply has a role member, so it must not parse as a probe (the serve
  // loop would otherwise answer its own replies).
  EXPECT_FALSE(parse_stats_probe(reply, &id));

  const auto doc = parse_json(reply);
  ASSERT_TRUE(doc.has_value()) << reply;
  EXPECT_EQ(doc->string_or("schema", ""), std::string(kStatsSchema));
  EXPECT_DOUBLE_EQ(doc->number_or("cache_hit_rate", -1.0), 3.0 / 8.0);
  // Every emitted key is in the documented soctest-stats-v1 catalog, and
  // the keys after schema/id/role are name-sorted like every other stats
  // surface.
  std::vector<std::string> keys;
  for (const auto& [name, value] : doc->members) {
    EXPECT_NE(std::find(std::begin(kStatsFields), std::end(kStatsFields),
                        name),
              std::end(kStatsFields))
        << name << " missing from kStatsFields";
    if (name != "schema" && name != "id" && name != "role") {
      keys.push_back(name);
    }
  }
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end())) << reply;
}

TEST(ServiceProtocol, RejectsMalformedAndInvalidLines) {
  // Not JSON at all.
  EXPECT_FALSE(parse_request("{nope").ok());
  EXPECT_EQ(parse_request("{nope").status().code(), StatusCode::kParseError);
  // Valid JSON, wrong shape.
  EXPECT_FALSE(parse_request("[1,2]").ok());
  // Missing schema.
  EXPECT_FALSE(parse_request("{\"id\":\"x\"}").ok());
  // Wrong schema version.
  EXPECT_FALSE(parse_request("{\"schema\":\"soctest-req-v0\"}").ok());
  // Unknown member (likely a typo of a real knob).
  EXPECT_FALSE(parse_request(req("\"widht\":[8]")).ok());
  // Bad field values.
  EXPECT_FALSE(parse_request(req("\"widths\":[0]")).ok());
  EXPECT_FALSE(parse_request(req("\"widths\":[8.5]")).ok());
  EXPECT_FALSE(parse_request(req("\"solver\":\"magic\"")).ok());
  EXPECT_FALSE(parse_request(req("\"solver\":3")).ok());
  EXPECT_FALSE(parse_request(req("\"buses\":4,\"width\":2")).ok());
}

TEST(ServiceProtocol, MalformedLineGetsStructuredErrorResponse) {
  SolveService service(serial_config());
  const std::string response = roundtrip(service, "{\"schema\":");
  const auto doc = parse_json(response);
  ASSERT_TRUE(doc.has_value()) << response;
  EXPECT_EQ(doc->string_or("schema", ""), "soctest-resp-v1");
  const JsonValue* ok = doc->find("ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_FALSE(ok->boolean);
  const JsonValue* error = doc->find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->string_or("code", ""), "parse_error");
  EXPECT_FALSE(error->string_or("message", "").empty());
}

TEST(ServiceProtocol, ErrorResponseRecoversRequestId) {
  SolveService service(serial_config());
  // The line parses as JSON but fails request validation; its id must
  // still come back so the client can match the failure.
  const std::string response =
      roundtrip(service, req("\"id\":\"bad-7\",\"widths\":[]"));
  const auto doc = parse_json(response);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->string_or("id", ""), "bad-7");
  EXPECT_EQ(doc->find("error")->string_or("code", ""), "invalid_argument");
}

// ---------------------------------------------------------------- cache --

TEST(ServiceCache, KeyIsContentAddressedNotNameAddressed) {
  ServiceRequest request;
  request.widths = {16, 8};
  const Soc soc1 = builtin_soc1();
  const Soc soc2 = builtin_soc2();
  EXPECT_EQ(solve_cache_key(request, soc1), solve_cache_key(request, soc1));
  EXPECT_NE(solve_cache_key(request, soc1), solve_cache_key(request, soc2));

  ServiceRequest other = request;
  other.seed = 1;
  EXPECT_NE(solve_cache_key(request, soc1), solve_cache_key(other, soc1));
  other = request;
  other.solver = InnerSolver::kGreedy;
  EXPECT_NE(solve_cache_key(request, soc1), solve_cache_key(other, soc1));
  other = request;
  other.p_max = 1500.0;
  EXPECT_NE(solve_cache_key(request, soc1), solve_cache_key(other, soc1));

  // The id and thread count are delivery details, not solve inputs.
  other = request;
  other.id = "different";
  other.threads = 8;
  EXPECT_EQ(solve_cache_key(request, soc1), solve_cache_key(other, soc1));
}

TEST(ServiceCache, DeadlineLimitedRequestsBypassTheCache) {
  ServiceRequest request;
  EXPECT_TRUE(cacheable_request(request));
  request.time_limit_ms = 100.0;
  EXPECT_FALSE(cacheable_request(request));
  request.time_limit_ms = -1.0;
  request.no_cache = true;
  EXPECT_FALSE(cacheable_request(request));

  SolveOutcome outcome;
  outcome.ok = true;
  outcome.stop = "none";
  EXPECT_TRUE(cacheable_outcome(outcome));
  outcome.stop = "deadline";
  EXPECT_FALSE(cacheable_outcome(outcome));
  outcome.stop = "none";
  outcome.ok = false;
  EXPECT_FALSE(cacheable_outcome(outcome));
}

TEST(ServiceCache, HitReturnsIdenticalCertificateToColdSolve) {
  SolveService service(serial_config());
  const std::string line = req("\"id\":\"c1\",\"widths\":[16,8,8]");
  const std::string cold = roundtrip(service, line);
  const std::string warm = roundtrip(service, line);
  EXPECT_EQ(service.cache_stats().hits, 1);
  EXPECT_EQ(service.cache_stats().misses, 1);

  const auto cold_doc = parse_json(cold);
  const auto warm_doc = parse_json(warm);
  ASSERT_TRUE(cold_doc && warm_doc);
  EXPECT_FALSE(cold_doc->find("cached")->boolean);
  EXPECT_TRUE(warm_doc->find("cached")->boolean);
  // Everything but the cached flag is identical: same certificate, same
  // widths, same makespan (serial mode omits timing, so compare text).
  for (const char* key : {"status", "stop"}) {
    EXPECT_EQ(cold_doc->string_or(key, "?"), warm_doc->string_or(key, "!"));
  }
  for (const char* key : {"t_cycles", "lower_bound", "gap"}) {
    EXPECT_EQ(cold_doc->number_or(key, -2), warm_doc->number_or(key, -3));
  }
}

TEST(ServiceCache, ShardedLruEvictsLeastRecentlyUsed) {
  ShardedLruCache<int> cache(/*capacity=*/2, /*num_shards=*/1);
  cache.put("a", std::make_shared<const int>(1));
  cache.put("b", std::make_shared<const int>(2));
  ASSERT_NE(cache.get("a"), nullptr);  // refresh "a"
  cache.put("c", std::make_shared<const int>(3));
  EXPECT_EQ(cache.get("b"), nullptr);  // "b" was the LRU entry
  EXPECT_NE(cache.get("a"), nullptr);
  EXPECT_NE(cache.get("c"), nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.size, 2);
}

TEST(ServiceCache, EvictionNeverInvalidatesHeldPointers) {
  ShardedLruCache<std::string> cache(/*capacity=*/1, /*num_shards=*/1);
  auto held = cache.get_or_create("x", [] { return std::string("payload"); });
  cache.put("y", std::make_shared<const std::string>("evicts x"));
  EXPECT_EQ(cache.get("x"), nullptr);
  EXPECT_EQ(*held, "payload");  // still alive via shared ownership
}

// ------------------------------------------------------- timing memo -----

TEST(ServiceCache, TimingMemoSharesOneTablePerKey) {
  const Soc soc = builtin_soc1();
  const TestTimeTable& a = cached_test_time_table(soc, 16);
  const TestTimeTable& b = cached_test_time_table(soc, 16);
  EXPECT_EQ(&a, &b);  // unbounded memo pins entries for process lifetime
  const TestTimeTable& c = cached_test_time_table(soc, 24);
  EXPECT_NE(&a, &c);
}

// ------------------------------------------------------------- service ---

TEST(ServiceServer, SerialModeIsByteDeterministic) {
  const std::vector<std::string> batch = {
      req("\"id\":\"d1\",\"widths\":[16,8,8]"),
      req("\"id\":\"d2\",\"soc\":\"soc3\",\"widths\":[8,8]"),
      req("\"id\":\"d3\",\"widths\":[16,8,8]"),  // cache hit
      "not json",
  };
  auto run = [&batch] {
    SolveService service(serial_config());
    std::vector<std::string> responses;
    for (const std::string& line : batch) {
      responses.push_back(roundtrip(service, line));
    }
    return responses;
  };
  const std::vector<std::string> first = run();
  const std::vector<std::string> second = run();
  EXPECT_EQ(first, second);
  // Serial responses must not leak timing (the wall clock is the one
  // nondeterministic input left).
  for (const std::string& response : first) {
    EXPECT_EQ(response.find("wall_ms"), std::string::npos) << response;
    EXPECT_EQ(response.find("queue_ms"), std::string::npos) << response;
  }
}

TEST(ServiceServer, DeadlineExpiredRequestReturnsAnytimeCertificate) {
  SolveService service(serial_config());
  const std::string response = roundtrip(
      service, req("\"id\":\"dl\",\"widths\":[16,8,8],\"time_limit_ms\":0"));
  const auto doc = parse_json(response);
  ASSERT_TRUE(doc.has_value()) << response;
  EXPECT_TRUE(doc->find("ok")->boolean) << response;
  EXPECT_EQ(doc->string_or("stop", ""), "deadline");
  // Anytime contract: whatever incumbent existed is reported with an
  // honest (non-optimal) certificate rather than an error.
  EXPECT_NE(doc->string_or("status", ""), "optimal");
  EXPECT_EQ(service.cache_stats().misses, 0);  // bypassed the cache
  EXPECT_EQ(service.cache_stats().size, 0);    // and did not fill it
}

TEST(ServiceServer, OperatorTimeLimitCapsEveryRequest) {
  ServiceConfig config = serial_config();
  config.max_time_limit_ms = 0.0;  // everything expires immediately
  SolveService service(config);
  const std::string response =
      roundtrip(service, req("\"id\":\"cap\",\"widths\":[16,8,8]"));
  const auto doc = parse_json(response);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->string_or("stop", ""), "deadline");
}

TEST(ServiceServer, QueueFullRejectsWithRetryAfter) {
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 1;
  config.retry_after_ms = 75.0;
  SolveService service(config);

  // Occupy the single slot with a request, then race more in; at least one
  // must be rejected with backpressure advice (capacity 1, submissions 3).
  std::atomic<int> rejected{0};
  std::atomic<int> done_count{0};
  std::mutex mu;
  std::condition_variable cv;
  auto done = [&](std::string response) {
    const auto doc = parse_json(response);
    ASSERT_TRUE(doc.has_value());
    if (doc->find("retry_after_ms") != nullptr) {
      EXPECT_EQ(doc->find("error")->string_or("code", ""),
                "resource_exhausted");
      EXPECT_EQ(doc->number_or("retry_after_ms", 0.0), 75.0);
      rejected.fetch_add(1);
    }
    std::lock_guard<std::mutex> lock(mu);
    done_count.fetch_add(1);
    cv.notify_one();
  };
  for (int i = 0; i < 3; ++i) {
    service.submit(req("\"id\":\"q" + std::to_string(i) +
                       "\",\"soc\":\"soc3\",\"widths\":[8,8]"),
                   done);
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done_count.load() == 3; });
  }
  service.drain();
  EXPECT_GE(rejected.load(), 1);
  EXPECT_EQ(service.stats().rejected, rejected.load());
  EXPECT_EQ(service.stats().accepted + service.stats().rejected, 3);
}

TEST(ServiceServer, QueuedJobReportsItsMeasuredWait) {
  ServiceConfig config;
  config.workers = 1;
  SolveService service(config);

  // One worker: the fast request waits in the queue behind the slow one,
  // and its response must say so instead of reporting queue_ms 0.
  std::mutex mu;
  std::map<std::string, std::string> responses;
  auto done = [&](std::string response) {
    const auto doc = parse_json(response);
    ASSERT_TRUE(doc.has_value()) << response;
    std::lock_guard<std::mutex> lock(mu);
    responses[doc->string_or("id", "")] = std::move(response);
  };
  service.submit(req("\"id\":\"slow\",\"soc\":\"soc3\",\"buses\":3,"
                     "\"width\":64,\"no_cache\":true"),
                 done);
  service.submit(req("\"id\":\"fast\",\"soc\":\"soc2\",\"widths\":[8,8],"
                     "\"solver\":\"greedy\",\"no_cache\":true"),
                 done);
  service.drain();

  ASSERT_EQ(responses.size(), 2u);
  const auto fast = parse_json(responses["fast"]);
  ASSERT_TRUE(fast.has_value());
  EXPECT_TRUE(fast->find("ok")->boolean) << responses["fast"];
  ASSERT_NE(fast->find("queue_ms"), nullptr) << responses["fast"];
  EXPECT_GT(fast->number_or("queue_ms", 0.0), 0.0) << responses["fast"];
}

TEST(ServiceServer, DrainUnderLoadLeavesNoLostJobs) {
  ServiceConfig config;
  config.workers = 4;
  config.queue_capacity = 256;
  SolveService service(config);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 8;
  std::atomic<int> responses{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&service, &responses, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        service.submit(
            req("\"id\":\"p" + std::to_string(p) + "-" + std::to_string(i) +
                "\",\"widths\":[16,8,8],\"seed\":" + std::to_string(i % 3)),
            [&responses](std::string) { responses.fetch_add(1); });
      }
    });
  }
  for (std::thread& t : producers) t.join();
  service.drain();

  // Every submission got exactly one response: accepted jobs completed,
  // the rest were answered inline (rejection/error) at submit time.
  EXPECT_EQ(responses.load(), kProducers * kPerProducer);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.received, kProducers * kPerProducer);
  EXPECT_EQ(stats.completed, stats.accepted);
  EXPECT_GE(stats.cache_hits, 1);  // duplicate-heavy batch must hit

  // Post-drain submissions are refused, not lost.
  const std::string late = roundtrip(service, req("\"id\":\"late\""));
  EXPECT_NE(late.find("server draining"), std::string::npos) << late;
}

}  // namespace
}  // namespace soctest
