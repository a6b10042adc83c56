#include <gtest/gtest.h>

#include <csignal>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "report/json.hpp"
#include "service/frontdoor.hpp"
#include "service/protocol.hpp"
#include "service/transport.hpp"

namespace soctest {
namespace {

// The scale-out front door (docs/service.md): fingerprint sharding, TCP
// end-to-end relay, worker crash -> restart -> retried without a lost
// job, and front-door admission control.
//
// SOCTEST_SERVE_BIN is the built soctest-serve binary, injected by CMake;
// every FrontDoor here spawns real worker processes.

std::string req(const std::string& body) {
  return "{\"schema\":\"soctest-req-v1\"," + body + "}";
}

FrontDoorConfig test_config(int workers) {
  FrontDoorConfig config;
  config.workers = workers;
  config.serve_binary = SOCTEST_SERVE_BIN;
  config.listen = "127.0.0.1:0";
  return config;
}

/// FrontDoor + its serve() thread, stopped and joined on destruction.
struct RunningDoor {
  explicit RunningDoor(const FrontDoorConfig& config) : door(config) {
    const Status st = door.start();
    EXPECT_TRUE(st.ok()) << st.to_string();
    if (st.ok()) thread = std::thread([this] { door.serve(); });
  }
  ~RunningDoor() {
    door.stop();
    if (thread.joinable()) thread.join();
  }
  FrontDoor door;
  std::thread thread;
};

std::size_t count_finals(const std::vector<std::string>& lines) {
  std::size_t n = 0;
  for (const auto& line : lines) {
    if (line.find("\"schema\":\"soctest-resp-v1\"") != std::string::npos) ++n;
  }
  return n;
}

// ------------------------------------------------------------- sharding --

TEST(FrontDoorSharding, FingerprintIsDeterministicAndContentKeyed) {
  const std::string a = req("\"id\":\"x\",\"soc\":\"soc2\"");
  const std::string b = req("\"id\":\"y\",\"soc\":\"soc2\",\"buses\":3");
  const std::string c = req("\"id\":\"x\",\"soc\":\"soc3\"");
  // Same SOC -> same fingerprint regardless of id or knobs: routing is
  // cache-affine on SOC content, and knobs only pick the cache entry
  // within the worker.
  EXPECT_EQ(request_fingerprint(a), request_fingerprint(b));
  EXPECT_NE(request_fingerprint(a), request_fingerprint(c));
  // Stable across calls (capacity planning depends on it).
  EXPECT_EQ(request_fingerprint(a), request_fingerprint(a));
}

TEST(FrontDoorSharding, InlineSocTextOverridesTheName) {
  const std::string named = req("\"id\":\"n\",\"soc\":\"whatever\"");
  const std::string inline1 =
      req("\"id\":\"n\",\"soc\":\"whatever\",\"soc_text\":\"soc a\\ncore c1 "
          "10 20 5 1.0\\nend\"");
  const std::string inline2 =
      req("\"id\":\"n\",\"soc\":\"other-name\",\"soc_text\":\"soc a\\ncore "
          "c1 10 20 5 1.0\\nend\"");
  EXPECT_NE(request_fingerprint(named), request_fingerprint(inline1));
  // Identical inline text -> identical fingerprint, whatever the name
  // says: content-addressed, like the result cache.
  EXPECT_EQ(request_fingerprint(inline1), request_fingerprint(inline2));
}

TEST(FrontDoorSharding, ShardForLineCoversUnparseableLinesViaShardZero) {
  EXPECT_EQ(shard_for_line("this is not json", 4), 0);
  EXPECT_EQ(shard_for_line("", 4), 0);
  EXPECT_EQ(shard_for_line(req("\"id\":\"z\",\"soc\":\"soc1\""), 1), 0);
  const int shard = shard_for_line(req("\"id\":\"z\",\"soc\":\"soc1\""), 3);
  EXPECT_GE(shard, 0);
  EXPECT_LT(shard, 3);
}

// ----------------------------------------------------------- end to end --

TEST(FrontDoorEndToEnd, RelaysABatchAcrossTwoWorkersOverTcp) {
  RunningDoor running(test_config(2));
  ASSERT_GT(running.door.port(), 0);

  std::vector<std::string> lines;
  for (const char* soc : {"soc1", "soc2", "soc3", "soc4", "soc1", "soc2"}) {
    lines.push_back(req("\"id\":\"e2e-" + std::string(soc) +
                        "\",\"soc\":\"" + soc +
                        "\",\"solver\":\"greedy\""));
  }
  const auto responses = client_roundtrip(running.door.endpoint(), lines);
  ASSERT_TRUE(responses.ok()) << responses.status().to_string();
  EXPECT_EQ(count_finals(responses.value()), lines.size());
  for (const auto& line : responses.value()) {
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
  }

  const FrontDoorStats stats = running.door.stats();
  EXPECT_EQ(stats.received, static_cast<long long>(lines.size()));
  EXPECT_EQ(stats.forwarded, static_cast<long long>(lines.size()));
  EXPECT_EQ(stats.completed, static_cast<long long>(lines.size()));
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.errors, 0);
}

TEST(FrontDoorEndToEnd, StreamedPartialsPassThroughToTheClient) {
  FrontDoorConfig config = test_config(1);
  config.serial_workers = true;
  RunningDoor running(config);

  const std::vector<std::string> lines = {
      req("\"id\":\"st\",\"soc\":\"soc2\",\"stream\":true,"
          "\"time_limit_ms\":5000")};
  const auto responses = client_roundtrip(running.door.endpoint(), lines);
  ASSERT_TRUE(responses.ok()) << responses.status().to_string();
  std::size_t partials = 0;
  for (const auto& line : responses.value()) {
    if (line.find("\"schema\":\"soctest-partial-v1\"") != std::string::npos) {
      ++partials;
    }
  }
  EXPECT_GE(partials, 1u) << "no partial relayed through the front door";
  EXPECT_EQ(count_finals(responses.value()), 1u);
  EXPECT_EQ(running.door.stats().partials,
            static_cast<long long>(partials));
}

// -------------------------------------------------------- fault handling --

TEST(FrontDoorFaults, WorkerCrashRestartsAndRetriesWithoutLosingTheJob) {
  FrontDoorConfig config = test_config(1);
  RunningDoor running(config);

  // A solve that reliably occupies its worker long enough to be killed
  // mid-flight: an ILP width search over 4 buses runs into its 2 s
  // deadline (the exact search finishes this point in ~0.3 s); no_cache
  // keeps it a miss.
  const std::vector<std::string> lines = {
      req("\"id\":\"crash\",\"soc\":\"soc4\",\"buses\":4,\"width\":64,"
          "\"solver\":\"ilp\",\"time_limit_ms\":2000,\"no_cache\":true")};

  StatusOr<std::vector<std::string>> responses =
      io_error("client never ran");
  std::thread client([&] {
    responses = client_roundtrip(running.door.endpoint(), lines);
  });

  // Wait until the request is on the worker, then kill the process the
  // hard way (SIGKILL: no drain, simulating a crash).
  for (int i = 0; i < 200 && running.door.stats().forwarded < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::vector<pid_t> pids = running.door.worker_pids();
  ASSERT_EQ(pids.size(), 1u);
  ASSERT_GT(pids[0], 0);
  ::kill(pids[0], SIGKILL);

  client.join();
  ASSERT_TRUE(responses.ok()) << responses.status().to_string();
  ASSERT_EQ(count_finals(responses.value()), 1u)
      << "the in-flight request was lost in the crash";
  EXPECT_NE(responses.value().back().find("\"ok\":true"), std::string::npos)
      << responses.value().back();

  const FrontDoorStats stats = running.door.stats();
  EXPECT_GE(stats.restarts, 1);
  EXPECT_GE(stats.retried, 1);
  EXPECT_EQ(stats.completed, 1);
}

TEST(FrontDoorFaults, AdmissionBoundRejectsWithRetryAdvice) {
  FrontDoorConfig config = test_config(1);
  config.max_inflight = 1;
  config.retry_after_ms = 25.0;
  RunningDoor running(config);

  // Five pipelined slow requests: the first occupies the only slot, the
  // rest bounce off the front-door admission bound.
  std::vector<std::string> lines;
  for (int i = 0; i < 5; ++i) {
    lines.push_back(req("\"id\":\"bp-" + std::to_string(i) +
                        "\",\"soc\":\"soc4\",\"buses\":4,\"width\":64,"
                        "\"time_limit_ms\":800,\"no_cache\":true"));
  }
  const auto responses = client_roundtrip(running.door.endpoint(), lines);
  ASSERT_TRUE(responses.ok()) << responses.status().to_string();
  // Every request is answered exactly once: no line is dropped, rejected
  // ones just answer immediately.
  EXPECT_EQ(count_finals(responses.value()), lines.size());

  std::size_t rejected = 0;
  for (const auto& line : responses.value()) {
    if (line.find("\"retry_after_ms\":25") != std::string::npos &&
        line.find("resource_exhausted") != std::string::npos) {
      ++rejected;
    }
  }
  EXPECT_GE(rejected, 1u) << "no backpressure rejection reached the client";
  EXPECT_EQ(running.door.stats().rejected,
            static_cast<long long>(rejected));
}

TEST(FrontDoorFaults, AnswersPingsAuthoritatively) {
  RunningDoor running(test_config(1));

  const auto responses =
      client_roundtrip(running.door.endpoint(), {ping_json("fd-live")});
  ASSERT_TRUE(responses.ok()) << responses.status().to_string();
  ASSERT_EQ(responses.value().size(), 1u);
  std::string id;
  ASSERT_TRUE(parse_pong(responses.value()[0], &id))
      << responses.value()[0];
  EXPECT_EQ(id, "fd-live");
  // A ping is transport traffic: it is never forwarded and never counted
  // as a request.
  EXPECT_EQ(running.door.stats().received, 0);
  EXPECT_EQ(running.door.stats().forwarded, 0);
}

TEST(FrontDoorFaults, OversizedLineIsAnsweredAuthoritativelyAndResyncs) {
  RunningDoor running(test_config(1));

  // The front door must answer the oversized line itself — workers never
  // see it — and keep the connection usable for the next request.
  std::string big(kMaxProtocolLineBytes + 1, 'x');
  const auto responses = client_roundtrip(
      running.door.endpoint(),
      {big, req("\"id\":\"after\",\"soc\":\"soc1\",\"solver\":\"greedy\"")});
  ASSERT_TRUE(responses.ok()) << responses.status().to_string();
  ASSERT_EQ(responses.value().size(), 2u);
  EXPECT_EQ(responses.value()[0], oversized_line_response_json());
  EXPECT_NE(responses.value()[1].find("\"id\":\"after\""), std::string::npos);
  EXPECT_NE(responses.value()[1].find("\"ok\":true"), std::string::npos);

  const FrontDoorStats stats = running.door.stats();
  EXPECT_EQ(stats.received, 2);
  EXPECT_EQ(stats.forwarded, 1);
  EXPECT_EQ(stats.errors, 1);
}

TEST(FrontDoorFaults, HungWorkerIsDetectedKilledAndItsJobRetried) {
  // A SIGSTOP'd worker is the nasty case: its process exists, its listen
  // backlog still accepts, but nothing answers. Only heartbeat silence
  // identifies it; the front door must SIGKILL it and let the ordinary
  // crash machinery respawn and retry the in-flight job.
  FrontDoorConfig config = test_config(1);
  config.heartbeat_ms = 100.0;
  config.heartbeat_timeout_ms = 600.0;
  RunningDoor running(config);

  // Busy until its 2 s deadline, like the crash test's request.
  const std::vector<std::string> lines = {
      req("\"id\":\"hung\",\"soc\":\"soc4\",\"buses\":4,\"width\":64,"
          "\"solver\":\"ilp\",\"time_limit_ms\":2000,\"no_cache\":true")};

  StatusOr<std::vector<std::string>> responses =
      io_error("client never ran");
  std::thread client([&] {
    responses = client_roundtrip(running.door.endpoint(), lines);
  });

  for (int i = 0; i < 200 && running.door.stats().forwarded < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const std::vector<pid_t> pids = running.door.worker_pids();
  ASSERT_EQ(pids.size(), 1u);
  ASSERT_GT(pids[0], 0);
  ::kill(pids[0], SIGSTOP);

  client.join();
  ASSERT_TRUE(responses.ok()) << responses.status().to_string();
  ASSERT_EQ(count_finals(responses.value()), 1u)
      << "the in-flight request was lost on the hung worker";
  EXPECT_NE(responses.value().back().find("\"ok\":true"), std::string::npos)
      << responses.value().back();

  const FrontDoorStats stats = running.door.stats();
  EXPECT_GE(stats.hung_restarts, 1);
  EXPECT_GE(stats.restarts, 1);
  EXPECT_GE(stats.retried, 1);
  EXPECT_EQ(stats.completed, 1);
}

TEST(FrontDoorFaults, StartFailsFastOnAMissingWorkerBinary) {
  FrontDoorConfig config = test_config(1);
  config.serve_binary = "/nonexistent/soctest-serve";
  FrontDoor door(config);
  const Status st = door.start();
  EXPECT_FALSE(st.ok());
}

TEST(FrontDoorStats, ExitLineIsNameSortedPerTheCliMetricsContract) {
  // The documented CLI metrics contract (docs/observability.md) orders
  // every stats surface by name; the drain line must match it so log
  // scrapers can pin field positions.
  FrontDoorStats stats;
  stats.received = 9;
  stats.forwarded = 8;
  stats.rejected = 1;
  stats.completed = 7;
  stats.partials = 3;
  stats.errors = 2;
  stats.restarts = 4;
  stats.retried = 5;
  stats.hung_restarts = 6;
  EXPECT_EQ(frontdoor_stats_line(stats),
            "soctest-frontdoor: 7 completed, 2 errors, 8 forwarded, 6 hung, "
            "3 partials, 9 received, 1 rejected, 4 restarts, 5 retried");
}

}  // namespace
}  // namespace soctest
