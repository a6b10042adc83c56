#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/net.hpp"
#include "report/json.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"

namespace soctest {
namespace {

// Robustness contract of the poll-multiplexed TCP transport
// (docs/robustness.md): transport-level pings, the oversized-line cap with
// stream resync, idle-connection reaping, and whole-line writes that never
// interleave even when the kernel forces short writes.

/// SolveService + serve_tcp on its own thread; stops via the per-server
/// stop flag (never the process-wide shutdown latch, which would poison
/// later tests).
struct RunningTcp {
  explicit RunningTcp(const ServiceConfig& config) : service(config) {
    thread = std::thread(
        [this] { exit_code = serve_tcp(service, "127.0.0.1:0", &port, &stop); });
    for (int i = 0; i < 500 && port.load() == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GT(port.load(), 0) << "serve_tcp never published its port";
  }
  ~RunningTcp() {
    stop.store(true);
    if (thread.joinable()) thread.join();
    EXPECT_EQ(exit_code, 0) << "transport did not drain cleanly";
  }
  std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(port.load());
  }

  SolveService service;
  std::atomic<int> port{0};
  std::atomic<bool> stop{false};
  std::thread thread;
  int exit_code = -1;
};

/// Blocking raw connection with line-at-a-time reads — deliberately NOT
/// the retrying client, so these tests observe the server's exact bytes.
struct RawConn {
  explicit RawConn(const std::string& endpoint, int rcvbuf = 0) {
    open(endpoint, rcvbuf);
    EXPECT_GE(fd, 0) << "could not connect to " << endpoint;
  }
  void open(const std::string& endpoint, int rcvbuf) {
    const auto parsed = net::parse_endpoint(endpoint);
    ASSERT_TRUE(parsed.ok());
    if (rcvbuf > 0) {
      // SO_RCVBUF must be set before connect to shrink the advertised
      // TCP window — that is what forces the server into short writes.
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      ASSERT_GE(fd, 0);
      ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
      sockaddr_in addr;
      std::memset(&addr, 0, sizeof(addr));
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<std::uint16_t>(parsed.value().port));
      ASSERT_EQ(::inet_pton(AF_INET, parsed.value().host.c_str(),
                            &addr.sin_addr), 1);
      ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)), 0)
          << std::strerror(errno);
    } else {
      const auto connected = net::connect_endpoint(parsed.value());
      ASSERT_TRUE(connected.ok()) << connected.status().to_string();
      fd = connected.value();
    }
  }
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }

  bool send_line(const std::string& line) {
    const std::string wire = line + "\n";
    return net::write_all(fd, wire.data(), wire.size());
  }

  /// Next line, or empty on EOF/timeout.
  std::string read_line(int timeout_ms = 10000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (true) {
      const auto nl = inbuf.find('\n');
      if (nl != std::string::npos) {
        std::string line = inbuf.substr(0, nl);
        inbuf.erase(0, nl + 1);
        return line;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
      if (left <= 0) return std::string();
      pollfd pfd{fd, POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(left)) <= 0) return std::string();
      char chunk[65536];
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n <= 0) return std::string();
      inbuf.append(chunk, static_cast<std::size_t>(n));
    }
  }

  int fd = -1;
  std::string inbuf;
};

std::string greedy_req(const std::string& id) {
  return "{\"schema\":\"soctest-req-v1\",\"id\":\"" + id +
         "\",\"soc\":\"soc1\",\"solver\":\"greedy\"}";
}

// ------------------------------------------------------------ ping/pong --

TEST(TransportPing, AnsweredByThePollLoopWithoutQueueing) {
  ServiceConfig config;
  config.serial = true;
  RunningTcp server(config);

  RawConn conn(server.endpoint());
  ASSERT_TRUE(conn.send_line(ping_json("liveness-1")));
  const std::string reply = conn.read_line();
  std::string id;
  ASSERT_TRUE(parse_pong(reply, &id)) << reply;
  EXPECT_EQ(id, "liveness-1");

  // Pings are transport traffic, not requests: the service never sees
  // them, so a ping can answer even when every solver thread is wedged.
  EXPECT_EQ(server.service.stats().received, 0);
}

TEST(TransportPing, InterleavesWithRealRequests) {
  ServiceConfig config;
  config.serial = true;
  RunningTcp server(config);

  RawConn conn(server.endpoint());
  ASSERT_TRUE(conn.send_line(greedy_req("r1")));
  ASSERT_TRUE(conn.send_line(ping_json("hb")));
  ASSERT_TRUE(conn.send_line(greedy_req("r2")));

  std::vector<std::string> lines;
  for (int i = 0; i < 3; ++i) lines.push_back(conn.read_line());
  std::string id;
  int pongs = 0, finals = 0;
  for (const auto& line : lines) {
    if (parse_pong(line, &id)) {
      ++pongs;
      EXPECT_EQ(id, "hb");
    } else if (line.find("\"schema\":\"soctest-resp-v1\"") !=
               std::string::npos) {
      ++finals;
    }
  }
  EXPECT_EQ(pongs, 1);
  EXPECT_EQ(finals, 2);
}

// -------------------------------------------------------- oversized cap --

TEST(TransportCap, OversizedLineGetsOneStructuredErrorAndStreamResyncs) {
  ServiceConfig config;
  config.serial = true;
  RunningTcp server(config);

  // One line just past the cap, then a valid request on the same
  // connection: the reader must answer the oversized line with the
  // canonical structured error, discard to the newline, and then process
  // the valid request as if nothing happened.
  std::string big(kMaxProtocolLineBytes + 1, 'x');
  const auto responses =
      client_roundtrip(server.endpoint(), {big, greedy_req("after-big")});
  ASSERT_TRUE(responses.ok()) << responses.status().to_string();
  ASSERT_EQ(responses.value().size(), 2u);
  EXPECT_EQ(responses.value()[0], oversized_line_response_json());
  EXPECT_NE(responses.value()[1].find("\"id\":\"after-big\""),
            std::string::npos);
  EXPECT_NE(responses.value()[1].find("\"ok\":true"), std::string::npos);
}

TEST(TransportCap, StdioOversizedLineGetsOneStructuredErrorAndStreamResyncs) {
  ServiceConfig config;
  config.serial = true;
  SolveService service(config);

  // The same contract over serve_stdio on a pipe. The cap is a multiple of
  // the stdio reader's chunk size, so this line's newline arrives in the
  // chunk that crosses the cap: the reader must length-check the complete
  // line, not only a buffer that has no newline yet.
  int in[2];
  int out[2];
  ASSERT_EQ(::pipe(in), 0);
  ASSERT_EQ(::pipe(out), 0);
  std::thread writer([&] {
    const std::string bytes = std::string(kMaxProtocolLineBytes + 1, 'x') +
                              "\n" + greedy_req("after-big") + "\n";
    net::write_all(in[1], bytes.data(), bytes.size());
    ::close(in[1]);
  });
  EXPECT_EQ(serve_stdio(service, in[0], out[1]), 0);
  writer.join();
  ::close(in[0]);
  ::close(out[1]);
  std::string output;
  char chunk[4096];
  ssize_t n = 0;
  while ((n = ::read(out[0], chunk, sizeof(chunk))) > 0) {
    output.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(out[0]);

  const auto nl = output.find('\n');
  ASSERT_NE(nl, std::string::npos) << output.substr(0, 200);
  EXPECT_EQ(output.substr(0, nl), oversized_line_response_json());
  const std::string second = output.substr(nl + 1);
  EXPECT_NE(second.find("\"id\":\"after-big\""), std::string::npos) << second;
  EXPECT_NE(second.find("\"ok\":true"), std::string::npos) << second;
  EXPECT_EQ(std::count(output.begin(), output.end(), '\n'), 2);
}

// ------------------------------------------------------------ idle reap --

TEST(TransportIdle, SilentConnectionIsReapedAfterTheDeadline) {
  ServiceConfig config;
  config.serial = true;
  config.idle_timeout_ms = 200.0;
  RunningTcp server(config);

  RawConn conn(server.endpoint());
  // Send nothing. The server must close us (read EOF) once we sit silent
  // past the deadline — a half-open peer cannot hold a slot forever.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(conn.read_line(10000), "");
  const double waited_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
  EXPECT_LT(waited_ms, 8000.0) << "idle connection was never reaped";
}

TEST(TransportIdle, ActiveConnectionOutlivesTheDeadline) {
  ServiceConfig config;
  config.serial = true;
  config.idle_timeout_ms = 400.0;
  RunningTcp server(config);

  RawConn conn(server.endpoint());
  // Keep trickling pings slower than the deadline would allow if activity
  // did not reset it; every ping must still be answered.
  for (int i = 0; i < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ASSERT_TRUE(conn.send_line(ping_json("keep-" + std::to_string(i))));
    std::string id;
    ASSERT_TRUE(parse_pong(conn.read_line(), &id)) << "reaped while active";
  }
}

// -------------------------------------------------- short-write handling --

TEST(TransportShortWrites, LinesNeverInterleaveThroughATinyWindow) {
  ServiceConfig config;
  config.serial = true;
  RunningTcp server(config);

  // A tiny receive window plus a deliberately unread flood of large pong
  // responses forces the server's nonblocking flush into short writes and
  // EAGAIN; partially-written lines must buffer and resume — a reader
  // must never observe a line torn or spliced into another.
  constexpr int kPings = 300;
  const std::string filler(8192, 'k');
  RawConn conn(server.endpoint(), /*rcvbuf=*/4096);
  for (int i = 0; i < kPings; ++i) {
    ASSERT_TRUE(conn.send_line(ping_json("big-" + std::to_string(i) + "-" +
                                         filler)));
  }
  // Only now start reading: everything queued behind the stalled window.
  for (int i = 0; i < kPings; ++i) {
    const std::string line = conn.read_line(20000);
    std::string id;
    ASSERT_TRUE(parse_pong(line, &id))
        << "response " << i << " corrupt (torn write?): "
        << line.substr(0, 120);
    EXPECT_EQ(id, "big-" + std::to_string(i) + "-" + filler)
        << "response " << i << " out of order or truncated";
  }
}

// ------------------------------------------------------------- draining --

TEST(TransportDrain, StopAnswersEverythingSubmittedThenCloses) {
  ServiceConfig config;
  config.serial = true;
  RunningTcp server(config);
  {
    RawConn conn(server.endpoint());
    ASSERT_TRUE(conn.send_line(greedy_req("drain-1")));
    const std::string line = conn.read_line();
    EXPECT_NE(line.find("\"id\":\"drain-1\""), std::string::npos) << line;
  }
  // Destructor flips the stop flag and asserts exit code 0: the drain
  // completed with no connections left behind.
}

}  // namespace
}  // namespace soctest
