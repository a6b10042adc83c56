#pragma once

// The benchmark's fleet: one soctest-frontdoor process that spawns its
// soctest-serve workers, driven over TCP. Start parses the port-announce
// line and gates readiness on a soctest-ping-v1 answer from every worker;
// shutdown drains with SIGTERM and requires exit code 0.

#include <memory>
#include <string>
#include <vector>

#include <sys/types.h>

#include "runtime/status.hpp"

namespace perfbench {

/// A blocking-connect, line-oriented protocol connection.
class LineConnection {
 public:
  /// Connects to "HOST:PORT" or a Unix socket path.
  static soctest::StatusOr<std::unique_ptr<LineConnection>> open(
      const std::string& endpoint);
  ~LineConnection();
  LineConnection(const LineConnection&) = delete;
  LineConnection& operator=(const LineConnection&) = delete;

  int fd() const { return fd_; }
  bool send(const std::string& line);  ///< appends the newline
  /// Reads what is available without blocking and appends complete lines to
  /// `out`; false once the peer closed or errored.
  bool pump(std::vector<std::string>& out);
  /// Blocks up to `timeout_ms` for one line; empty on timeout or close.
  std::string read_line(int timeout_ms);

 private:
  explicit LineConnection(int fd) : fd_(fd) {}
  int fd_;
  std::string buffer_;
};

struct FleetOptions {
  std::string bin_dir;   ///< holds soctest-frontdoor and soctest-serve
  std::string work_dir;  ///< worker sockets; relative to the checkout
  int workers = 2;
  int worker_threads = 1;
};

class Fleet {
 public:
  /// Spawns the front door and waits until every worker answers a ping.
  static soctest::StatusOr<std::unique_ptr<Fleet>> start(
      const FleetOptions& options);
  /// Kills a fleet that was not shut down (error paths only).
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  std::string endpoint() const { return "127.0.0.1:" + std::to_string(port_); }
  /// Seconds from spawn until every worker answered its ping.
  double setup_s() const { return setup_s_; }
  /// The merged soctest-stats-v1 reply of the front door.
  soctest::StatusOr<std::string> scrape() const;
  /// Sum of the workers' peak resident set (VmHWM), MiB.
  double workers_peak_rss_mb() const;
  /// SIGTERM, wait for the drain; OK only on exit code 0.
  soctest::Status shutdown();

 private:
  Fleet() = default;
  std::vector<pid_t> worker_pids() const;

  FleetOptions options_;
  pid_t pid_ = -1;
  int stdout_fd_ = -1;  ///< read end of the front door's stdout
  int port_ = 0;
  double setup_s_ = 0.0;
};

}  // namespace perfbench
