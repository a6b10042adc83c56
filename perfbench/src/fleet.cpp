#include "fleet.hpp"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/net.hpp"
#include "service/protocol.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using soctest::Status;
using soctest::StatusOr;

constexpr int kStartTimeoutMs = 20000;
constexpr int kDrainTimeoutMs = 30000;

long long ms_left(Clock::time_point deadline) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                               Clock::now())
      .count();
}

/// Waits up to `timeout_ms` for `pid` to exit; its raw status in `*status`.
bool wait_exit(pid_t pid, int timeout_ms, int* status) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    const pid_t r = ::waitpid(pid, status, WNOHANG);
    if (r == pid) return true;
    if (r < 0 && errno != EINTR) return true;
    if (ms_left(deadline) <= 0) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

// ---------------------------------------------------------------------------

StatusOr<std::unique_ptr<LineConnection>> LineConnection::open(
    const std::string& endpoint) {
  const auto parsed = soctest::net::parse_endpoint(endpoint);
  if (!parsed.ok()) return parsed.status();
  const auto fd = soctest::net::connect_endpoint(parsed.value());
  if (!fd.ok()) return fd.status();
  soctest::net::set_tcp_nodelay(fd.value());
  return std::unique_ptr<LineConnection>(new LineConnection(fd.value()));
}

LineConnection::~LineConnection() {
  if (fd_ >= 0) ::close(fd_);
}

bool LineConnection::send(const std::string& line) {
  std::string wire = line;
  wire += '\n';
  return soctest::net::write_all(fd_, wire.data(), wire.size());
}

bool LineConnection::pump(std::vector<std::string>& out) {
  char chunk[65536];
  while (true) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
    if (static_cast<std::size_t>(n) < sizeof(chunk)) break;
  }
  std::size_t start = 0;
  for (std::size_t nl; (nl = buffer_.find('\n', start)) != std::string::npos;
       start = nl + 1) {
    out.emplace_back(buffer_, start, nl - start);
  }
  buffer_.erase(0, start);
  return true;
}

std::string LineConnection::read_line(int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::vector<std::string> lines;
  while (lines.empty()) {
    const long long left = ms_left(deadline);
    if (left <= 0) return "";
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left)) < 0 && errno != EINTR) return "";
    if (!pump(lines) && lines.empty()) return "";
  }
  // Probe exchanges are strictly request/reply: one line at a time.
  return lines.front();
}

// ---------------------------------------------------------------------------

StatusOr<std::unique_ptr<Fleet>> Fleet::start(const FleetOptions& options) {
  std::unique_ptr<Fleet> fleet(new Fleet());
  fleet->options_ = options;
  const std::string frontdoor = options.bin_dir + "/soctest-frontdoor";
  const std::vector<std::string> args = {
      frontdoor,
      "--listen", "127.0.0.1:0",
      "--workers", std::to_string(options.workers),
      "--worker-threads", std::to_string(options.worker_threads),
      "--serve-bin", options.bin_dir + "/soctest-serve",
      "--dir", options.work_dir};

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return soctest::io_error(std::string("pipe: ") + std::strerror(errno));
  }
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  const auto t0 = Clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return soctest::io_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // The front door dies with the benchmark (and drains its workers), so
    // a crashed run never leaves a fleet behind.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    ::execv(argv[0], argv.data());
    std::fprintf(stderr, "perfbench: exec %s: %s\n", argv[0],
                 std::strerror(errno));
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  fleet->pid_ = pid;
  fleet->stdout_fd_ = pipe_fds[0];

  // Port-announce line: "soctest-frontdoor: listening on 127.0.0.1:PORT".
  const auto deadline = t0 + std::chrono::milliseconds(kStartTimeoutMs);
  std::string announce;
  while (announce.find('\n') == std::string::npos) {
    const long long left = ms_left(deadline);
    if (left <= 0) return soctest::internal_error("front door never announced");
    pollfd pfd{fleet->stdout_fd_, POLLIN, 0};
    ::poll(&pfd, 1, static_cast<int>(left));
    char c[256];
    const ssize_t n = ::read(fleet->stdout_fd_, c, sizeof(c));
    if (n == 0) return soctest::internal_error("front door exited at start");
    if (n > 0) announce.append(c, static_cast<std::size_t>(n));
  }
  const std::string marker = "listening on ";
  const auto at = announce.find(marker);
  const auto colon = announce.rfind(':', announce.find('\n'));
  if (at == std::string::npos || colon == std::string::npos) {
    return soctest::internal_error("bad announce line: " + announce);
  }
  fleet->port_ = std::atoi(announce.c_str() + colon + 1);

  // Readiness: every worker answers a ping on its own socket, and the
  // front door answers one on the client port.
  std::vector<std::string> endpoints;
  for (int i = 0; i < options.workers; ++i) {
    endpoints.push_back(options.work_dir + "/worker-" + std::to_string(i) +
                        ".sock");
  }
  endpoints.push_back(fleet->endpoint());
  for (const std::string& ep : endpoints) {
    while (true) {
      if (ms_left(deadline) <= 0) {
        return soctest::internal_error("no pong from " + ep);
      }
      auto conn = LineConnection::open(ep);
      if (conn.ok() && conn.value()->send(soctest::ping_json("ready"))) {
        std::string id;
        if (soctest::parse_pong(conn.value()->read_line(2000), &id) &&
            id == "ready") {
          break;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  fleet->setup_s_ =
      std::chrono::duration<double>(Clock::now() - t0).count();
  return fleet;
}

Fleet::~Fleet() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    if (!wait_exit(pid_, kDrainTimeoutMs, &status)) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
  }
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
}

StatusOr<std::string> Fleet::scrape() const {
  auto conn = LineConnection::open(endpoint());
  if (!conn.ok()) return conn.status();
  if (!conn.value()->send(soctest::stats_probe_json("scrape"))) {
    return soctest::io_error("stats probe send failed");
  }
  std::string reply = conn.value()->read_line(10000);
  if (reply.empty()) return soctest::io_error("no stats reply");
  return reply;
}

std::vector<pid_t> Fleet::worker_pids() const {
  std::vector<pid_t> pids;
  DIR* proc = ::opendir("/proc");
  if (proc == nullptr) return pids;
  while (const dirent* entry = ::readdir(proc)) {
    const pid_t pid = static_cast<pid_t>(std::atoi(entry->d_name));
    if (pid <= 0) continue;
    std::ifstream stat("/proc/" + std::string(entry->d_name) + "/stat");
    std::string text((std::istreambuf_iterator<char>(stat)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesized command name: state, then ppid.
    const auto close_paren = text.rfind(')');
    if (close_paren == std::string::npos) continue;
    char state = 0;
    int ppid = 0;
    if (std::sscanf(text.c_str() + close_paren + 1, " %c %d", &state, &ppid) ==
            2 &&
        ppid == pid_) {
      pids.push_back(pid);
    }
  }
  ::closedir(proc);
  return pids;
}

double Fleet::workers_peak_rss_mb() const {
  double total_kb = 0.0;
  for (pid_t pid : worker_pids()) {
    std::ifstream status("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        total_kb += std::atof(line.c_str() + 6);
        break;
      }
    }
  }
  return total_kb / 1024.0;
}

Status Fleet::shutdown() {
  if (pid_ <= 0) return soctest::internal_error("fleet not running");
  ::kill(pid_, SIGTERM);
  int status = 0;
  const bool exited = wait_exit(pid_, kDrainTimeoutMs, &status);
  if (!exited) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  if (!exited) return soctest::internal_error("front door did not drain");
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return soctest::internal_error("front door exit status " +
                                   std::to_string(status));
  }
  return Status::Ok();
}

}  // namespace perfbench
