#include "service/transport.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <memory>
#include <mutex>
#include <condition_variable>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/net.hpp"
#include "obs/obs.hpp"
#include "service/protocol.hpp"

namespace soctest {

namespace {

std::atomic<bool> g_shutdown{false};

extern "C" void shutdown_signal_handler(int) {
  g_shutdown.store(true, std::memory_order_relaxed);
}

long long steady_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Writes one response line to a shared fd. Lines are written whole under a
/// mutex so concurrent workers cannot interleave bytes; net::write_all
/// tolerates EINTR and nonblocking fds. Only the stdio transport uses this
/// (its peer is the parent process' pipe); socket connections buffer and
/// flush from the poll loop instead, so a stalled peer can never park a
/// worker thread inside write().
class LineWriter {
 public:
  explicit LineWriter(int fd) : fd_(fd) {}

  void write_line(const std::string& line) {
    std::lock_guard<std::mutex> lock(mu_);
    if (failed_) return;
    std::string buffer = line;
    buffer.push_back('\n');
    if (!net::write_all(fd_, buffer.data(), buffer.size())) {
      failed_ = true;  // reader went away; keep draining jobs regardless
    }
  }

  bool failed() const { return failed_; }

 private:
  int fd_;
  std::mutex mu_;
  bool failed_ = false;
};

/// Incremental line reader over a raw fd, polling so a shutdown signal is
/// noticed between reads (C++ streams retry on EINTR, which would make a
/// blocked getline ignore SIGTERM until the next byte arrives). Enforces
/// kMaxProtocolLineBytes: a line that outgrows the cap is discarded up to
/// its terminating newline and surfaced once with *oversized = true.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// Reads the next line (without the newline). Returns false on EOF, on a
  /// read error, or once shutdown was requested and the buffer is empty.
  bool next(std::string* line, bool* oversized) {
    *oversized = false;
    while (true) {
      const auto nl = buffer_.find('\n', scanned_);
      scanned_ = 0;
      if (nl != std::string::npos) {
        // A complete line can still breach the cap when its newline lands
        // in the same chunk that crossed it, so its length is checked too.
        if (discarding_ || nl > kMaxProtocolLineBytes) {
          buffer_.erase(0, nl + 1);
          discarding_ = false;
          line->clear();
          *oversized = true;
          return true;
        }
        line->assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      if (!discarding_ && buffer_.size() > kMaxProtocolLineBytes) {
        buffer_.clear();
        discarding_ = true;
        continue;
      }
      if (discarding_) buffer_.clear();  // bound the discard buffer too
      if (eof_) {
        if (discarding_) {
          discarding_ = false;
          line->clear();
          *oversized = true;
          return true;
        }
        if (buffer_.empty()) return false;
        line->swap(buffer_);  // unterminated final line
        buffer_.clear();
        return true;
      }
      if (shutdown_requested()) return false;
      struct pollfd pfd;
      pfd.fd = fd_;
      pfd.events = POLLIN;
      const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
      if (ready < 0 && errno != EINTR) return false;
      if (ready <= 0) continue;  // timeout or EINTR: re-check shutdown
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (n == 0) {
        eof_ = true;
        continue;
      }
      scanned_ = buffer_.size();  // no newline before the new bytes
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buffer_;
  /// Prefix of buffer_ already searched for a newline, so a long line is
  /// scanned once rather than once per chunk.
  std::size_t scanned_ = 0;
  bool eof_ = false;
  bool discarding_ = false;  ///< swallowing the rest of an oversized line
};

/// Tracks submitted vs answered so a connection (or the stdio stream) can
/// wait until every accepted request has delivered its response before
/// closing — the "no lost jobs" half of graceful drain.
class ResponseBarrier {
 public:
  void submitted() {
    std::lock_guard<std::mutex> lock(mu_);
    ++submitted_;
  }
  void answered() {
    std::lock_guard<std::mutex> lock(mu_);
    ++answered_;
    cv_.notify_all();
  }
  void wait_all_answered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return answered_ >= submitted_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  long long submitted_ = 0;
  long long answered_ = 0;
};

/// Pumps one request stream into the service and responses back out.
void pump(SolveService& service, int in_fd, int out_fd) {
  LineReader reader(in_fd);
  LineWriter writer(out_fd);
  ResponseBarrier barrier;
  std::string line;
  bool oversized = false;
  while (reader.next(&line, &oversized)) {
    if (oversized) {
      obs::counter("service.transport.oversized").add();
      writer.write_line(oversized_line_response_json());
      continue;
    }
    if (line.empty()) continue;
    std::string ping_id;
    if (parse_ping(line, &ping_id)) {
      obs::counter("service.transport.pings").add();
      writer.write_line(pong_json(ping_id));
      continue;
    }
    std::string stats_id;
    if (parse_stats_probe(line, &stats_id)) {
      obs::counter("service.transport.stats_probes").add();
      ServeStatsSnapshot snap = service.stats_snapshot();
      snap.id = stats_id;
      writer.write_line(serve_stats_json(snap));
      continue;
    }
    barrier.submitted();
    service.submit(
        line,
        [&writer, &barrier](std::string response) {
          writer.write_line(response);
          barrier.answered();
        },
        [&writer](std::string partial) { writer.write_line(partial); });
  }
  barrier.wait_all_answered();
}

/// One multiplexed connection. The poll loop owns both reads and the
/// socket writes: a worker thread that finishes a job appends its whole
/// response line to `outbuf` under the mutex (so lines never interleave)
/// and pokes the wake pipe; the poll loop flushes on POLLOUT. A peer that
/// stops reading therefore stalls only its own buffer, never a worker
/// thread. The connection closes only once the client half-closed (or the
/// server is draining) AND every submitted request has been answered and
/// flushed — per-connection graceful drain.
struct MuxConn {
  MuxConn(int fd, int wake_fd)
      : fd(fd), wake_fd(wake_fd), last_activity_ms(steady_now_ms()) {}

  int fd;
  int wake_fd;  ///< write end of the poll loop's self-pipe
  std::string inbuf;
  bool eof = false;
  bool overflow = false;  ///< discarding an oversized line until newline
  std::atomic<long long> submitted{0};
  std::atomic<long long> answered{0};
  std::atomic<long long> last_activity_ms;

  std::mutex out_mu;
  std::string outbuf;        ///< guarded by out_mu
  bool write_failed = false;  ///< guarded by out_mu

  /// Queues one whole line (callable from any thread) and wakes the poll
  /// loop if the buffer was idle.
  void queue_line(const std::string& line) {
    bool was_empty = false;
    {
      std::lock_guard<std::mutex> lock(out_mu);
      if (write_failed) return;
      was_empty = outbuf.empty();
      outbuf.append(line);
      outbuf.push_back('\n');
    }
    last_activity_ms.store(steady_now_ms(), std::memory_order_relaxed);
    if (was_empty) {
      const char byte = 0;
      [[maybe_unused]] const ssize_t n = ::write(wake_fd, &byte, 1);
      // EAGAIN (pipe full) is fine: a wake byte is already pending.
    }
  }

  bool has_output() {
    std::lock_guard<std::mutex> lock(out_mu);
    return !outbuf.empty();
  }

  bool failed() {
    std::lock_guard<std::mutex> lock(out_mu);
    return write_failed;
  }

  /// Nonblocking flush from the poll loop. Returns false once the peer is
  /// gone (the connection keeps accounting, drops output).
  bool flush() {
    std::lock_guard<std::mutex> lock(out_mu);
    while (!outbuf.empty()) {
      const ssize_t n = ::write(fd, outbuf.data(), outbuf.size());
      if (n > 0) {
        outbuf.erase(0, static_cast<std::size_t>(n));
        last_activity_ms.store(steady_now_ms(), std::memory_order_relaxed);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      write_failed = true;
      outbuf.clear();
      return false;
    }
    return true;
  }

  bool answered_out() const {
    return answered.load(std::memory_order_acquire) >=
           submitted.load(std::memory_order_relaxed);
  }
};

void submit_conn_line(SolveService& service,
                      const std::shared_ptr<MuxConn>& conn,
                      const std::string& line) {
  if (line.empty()) return;
  std::string ping_id;
  if (parse_ping(line, &ping_id)) {
    obs::counter("service.transport.pings").add();
    conn->queue_line(pong_json(ping_id));
    return;
  }
  std::string stats_id;
  if (parse_stats_probe(line, &stats_id)) {
    // Answered from the poll loop like ping/pong: a scrape must see the
    // queue, not stand in it.
    obs::counter("service.transport.stats_probes").add();
    ServeStatsSnapshot snap = service.stats_snapshot();
    snap.id = stats_id;
    conn->queue_line(serve_stats_json(snap));
    return;
  }
  conn->submitted.fetch_add(1, std::memory_order_relaxed);
  service.submit(
      line,
      [conn](std::string response) {
        conn->queue_line(response);
        conn->answered.fetch_add(1, std::memory_order_release);
      },
      [conn](std::string partial) { conn->queue_line(partial); });
}

/// One read() worth of bytes from a ready connection, split into complete
/// lines and submitted. Level-triggered poll re-arms for any remainder.
/// Lines beyond kMaxProtocolLineBytes are answered with one structured
/// error and discarded up to the next newline (stream resync).
void read_conn(SolveService& service, const std::shared_ptr<MuxConn>& conn) {
  char chunk[65536];
  const ssize_t n = ::read(conn->fd, chunk, sizeof(chunk));
  if (n < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) return;
    conn->eof = true;
  } else if (n == 0) {
    conn->eof = true;
  } else {
    conn->inbuf.append(chunk, static_cast<std::size_t>(n));
    conn->last_activity_ms.store(steady_now_ms(), std::memory_order_relaxed);
  }
  while (true) {
    if (conn->overflow) {
      const auto nl = conn->inbuf.find('\n');
      if (nl == std::string::npos) {
        conn->inbuf.clear();
        break;
      }
      conn->inbuf.erase(0, nl + 1);
      conn->overflow = false;
    }
    const auto nl = conn->inbuf.find('\n');
    if (nl != std::string::npos) {
      // A complete line can still breach the cap when its newline lands in
      // the same chunk that crossed it — length-check before submitting.
      if (nl > kMaxProtocolLineBytes) {
        conn->inbuf.erase(0, nl + 1);
        obs::counter("service.transport.oversized").add();
        conn->queue_line(oversized_line_response_json());
        continue;
      }
      const std::string line = conn->inbuf.substr(0, nl);
      conn->inbuf.erase(0, nl + 1);
      submit_conn_line(service, conn, line);
      continue;
    }
    if (conn->inbuf.size() > kMaxProtocolLineBytes) {
      conn->overflow = true;
      conn->inbuf.clear();
      obs::counter("service.transport.oversized").add();
      conn->queue_line(oversized_line_response_json());
      continue;
    }
    break;
  }
  if (conn->eof && !conn->inbuf.empty() && !conn->overflow) {
    const std::string line = conn->inbuf;  // unterminated final line
    conn->inbuf.clear();
    submit_conn_line(service, conn, line);
  }
}

/// The shared poll loop behind the Unix-socket and TCP servers: accepts
/// connections, reads request lines from every live one, flushes queued
/// responses, reaps idle peers, and retires each connection once it is
/// answered out and flushed. On shutdown (signal or `stop`) it stops
/// accepting and reading, lets outstanding jobs answer, drains the
/// service, and returns 0. Takes ownership of `listen_fd`.
int serve_listener(SolveService& service, int listen_fd,
                   const std::atomic<bool>* stop) {
  net::set_nonblocking(listen_fd);
  int wake[2] = {-1, -1};
  if (::pipe2(wake, O_CLOEXEC | O_NONBLOCK) != 0) {
    ::close(listen_fd);
    return kExitIoError;
  }
  const double idle_timeout_ms = service.config().idle_timeout_ms;
  std::vector<std::shared_ptr<MuxConn>> conns;
  bool draining = false;

  while (true) {
    if (!draining &&
        (shutdown_requested() ||
         (stop != nullptr && stop->load(std::memory_order_relaxed)))) {
      draining = true;
    }
    const long long now_ms = steady_now_ms();
    // Retire connections whose every request has been answered AND whose
    // responses have left the buffer. While draining, unread input is
    // deliberately dropped — the contract is "everything submitted gets
    // answered", not "everything buffered". Idle peers (no request in
    // flight, nothing buffered, silent past the deadline) are reaped so a
    // half-open or byte-dribbling client cannot hold a slot forever; a
    // stalled reader is reaped on the same deadline once draining, or the
    // drain could never finish.
    conns.erase(
        std::remove_if(
            conns.begin(), conns.end(),
            [&](const std::shared_ptr<MuxConn>& c) {
              const bool failed = c->failed();
              const bool flushed = failed || !c->has_output();
              bool done = c->answered_out() &&
                          (draining ? flushed : flushed && (c->eof || failed));
              if (!done && idle_timeout_ms > 0 &&
                  now_ms - c->last_activity_ms.load(
                               std::memory_order_relaxed) >
                      static_cast<long long>(idle_timeout_ms)) {
                if (c->answered_out() && (draining || !c->eof)) {
                  obs::counter("service.transport.idle_reaped").add();
                  done = true;
                }
              }
              if (done) ::close(c->fd);
              return done;
            }),
        conns.end());
    if (draining && conns.empty()) break;

    std::vector<struct pollfd> pfds;
    std::vector<std::shared_ptr<MuxConn>> polled;
    pfds.push_back({wake[0], POLLIN, 0});
    if (!draining) {
      pfds.push_back({listen_fd, POLLIN, 0});
    }
    for (const auto& conn : conns) {
      short events = 0;
      if (!conn->eof && !draining) events |= POLLIN;
      if (conn->has_output()) events |= POLLOUT;
      if (events == 0) continue;
      pfds.push_back({conn->fd, events, 0});
      polled.push_back(conn);
    }
    const int ready = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
                             /*timeout_ms=*/100);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;

    std::size_t base = 1;
    if ((pfds[0].revents & POLLIN) != 0) {
      char sink[256];
      while (::read(wake[0], sink, sizeof(sink)) > 0) {
      }
    }
    if (!draining) {
      if ((pfds[1].revents & (POLLIN | POLLERR)) != 0) {
        while (true) {
          const int conn_fd = ::accept4(listen_fd, nullptr, nullptr,
                                        SOCK_CLOEXEC | SOCK_NONBLOCK);
          if (conn_fd < 0) break;  // EAGAIN: accepted everything pending
          net::set_tcp_nodelay(conn_fd);
          conns.push_back(std::make_shared<MuxConn>(conn_fd, wake[1]));
        }
      }
      base = 2;
    }
    for (std::size_t i = 0; i < polled.size(); ++i) {
      const short revents = pfds[base + i].revents;
      if ((revents & POLLOUT) != 0) polled[i]->flush();
      if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0 && !draining) {
        read_conn(service, polled[i]);
      }
    }
  }

  service.drain();
  ::close(wake[0]);
  ::close(wake[1]);
  ::close(listen_fd);
  return 0;
}

}  // namespace

void install_shutdown_handlers() {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = shutdown_signal_handler;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  // A client that disconnects mid-response must not kill the server with
  // SIGPIPE; writes fail with EPIPE and the connection is retired.
  ::signal(SIGPIPE, SIG_IGN);
}

bool shutdown_requested() {
  return g_shutdown.load(std::memory_order_relaxed);
}

void request_shutdown() { g_shutdown.store(true, std::memory_order_relaxed); }

int serve_stdio(SolveService& service, int in_fd, int out_fd) {
  pump(service, in_fd, out_fd);
  service.drain();
  return 0;
}

int serve_unix_socket(SolveService& service, const std::string& path) {
  net::Endpoint endpoint;
  endpoint.path = path;
  StatusOr<int> listener = net::listen_endpoint(endpoint);
  if (!listener.ok()) return kExitIoError;
  const int code = serve_listener(service, listener.value(), nullptr);
  ::unlink(path.c_str());
  return code;
}

int serve_tcp(SolveService& service, const std::string& endpoint,
              std::atomic<int>* bound_port, const std::atomic<bool>* stop) {
  StatusOr<net::Endpoint> parsed = net::parse_endpoint(endpoint);
  if (!parsed.ok() || !parsed.value().tcp) return kExitIoError;
  int port = 0;
  StatusOr<int> listener = net::listen_endpoint(parsed.value(), &port);
  if (!listener.ok()) return kExitIoError;
  if (bound_port != nullptr) {
    bound_port->store(port, std::memory_order_release);
  }
  return serve_listener(service, listener.value(), stop);
}

StatusOr<std::vector<std::string>> client_roundtrip(
    const std::string& endpoint,
    const std::vector<std::string>& request_lines) {
  // Fail fast means a status, not a signal: a peer that closes mid-batch
  // must surface as an EPIPE write failure, never a SIGPIPE death.
  ::signal(SIGPIPE, SIG_IGN);
  StatusOr<net::Endpoint> parsed = net::parse_endpoint(endpoint);
  if (!parsed.ok()) return parsed.status();
  StatusOr<int> connected = net::connect_endpoint(parsed.value());
  if (!connected.ok()) return connected.status();
  const int fd = connected.value();

  std::string out;
  for (const std::string& line : request_lines) {
    out += line;
    out.push_back('\n');
  }
  if (!net::write_all(fd, out.data(), out.size())) {
    ::close(fd);
    return io_error("write failed: " + std::string(std::strerror(errno)));
  }
  ::shutdown(fd, SHUT_WR);

  std::string buffer;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return io_error("read failed: " + std::string(std::strerror(errno)));
    }
    if (n == 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);

  std::vector<std::string> responses;
  std::size_t start = 0;
  while (start < buffer.size()) {
    std::size_t nl = buffer.find('\n', start);
    if (nl == std::string::npos) nl = buffer.size();
    if (nl > start) responses.push_back(buffer.substr(start, nl - start));
    start = nl + 1;
  }
  return responses;
}

}  // namespace soctest
