#include "load.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>

#include <cstdio>

#include <poll.h>
#include <time.h>
#include <unistd.h>

#include "fleet.hpp"
#include "report/json.hpp"
#include "service/frontdoor.hpp"
#include "service/protocol.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Open loop: a step stops sending once this many requests are outstanding
/// on one worker. It sits below a worker's admission bound (64 queued or
/// running jobs), so a growing backlog is detected before any rejection.
constexpr std::size_t kMaxShardBacklog = 56;
/// Finals still missing this long after the last send count as lost.
constexpr double kDrainTimeoutMs = 30000.0;
constexpr double kStealSampleMs = 100.0;

class LoadClient {
 public:
  LoadClient(const Workload& workload, const std::string& endpoint,
             int workers, const Mark& mark)
      : workload_(workload),
        workers_(workers),
        mark_(mark),
        shard_outstanding_(static_cast<std::size_t>(workers), 0),
        t0_(Clock::now()) {
    for (int c = 0; c < workload.connections; ++c) {
      auto conn = LineConnection::open(endpoint);
      if (!conn.ok()) {
        throw std::runtime_error("connect " + endpoint + ": " +
                                 conn.status().message());
      }
      conns_.push_back(std::move(conn.value()));
      busy_.push_back(false);
      free_since_.push_back(0.0);
    }
  }

  double now_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0_)
        .count();
  }

  /// Sends stream position `position` on connection `c`.
  bool send(std::size_t c, std::size_t position, double due_ms) {
    const std::string line = request_line(workload_, position);
    if (result_.records.size() <= position) {
      result_.records.resize(position + 1);
    }
    RequestRecord& record = result_.records[position];
    record.due_ms = due_ms;
    record.sent_ms = now_ms();
    if (!conns_[c]->send(line)) {
      ++result_.transport_errors;
      dead_ = true;
      return false;
    }
    busy_[c] = true;
    conn_of_.resize(std::max(conn_of_.size(), position + 1));
    conn_of_[position] = c;
    shard_of_.resize(conn_of_.size());
    shard_of_[position] = static_cast<std::size_t>(
        soctest::shard_for_line(line, workers_));
    ++shard_outstanding_[shard_of_[position]];
    ++outstanding_;
    return true;
  }

  /// Waits up to `timeout_ms` for responses and handles every line.
  void pump(double timeout_ms) {
    if (const double now = now_ms(); now >= next_steal_ms_) {
      result_.steal_samples.emplace_back(now, cpu_steal_s());
      next_steal_ms_ = now + kStealSampleMs;
    }
    std::vector<pollfd> fds;
    for (const auto& conn : conns_) fds.push_back({conn->fd(), POLLIN, 0});
    const double clamped = std::max(0.0, timeout_ms);
    timespec ts{static_cast<time_t>(clamped / 1000.0),
                static_cast<long>(std::fmod(clamped, 1000.0) * 1e6)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) return;
    std::vector<std::string> lines;
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      if (fds[c].revents == 0) continue;
      if (!conns_[c]->pump(lines)) {
        ++result_.transport_errors;
        dead_ = true;
      }
    }
    const double now = now_ms();
    for (const std::string& line : lines) handle(line, now);
  }

  std::size_t outstanding() const { return outstanding_; }
  std::size_t max_shard_outstanding() const {
    return *std::max_element(shard_outstanding_.begin(),
                             shard_outstanding_.end());
  }
  bool dead() const { return dead_; }
  bool idle(std::size_t c) const { return !busy_[c]; }
  double free_since(std::size_t c) const { return free_since_[c]; }
  std::size_t connections() const { return conns_.size(); }
  LoadResult& result() { return result_; }

 private:
  void handle(const std::string& line, double now) {
    const auto doc = soctest::parse_json(line);
    if (!doc || !doc->is_object()) {
      ++result_.unmatched_finals;
      return;
    }
    const std::string id = doc->string_or("id", "");
    const auto dash = id.rfind('-');
    std::size_t position = result_.records.size();
    if (dash != std::string::npos) {
      position = static_cast<std::size_t>(std::strtoull(id.c_str() + dash + 1,
                                                        nullptr, 10));
    }
    if (position >= result_.records.size()) {
      ++result_.unmatched_finals;
      return;
    }
    RequestRecord& record = result_.records[position];
    if (doc->string_or("schema", "") == soctest::kPartialSchema) {
      const auto t = static_cast<long long>(doc->number_or("t_cycles", -1.0));
      if (record.partials > 0 && t >= record.last_partial_t) {
        record.partials_monotone = false;
      }
      record.last_partial_t = t;
      ++record.partials;
      return;
    }
    if (++record.finals == 1) {
      if (++finals_ == mark_.finals && mark_.hook) mark_.hook();
      record.done_ms = now;
      record.final_line = line;
      busy_[conn_of_[position]] = false;
      free_since_[conn_of_[position]] = now;
      --shard_outstanding_[shard_of_[position]];
      --outstanding_;
    }
  }

  const Workload& workload_;
  int workers_;
  const Mark& mark_;
  std::size_t finals_ = 0;  ///< distinct requests answered so far
  /// Requests in flight per worker, by the front door's sharding rule.
  std::vector<std::size_t> shard_outstanding_;
  std::vector<std::size_t> shard_of_;
  Clock::time_point t0_;
  std::vector<std::unique_ptr<LineConnection>> conns_;
  std::vector<bool> busy_;
  std::vector<std::size_t> conn_of_;  ///< connection of each position
  std::size_t outstanding_ = 0;
  std::vector<double> free_since_;    ///< when each connection went idle
  double next_steal_ms_ = 0.0;
  bool dead_ = false;
  LoadResult result_;
};

}  // namespace

double cpu_steal_s() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  const long ticks = ::sysconf(_SC_CLK_TCK);
  return n == 8 && ticks > 0
             ? static_cast<double>(v[7]) / static_cast<double>(ticks)
             : 0.0;
}

double steal_between(const LoadResult& result, double from_ms, double to_ms) {
  // The last sample at or before each end.
  auto at = [&](double t) {
    double steal = result.steal_samples.empty()
                       ? 0.0
                       : result.steal_samples.front().second;
    for (const auto& [ms, s] : result.steal_samples) {
      if (ms > t) break;
      steal = s;
    }
    return steal;
  };
  return at(to_ms) - at(from_ms);
}

double latency_ms(const RequestRecord& record, bool open_loop) {
  return record.done_ms - (open_loop ? record.due_ms : record.sent_ms);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

bool final_ok(const std::string& line) {
  const auto doc = soctest::parse_json(line);
  const soctest::JsonValue* ok = doc ? doc->find("ok") : nullptr;
  return ok != nullptr && ok->is_bool() && ok->boolean;
}

LoadResult run_closed_loop(const Workload& workload,
                           const std::string& endpoint, int workers,
                           double seconds, const Mark& mark) {
  LoadClient client(workload, endpoint, workers, mark);
  const double window_ms = seconds * 1000.0;
  std::size_t next = 0;
  double last_send_ms = 0.0;
  while (!client.dead()) {
    const double now = client.now_ms();
    for (std::size_t c = 0; c < client.connections(); ++c) {
      if (!client.idle(c)) continue;
      if (now >= window_ms || next >= workload.stream.size()) continue;
      if (!client.send(c, next, client.free_since(c))) break;
      ++next;
      last_send_ms = client.now_ms();
    }
    if (client.outstanding() == 0 &&
        (now >= window_ms || next >= workload.stream.size())) {
      break;
    }
    if (now - last_send_ms > kDrainTimeoutMs) break;
    client.pump(5.0);
  }
  LoadResult result = std::move(client.result());
  result.window_s = seconds;
  return result;
}

LoadResult run_open_loop(const Workload& workload, const std::string& endpoint,
                         int workers, double seconds, double p99_limit_ms,
                         const Mark& mark) {
  LoadClient client(workload, endpoint, workers, mark);
  const double window_ms = seconds * 1000.0;
  const double report_ms = window_ms * workload.report_share;
  const double other_ms =
      (window_ms - report_ms) /
      static_cast<double>(std::max<std::size_t>(1, workload.ladder_rps.size() - 1));
  // Warm-up, outside every step: the first positions go out closed loop,
  // one in flight per connection, until the caches hold their steady state.
  std::size_t next = 0;
  const double warmup_deadline_ms = client.now_ms() + kDrainTimeoutMs;
  while (!client.dead() && client.now_ms() < warmup_deadline_ms &&
         (next < workload.warmup_requests || client.outstanding() > 0)) {
    while (next < workload.warmup_requests &&
           client.outstanding() < client.connections()) {
      if (!client.send(next % client.connections(), next, client.now_ms())) {
        break;
      }
      ++next;
    }
    client.pump(5.0);
  }
  client.result().warmup = next;
  for (std::size_t k = 0; k < workload.ladder_rps.size() && !client.dead();
       ++k) {
    const double step_ms = k == workload.report_step ? report_ms : other_ms;
    StepResult step;
    step.rate_rps = workload.ladder_rps[k];
    step.first = next;
    const double interval_ms = 1000.0 / step.rate_rps;
    const auto planned =
        static_cast<std::size_t>(std::floor(step_ms / interval_ms));
    const double start_ms = client.now_ms();
    std::size_t sent = 0;
    while (!client.dead()) {
      double now = client.now_ms();
      while (sent < planned && !step.aborted) {
        const double due = start_ms + static_cast<double>(sent) * interval_ms;
        if (due > now) break;
        if (client.max_shard_outstanding() >= kMaxShardBacklog) {
          step.aborted = true;
          break;
        }
        if (!client.send(next % client.connections(), next, due)) break;
        ++next;
        ++sent;
        now = client.now_ms();
      }
      const bool sending = sent < planned && !step.aborted;
      if (!sending && client.outstanding() == 0) break;
      if (!sending && now - start_ms - step_ms > kDrainTimeoutMs) break;
      const double wait =
          sending ? start_ms + static_cast<double>(sent) * interval_ms - now
                  : 5.0;
      client.pump(std::min(wait, 5.0));
    }
    step.count = next - step.first;

    std::vector<double> latencies;
    std::size_t ok = 0;
    double last_done = start_ms;
    const auto& records = client.result().records;
    for (std::size_t i = step.first; i < next; ++i) {
      const RequestRecord& r = records[i];
      if (r.done_ms < 0) continue;
      latencies.push_back(latency_ms(r, true));
      last_done = std::max(last_done, r.done_ms);
      if (final_ok(r.final_line)) ++ok;
    }
    step.p99_ms = quantile(latencies, 0.99);
    step.completion_rps =
        last_done > start_ms
            ? 1000.0 * static_cast<double>(ok) / (last_done - start_ms)
            : 0.0;
    step.passed = !step.aborted && ok == step.count && step.count > 0 &&
                  step.p99_ms <= p99_limit_ms;
    client.result().steps.push_back(step);
    if (!step.passed && k >= workload.report_step) break;
  }
  return std::move(client.result());
}

}  // namespace perfbench
