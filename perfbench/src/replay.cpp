#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "layout/bus_planner.hpp"
#include "layout/constraints.hpp"
#include "common/parallel.hpp"
#include "report/json.hpp"
#include "service/cache.hpp"
#include "service/frontdoor.hpp"
#include "service/protocol.hpp"
#include "soc/soc_format.hpp"
#include "tam/architect.hpp"
#include "tam/timing.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using soctest::InnerSolver;

/// The result cache of one worker: soctest-serve's default shard count.
constexpr std::size_t kCacheShards = 8;

class Recorder {
 public:
  Recorder(bool on, std::vector<Span>& spans, Clock::time_point t0)
      : on_(on), spans_(spans), t0_(t0) {}

  int begin(const char* name, std::size_t request) {
    if (!on_) return -1;
    spans_.push_back({name, request, current_, now_us(), 0.0});
    current_ = static_cast<int>(spans_.size() - 1);
    return current_;
  }

  void end(int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_us = now_us();
    current_ = spans_[static_cast<std::size_t>(index)].parent;
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }

  bool on_;
  std::vector<Span>& spans_;
  Clock::time_point t0_;
  int current_ = -1;
};

/// Records one span over its scope.
class Scoped {
 public:
  Scoped(Recorder& recorder, const char* name, std::size_t request)
      : recorder_(recorder), index_(recorder.begin(name, request)) {}
  ~Scoped() { recorder_.end(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Recorder& recorder_;
  int index_;
};

const char* solve_span(InnerSolver solver) {
  switch (solver) {
    case InnerSolver::kPack:
    case InnerSolver::kPackExact:
      return "pack.solve";
    case InnerSolver::kIlp:
      return "ilp.solve";
    default:
      return "tam.solve";
  }
}

std::vector<std::unique_ptr<soctest::ResultCache>> make_caches(
    int workers, std::size_t capacity) {
  std::vector<std::unique_ptr<soctest::ResultCache>> caches;
  for (int i = 0; i < workers; ++i) {
    caches.push_back(
        std::make_unique<soctest::ResultCache>(capacity, kCacheShards));
  }
  return caches;
}

/// Self time of every span: its duration minus its children's. A solve
/// span also loses the request's layout.plan time, because
/// design_architecture plans the buses again internally.
void compute_self_times(ReplayResult& result) {
  std::vector<double> child_us(result.spans.size(), 0.0);
  std::unordered_map<std::size_t, double> layout_us;
  for (const Span& s : result.spans) {
    const double d = s.end_us - s.start_us;
    if (s.parent >= 0) child_us[static_cast<std::size_t>(s.parent)] += d;
    if (std::string_view(s.name) == "layout.plan") layout_us[s.request] += d;
  }
  for (std::size_t i = 0; i < result.spans.size(); ++i) {
    const Span& s = result.spans[i];
    double self = s.end_us - s.start_us - child_us[i];
    const std::string_view name(s.name);
    if (name == "tam.solve" || name == "pack.solve" || name == "ilp.solve") {
      if (const auto it = layout_us.find(s.request); it != layout_us.end()) {
        self = std::max(0.0, self - it->second);
      }
    }
    result.self_us[s.name].push_back(self);
  }
}

}  // namespace

ReplayResult replay(const Workload& workload,
                    const std::vector<std::size_t>& positions, int workers,
                    std::size_t cache_capacity, bool traced, double budget_s,
                    std::size_t max_requests) {
  ReplayResult result;
  // Both passes start cold, like a freshly started fleet.
  soctest::test_time_table_memo().clear();
  auto caches = make_caches(workers, cache_capacity);
  const auto t0 = Clock::now();
  Recorder rec(traced, result.spans, t0);

  for (const std::size_t p : positions) {
    if (max_requests > 0 ? result.requests >= max_requests
                         : std::chrono::duration<double>(Clock::now() - t0)
                                   .count() >= budget_s) {
      break;
    }
    ++result.requests;
    Scoped root(rec, "request", p);
    const std::string line = request_line(workload, p);

    std::optional<soctest::StatusOr<soctest::ServiceRequest>> parsed;
    {
      Scoped s(rec, "service.parse_request", p);
      parsed.emplace(soctest::parse_request(line));
    }
    if (!parsed->ok()) continue;
    const soctest::ServiceRequest& request = parsed->value();

    std::optional<soctest::StatusOr<soctest::Soc>> loaded;
    {
      Scoped s(rec, "soc.parse", p);
      loaded.emplace(soctest::parse_soc_string(request.soc_text, request.id));
    }
    if (!loaded->ok()) continue;
    const soctest::Soc& soc = loaded->value();

    const bool use_cache = soctest::cacheable_request(request);
    std::string key;
    if (use_cache) {
      Scoped s(rec, "service.cache_key", p);
      key = soctest::solve_cache_key(request, soc);
    }
    soctest::ResultCache& cache =
        *caches[static_cast<std::size_t>(soctest::shard_for_line(line, workers))];
    if (use_cache && cache.get(key) != nullptr) continue;

    // The wrapper tables, built (or found in the memo) before the solve so
    // the solve span below measures the search alone.
    const bool pack = request.solver == InnerSolver::kPack ||
                      request.solver == InnerSolver::kPackExact;
    int max_width = 0;
    if (pack) {
      max_width = request.widths.empty() ? request.total_width : 0;
      for (int w : request.widths) max_width += w;
    } else if (request.widths.empty()) {
      max_width = request.total_width - (request.buses - 1);
    } else {
      max_width = *std::max_element(request.widths.begin(), request.widths.end());
    }
    {
      Scoped s(rec, "wrapper.table", p);
      const auto before = soctest::test_time_table_memo().stats();
      const auto start = Clock::now();
      soctest::cached_test_time_table(soc, std::max(1, max_width));
      const auto after = soctest::test_time_table_memo().stats();
      result.memo_hits += after.hits - before.hits;
      result.memo_misses += after.misses - before.misses;
      if (after.misses > before.misses) {
        result.table_build_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - start)
                .count());
      }
    }
    if (!pack && (request.d_max >= 0 || request.wire_budget >= 0)) {
      Scoped s(rec, "layout.plan", p);
      const int buses = request.widths.empty()
                            ? request.buses
                            : static_cast<int>(request.widths.size());
      try {
        const soctest::BusPlan plan = soctest::plan_buses(soc, buses);
        const soctest::LayoutConstraints constraints(plan, soc.num_cores(),
                                                     request.d_max);
        (void)constraints.all_cores_connectable();
      } catch (const std::exception&) {
        // The solve below reports the same failure as its answer.
      }
    }

    soctest::DesignRequest design;
    design.bus_widths = request.widths;
    design.num_buses = request.buses;
    design.total_width = request.total_width;
    design.d_max = request.d_max;
    design.wire_budget = request.wire_budget;
    design.p_max_mw = request.p_max;
    design.power_mode = request.power_mode;
    design.ate_depth_limit = request.ate_depth;
    design.solver = request.solver;
    design.threads = request.threads;
    // soctest-serve hands every solve a cancellation token, which routes
    // exact requests through the portfolio; the replay does the same.
    soctest::CancellationToken cancel;
    design.cancel = &cancel;
    soctest::SolveOutcome outcome;
    {
      Scoped s(rec, solve_span(request.solver), p);
      try {
        const soctest::DesignResult r = soctest::design_architecture(soc, design);
        outcome.ok = true;
        outcome.stop = soctest::stop_reason_name(r.stop);
        if (!pack && request.solver != InnerSolver::kIlp) {
          result.partitions_tried += r.partitions_tried;
          result.nodes += r.total_nodes;
        }
      } catch (const std::invalid_argument&) {
        outcome.ok = false;
      } catch (const std::runtime_error&) {
        outcome.ok = true;
        outcome.stop = "none";
      }
    }
    if (use_cache && soctest::cacheable_outcome(outcome)) {
      cache.put(key, std::make_shared<const soctest::SolveOutcome>(outcome));
    }
  }
  result.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  compute_self_times(result);
  return result;
}

CacheReplay replay_cache(const Workload& workload,
                         const std::vector<std::size_t>& positions,
                         int workers, std::size_t cache_capacity) {
  auto caches = make_caches(workers, cache_capacity);
  // Key and shard depend on the template only; compute each once.
  std::unordered_map<std::uint32_t, std::pair<std::string, int>> keys;
  for (const std::size_t p : positions) {
    const std::uint32_t t = template_at(workload, p);
    auto it = keys.find(t);
    if (it == keys.end()) {
      const std::string line = template_line(workload, t, "k");
      auto request = soctest::parse_request(line);
      if (!request.ok()) continue;
      auto soc = soctest::parse_soc_string(request.value().soc_text);
      if (!soc.ok()) continue;
      it = keys.emplace(t, std::make_pair(soctest::solve_cache_key(
                                              request.value(), soc.value()),
                                          soctest::shard_for_line(line, workers)))
               .first;
    }
    soctest::ResultCache& cache = *caches[static_cast<std::size_t>(it->second.second)];
    if (cache.get(it->second.first) == nullptr) {
      cache.put(it->second.first, std::make_shared<const soctest::SolveOutcome>());
    }
  }
  CacheReplay out;
  for (const auto& cache : caches) {
    const auto stats = cache->stats();
    out.hits += stats.hits;
    out.misses += stats.misses;
    out.evictions += stats.evictions;
  }
  return out;
}

bool write_trace(const ReplayResult& result, const std::string& path,
                 std::size_t max_requests) {
  std::ofstream out(path);
  if (!out) return false;
  soctest::JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  std::unordered_map<std::size_t, int> seen;
  for (const Span& s : result.spans) {
    if (seen.size() >= max_requests && seen.count(s.request) == 0) continue;
    seen.emplace(s.request, 0);
    w.begin_object();
    w.key("name").value(s.name);
    w.key("ph").value("X");
    w.key("pid").value(1);
    w.key("tid").value(1);
    w.key("ts").value(s.start_us);
    w.key("dur").value(s.end_us - s.start_us);
    w.key("args").begin_object();
    w.key("request").value(static_cast<long long>(s.request));
    w.key("parent").value(s.parent);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << w.str() << "\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
