// perfbench: the repository benchmark program (README.md in this directory).
//
//   perfbench --workload sweep_exact --seed 1 --seconds 20 --trace 0
//             --bin-dir .bench_build --work-dir .bench_build/fleet
//
// Starts a soctest-frontdoor fleet (2 soctest-serve workers, 1 solve thread
// each), drives one workload through it, checks every answer, and prints
// one JSON result object as the last line of stdout. --trace 1 prints the
// per-layer metrics instead, from the response timing fields, the fleet's
// stats scrape, and an in-process replay of the sent requests.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include "fleet.hpp"
#include "load.hpp"
#include "oracle.hpp"
#include "replay.hpp"
#include "report/json.hpp"
#include "workloads.hpp"

namespace {

using perfbench::RequestRecord;

constexpr int kWorkers = perfbench::kFleetWorkers;
constexpr int kWorkerThreads = 1;
/// soctest-serve's default result-cache capacity (--cache), which the
/// front door passes to every worker.
constexpr std::size_t kWorkerCache = 512;
constexpr int kSetupRepeats = 5;
/// Answers re-solved in-process per run, evenly spaced over the finals.
constexpr std::size_t kOracleSample = 64;
/// hot_cache: a ladder step passes when its p99 (from the due time) stays
/// within this limit and its backlog never hits the cap.
constexpr double kP99LimitMs = 50.0;
/// Closed loop: the window is cut into this many slices; throughput, p50
/// and p99 come from the quiet ones (quiet_slices). Two-second slices let
/// the selection step around steal that comes and goes within a run.
constexpr std::size_t kWindowSlices = 15;
/// Closed loop: the first slices are a warm-up and never measured. Fresh
/// workers fault in their pages and meet every SOC for the first time, and
/// the first slice reads up to a third slower than the rest.
constexpr std::size_t kWarmupSlices = 1;
/// A slice counts as quiet when its steal exceeds the quietest slice's by
/// at most this many seconds per second of slice (1% of one CPU).
constexpr double kQuietStealPerS = 0.01;
/// The quiet slices hold at least this many latency samples, so at least
/// ten lie above p99.
constexpr std::size_t kMinQuietSamples = 1000;
/// Open loop: the report step is cut into this many slices; p50 and p99
/// come from the quiet ones.
constexpr std::size_t kLatencySlices = 18;
/// peak_rss_mb is read when this many requests have been answered.
constexpr std::size_t kRssMarkFinals = 1000;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;
  std::string work_dir;
  std::string commit = "unknown";
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --bin-dir DIR --work-dir DIR "
               "[--commit ID] [--trace-out FILE]\n",
               message.c_str());
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(arg + " needs a value");
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      opt.trace = value == "1";
    } else if (arg == "--bin-dir") {
      opt.bin_dir = value;
    } else if (arg == "--work-dir") {
      opt.work_dir = value;
    } else if (arg == "--commit") {
      opt.commit = value;
    } else if (arg == "--trace-out") {
      opt.trace_out = value;
    } else {
      usage("unknown argument " + arg);
    }
  }
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), opt.workload) == names.end()) {
    usage("unknown workload '" + opt.workload + "'");
  }
  if (opt.seconds <= 0) usage("--seconds must be positive");
  if (opt.bin_dir.empty() || opt.work_dir.empty()) {
    usage("--bin-dir and --work-dir are required");
  }
  return opt;
}

/// Timing a sanitizer or unoptimized build measures the instrumentation.
void refuse_unfit_build() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  bool sanitized = false;
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  sanitized = true;
#endif
  bool asserts = false;
#ifndef NDEBUG
  asserts = true;
#endif
  if (sanitized || asserts || (type != "Release" && type != "RelWithDebInfo")) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s build%s; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 type.c_str(), sanitized ? " with sanitizers" : "");
    std::exit(3);
  }
}

double median(std::vector<double> v) { return perfbench::quantile(v, 0.5); }

/// Indices of the quiet slices of `slices` (latency samples per slice):
/// every slice whose hypervisor steal is within kQuietStealPerS x `slice_s`
/// of the quietest one, and at least the quietest third and kMinQuietSamples
/// samples. A slice in which the hypervisor ran other guests on this
/// machine's CPUs measured them, not the program.
std::vector<std::size_t> quiet_slices(
    const std::vector<std::vector<double>>& slices,
    const std::vector<double>& steal, double slice_s) {
  std::vector<std::size_t> order(steal.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return steal[a] < steal[b];
  });
  std::size_t keep = 0;
  std::size_t samples = 0;
  while (keep < order.size() &&
         (keep < (order.size() + 2) / 3 || samples < kMinQuietSamples ||
          steal[order[keep]] <= steal[order[0]] + kQuietStealPerS * slice_s)) {
    samples += slices[order[keep]].size();
    ++keep;
  }
  order.resize(keep);
  return order;
}

/// The samples of the given slices, pooled.
std::vector<double> pooled(const std::vector<std::vector<double>>& slices,
                           const std::vector<std::size_t>& which) {
  std::vector<double> out;
  for (std::size_t k : which) {
    out.insert(out.end(), slices[k].begin(), slices[k].end());
  }
  return out;
}

void print_slices(const char* label, const std::vector<double>& values) {
  std::printf("perfbench: %s=", label);
  for (double v : values) std::printf(" %.3f", v);
  std::printf("\n");
}

/// Numeric member of a JSON object, 0 when absent.
double number(const soctest::JsonValue& doc, const char* key) {
  return doc.number_or(key, 0.0);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string result_json(bool correct, long long attempted, long long failed,
                        const std::vector<Metric>& metrics) {
  soctest::JsonWriter w;
  w.begin_object();
  w.key("correct").value(correct);
  w.key("attempted").value(attempted);
  w.key("failed").value(failed);
  w.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

/// Counts of the answer checks, over every sent request.
struct Verdict {
  long long attempted = 0;
  long long failed = 0;
  long long missing = 0;
  long long duplicates = 0;
  long long not_ok = 0;
  long long partial_order = 0;
  long long inconsistent = 0;
  long long oracle_mismatches = 0;
  perfbench::OracleResult oracle;
};

Verdict check(const perfbench::Workload& workload,
              const perfbench::LoadResult& load, int threads) {
  Verdict v;
  v.attempted = static_cast<long long>(load.records.size());
  std::vector<bool> bad(load.records.size(), false);
  // Same template, same answer: repeats (cache hits included) must agree.
  std::unordered_map<std::uint32_t, perfbench::Answer> first_answer;
  std::vector<std::size_t> answered;
  for (std::size_t i = 0; i < load.records.size(); ++i) {
    const RequestRecord& r = load.records[i];
    if (r.finals == 0) {
      ++v.missing;
      bad[i] = true;
      continue;
    }
    if (r.finals > 1) {
      ++v.duplicates;
      bad[i] = true;
    }
    if (!r.partials_monotone) {
      ++v.partial_order;
      bad[i] = true;
    }
    const perfbench::Answer answer = perfbench::parse_answer(r.final_line);
    if (!answer.ok) {
      ++v.not_ok;
      bad[i] = true;
      continue;
    }
    const auto [it, fresh] =
        first_answer.emplace(perfbench::template_at(workload, i), answer);
    if (!fresh && !(it->second == answer)) {
      ++v.inconsistent;
      bad[i] = true;
    }
    answered.push_back(i);
  }

  std::vector<perfbench::OracleSample> sample;
  std::vector<std::size_t> sample_index;
  const std::size_t n = std::min(kOracleSample, answered.size());
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = answered[k * answered.size() / n];
    sample.push_back({perfbench::request_line(workload, i),
                      load.records[i].final_line});
    sample_index.push_back(i);
  }
  v.oracle = perfbench::check_answers(sample, threads);
  for (std::size_t m : v.oracle.mismatched) {
    ++v.oracle_mismatches;
    bad[sample_index[m]] = true;
  }
  for (bool b : bad) v.failed += b ? 1 : 0;
  v.failed += load.unmatched_finals;
  return v;
}


/// a / b, or 0 when b is 0 (a layer the workload never exercised).
double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

double sum(const std::vector<double>& v) {
  double t = 0.0;
  for (double x : v) t += x;
  return t;
}

/// The end-to-end figures of one run (README.md, "End-to-end metrics").
std::vector<Metric> end_to_end_metrics(const perfbench::Workload& workload,
                                       const perfbench::LoadResult& load,
                                       const Verdict& verdict,
                                       double peak_rss_mb, double setup_s) {
  std::vector<double> latencies;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t p99_samples = 0;
  double throughput_rps = 0.0;
  double sustained_rps = 0.0;
  if (workload.open_loop) {
    for (const perfbench::StepResult& s : load.steps) {
      std::printf("perfbench: step rate=%.0f sent=%zu p99=%.3fms "
                  "completion=%.1f/s aborted=%d passed=%d\n",
                  s.rate_rps, s.count, s.p99_ms, s.completion_rps,
                  s.aborted ? 1 : 0, s.passed ? 1 : 0);
      if (s.passed) sustained_rps = s.completion_rps;
    }
    if (workload.report_step < load.steps.size()) {
      const perfbench::StepResult& report = load.steps[workload.report_step];
      throughput_rps = report.completion_rps;
      // p50 and p99 pool the quiet ones of consecutive slices of the step,
      // so a stall of the machine moves the figures little.
      const std::size_t slice = report.count / kLatencySlices;
      std::vector<std::vector<double>> slices;
      std::vector<double> slice_steal;
      std::vector<double> current;
      double slice_start_ms = 0.0;
      for (std::size_t i = report.first; i < report.first + report.count; ++i) {
        const RequestRecord& r = load.records[i];
        if (r.done_ms < 0) continue;
        if (current.empty()) slice_start_ms = r.due_ms;
        latencies.push_back(perfbench::latency_ms(r, true));
        current.push_back(latencies.back());
        if (current.size() == slice) {
          slice_steal.push_back(
              perfbench::steal_between(load, slice_start_ms, r.done_ms));
          slices.push_back(std::move(current));
          current.clear();
        }
      }
      std::vector<double> slice_p99;
      for (const auto& v : slices) {
        slice_p99.push_back(perfbench::quantile(v, 0.99));
      }
      print_slices("report step slices p99_ms", slice_p99);
      print_slices("report step slices steal_s", slice_steal);
      const std::vector<std::size_t> quiet = quiet_slices(
          slices, slice_steal, static_cast<double>(slice) / report.rate_rps);
      std::printf("perfbench: quiet slices=%zu of %zu\n", quiet.size(),
                  slice_steal.size());
      const std::vector<double> quiet_latencies =
          slices.empty() ? latencies : pooled(slices, quiet);
      p50_ms = perfbench::quantile(quiet_latencies, 0.5);
      p99_ms = perfbench::quantile(quiet_latencies, 0.99);
      p99_samples = quiet_latencies.size();
    }
  } else {
    // Throughput, p50 and p99 come from the quiet ones of equal slices of
    // the window, so a stall of the machine moves the figures little.
    const double slice_ms = load.window_s * 1000.0 / kWindowSlices;
    std::vector<double> slice_rps(kWindowSlices, 0.0);
    std::vector<std::vector<double>> slices(kWindowSlices);
    for (const RequestRecord& r : load.records) {
      if (r.done_ms < 0) continue;
      latencies.push_back(perfbench::latency_ms(r, false));
      const auto slice = static_cast<std::size_t>(r.done_ms / slice_ms);
      if (slice >= slice_rps.size()) continue;
      slices[slice].push_back(latencies.back());
      if (perfbench::final_ok(r.final_line)) slice_rps[slice] += 1000.0 / slice_ms;
    }
    std::vector<double> slice_steal;
    std::vector<double> slice_p99;
    for (std::size_t k = 0; k < kWindowSlices; ++k) {
      slice_steal.push_back(perfbench::steal_between(
          load, static_cast<double>(k) * slice_ms,
          static_cast<double>(k + 1) * slice_ms));
      slice_p99.push_back(perfbench::quantile(slices[k], 0.99));
    }
    print_slices("slices rps", slice_rps);
    print_slices("slices p99_ms", slice_p99);
    print_slices("slices steal_s", slice_steal);
    slices.erase(slices.begin(), slices.begin() + kWarmupSlices);
    slice_steal.erase(slice_steal.begin(), slice_steal.begin() + kWarmupSlices);
    slice_rps.erase(slice_rps.begin(), slice_rps.begin() + kWarmupSlices);
    const std::vector<std::size_t> quiet =
        quiet_slices(slices, slice_steal, slice_ms / 1000.0);
    std::printf("perfbench: quiet slices=%zu of %zu\n", quiet.size(),
                slice_steal.size());
    std::vector<double> quiet_rps;
    for (std::size_t k : quiet) quiet_rps.push_back(slice_rps[k]);
    const std::vector<double> quiet_latencies = pooled(slices, quiet);
    throughput_rps = median(quiet_rps);
    p50_ms = perfbench::quantile(quiet_latencies, 0.5);
    p99_ms = perfbench::quantile(quiet_latencies, 0.99);
    p99_samples = quiet_latencies.size();
    // A closed loop never builds a backlog: its rate is its sustained rate.
    sustained_rps = throughput_rps;
  }
  std::printf("perfbench: latency samples=%zu, of them for p99=%zu "
              "(above p99: %zu)\n",
              latencies.size(), p99_samples, p99_samples / 100);
  return {
      {"throughput_rps", throughput_rps, "req/s"},
      {"latency_p50_ms", p50_ms, "ms"},
      {"latency_p99_ms", p99_ms, "ms"},
      {"sustained_rps", sustained_rps, "req/s"},
      {"ok_share",
       ratio(static_cast<double>(verdict.attempted - verdict.failed),
             static_cast<double>(verdict.attempted)),
       "ratio"},
      {"makespan_ratio",
       ratio(verdict.oracle.returned_sum, verdict.oracle.optimum_sum), "ratio"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
      {"setup_s", setup_s, "s"},
  };
}

/// The per-layer figures (README.md, "Traced pass"): response timing
/// fields, the stats scrape, and three in-process replays of the sent
/// requests (untraced, traced, untraced).
std::vector<Metric> per_layer_metrics(const Options& opt,
                                      const perfbench::Workload& workload,
                                      const perfbench::LoadResult& load,
                                      const soctest::JsonValue& stats) {
  std::vector<double> queue_ms, wall_ms, relay_ms, send_lag_ms;
  for (std::size_t i = 0; i < load.records.size(); ++i) {
    const RequestRecord& r = load.records[i];
    // Warm-up requests have no schedule to lag behind.
    if (i >= load.warmup) send_lag_ms.push_back(r.sent_ms - r.due_ms);
    if (r.done_ms < 0) continue;
    const auto doc = soctest::parse_json(r.final_line);
    if (!doc || !doc->is_object()) continue;
    queue_ms.push_back(number(*doc, "queue_ms"));
    wall_ms.push_back(number(*doc, "wall_ms"));
    relay_ms.push_back(std::max(
        0.0, r.done_ms - r.sent_ms - queue_ms.back() - wall_ms.back()));
  }
  double rejected = number(stats, "rejected");
  double scraped_hits = 0.0;
  double scraped_lookups = 0.0;
  std::vector<double> completed;
  if (const soctest::JsonValue* shards = stats.find("shards");
      shards != nullptr && shards->is_array()) {
    for (const soctest::JsonValue& shard : shards->items) {
      completed.push_back(number(shard, "completed"));
      rejected += number(shard, "rejected");
      scraped_hits += number(shard, "cache_hits");
      scraped_lookups +=
          number(shard, "cache_hits") + number(shard, "cache_misses");
    }
  }
  const double shard_skew =
      completed.empty()
          ? 0.0
          : ratio(*std::max_element(completed.begin(), completed.end()),
                  sum(completed) / static_cast<double>(completed.size()));

  std::vector<std::size_t> positions(load.records.size());
  for (std::size_t i = 0; i < positions.size(); ++i) positions[i] = i;
  const perfbench::CacheReplay cache =
      perfbench::replay_cache(workload, positions, kWorkers, kWorkerCache);
  const double hit_ratio = ratio(static_cast<double>(cache.hits),
                                 static_cast<double>(cache.hits + cache.misses));
  const double scraped_ratio = ratio(scraped_hits, scraped_lookups);
  if (std::abs(hit_ratio - scraped_ratio) > 0.05) {
    std::fprintf(stderr,
                 "perfbench: cache replay hit ratio %.3f disagrees with the "
                 "scraped %.3f\n",
                 hit_ratio, scraped_ratio);
  }
  // The overhead compares the traced pass with the mean of the untraced
  // passes around it, so warm-up effects of the first pass cancel.
  const double budget_s = std::min(opt.seconds, 30.0) / 3.0;
  const perfbench::ReplayResult plain = perfbench::replay(
      workload, positions, kWorkers, kWorkerCache, false, budget_s, 0);
  const std::size_t replayed = std::max<std::size_t>(1, plain.requests);
  const perfbench::ReplayResult traced = perfbench::replay(
      workload, positions, kWorkers, kWorkerCache, true, 0.0, replayed);
  const perfbench::ReplayResult plain_again = perfbench::replay(
      workload, positions, kWorkers, kWorkerCache, false, 0.0, replayed);
  const double plain_s = (plain.wall_s + plain_again.wall_s) / 2.0;
  if (!opt.trace_out.empty() &&
      !perfbench::write_trace(traced, opt.trace_out, 500)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_out.c_str());
  }

  auto self = [&](const char* name) -> const std::vector<double>& {
    static const std::vector<double> none;
    const auto it = traced.self_us.find(name);
    return it == traced.self_us.end() ? none : it->second;
  };
  auto p50_ms = [&](const char* name) {
    return perfbench::quantile(self(name), 0.5) / 1000.0;
  };
  const double tam_solves = static_cast<double>(self("tam.solve").size());
  const double tam_us = sum(self("tam.solve"));
  const double solver_side_us = sum(self("wrapper.table")) +
                                sum(self("layout.plan")) + tam_us +
                                sum(self("pack.solve")) + sum(self("ilp.solve"));
  // Relay time of the replayed requests, scaled from the fleet's mean.
  const double relay_us = 1000.0 * ratio(sum(relay_ms),
                                         static_cast<double>(relay_ms.size())) *
                          static_cast<double>(traced.requests);
  const double front_side_us =
      sum(self("soc.parse")) + sum(self("service.parse_request")) +
      sum(self("service.cache_key")) + sum(self("request")) + relay_us;
  const double all_us = solver_side_us + front_side_us;
  const double memo_calls =
      static_cast<double>(traced.memo_hits + traced.memo_misses);

  return {
      {"soc.parse_us", perfbench::quantile(self("soc.parse"), 0.5), "us"},
      {"service.request_parse_us",
       perfbench::quantile(self("service.parse_request"), 0.5), "us"},
      {"service.cache_key_us",
       perfbench::quantile(self("service.cache_key"), 0.5), "us"},
      {"service.cache_hit_ratio", hit_ratio, "ratio"},
      {"service.cache_hit_ratio_scraped", scraped_ratio, "ratio"},
      {"service.cache_evictions", static_cast<double>(cache.evictions),
       "count"},
      {"service.queue_wait_ms", perfbench::quantile(queue_ms, 0.99), "ms"},
      {"service.solve_wall_ms", perfbench::quantile(wall_ms, 0.5), "ms"},
      {"frontdoor.relay_ms", perfbench::quantile(relay_ms, 0.5), "ms"},
      {"frontdoor.shard_skew", shard_skew, "ratio"},
      {"frontdoor.rejected", rejected, "count"},
      {"wrapper.table_build_ms",
       ratio(sum(traced.table_build_ms),
             static_cast<double>(traced.table_build_ms.size())),
       "ms"},
      {"wrapper.table_memo_hit_ratio",
       ratio(static_cast<double>(traced.memo_hits), memo_calls), "ratio"},
      {"layout.plan_ms", p50_ms("layout.plan"), "ms"},
      {"tam.solve_ms", p50_ms("tam.solve"), "ms"},
      {"tam.partitions_tried",
       ratio(static_cast<double>(traced.partitions_tried), tam_solves),
       "count"},
      {"tam.nodes", ratio(static_cast<double>(traced.nodes), tam_solves),
       "count"},
      {"tam.nodes_per_s", ratio(static_cast<double>(traced.nodes), tam_us / 1e6),
       "1/s"},
      {"pack.solve_ms", p50_ms("pack.solve"), "ms"},
      {"ilp.solve_ms", p50_ms("ilp.solve"), "ms"},
      {"client.send_lag_ms", perfbench::quantile(send_lag_ms, 0.99), "ms"},
      {"trace.overhead_pct", 100.0 * ratio(traced.wall_s - plain_s, plain_s),
       "%"},
      {"trace.replayed", static_cast<double>(traced.requests), "count"},
      {"share.tam_wrapper_pct", 100.0 * ratio(solver_side_us, all_us), "%"},
      {"share.soc_service_frontdoor_pct", 100.0 * ratio(front_side_us, all_us),
       "%"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  refuse_unfit_build();
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d nproc=%d "
              "build=%s commit=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, nproc, PERFBENCH_BUILD_TYPE,
              opt.commit.c_str());

  try {
    const perfbench::Workload workload =
        perfbench::make_workload(opt.workload, opt.seed);
    if (workload.connections > nproc) {
      std::fprintf(stderr, "perfbench: %d connections exceed nproc=%d\n",
                   workload.connections, nproc);
    }

    // Set-up: start the fleet several times and keep the last one.
    perfbench::FleetOptions fleet_options;
    fleet_options.bin_dir = opt.bin_dir;
    fleet_options.work_dir = opt.work_dir;
    fleet_options.workers = kWorkers;
    fleet_options.worker_threads = kWorkerThreads;
    std::vector<double> setup_samples;
    std::unique_ptr<perfbench::Fleet> fleet;
    for (int r = 0; r < kSetupRepeats; ++r) {
      if (fleet) {
        if (const auto s = fleet->shutdown(); !s.ok()) {
          throw std::runtime_error(s.message());
        }
      }
      auto started = perfbench::Fleet::start(fleet_options);
      if (!started.ok()) throw std::runtime_error(started.status().message());
      fleet = std::move(started.value());
      setup_samples.push_back(fleet->setup_s());
    }

    // Worker memory is read after a fixed amount of work: the memo grows
    // with every new SOC, so an end-of-run reading would grow with speed.
    double peak_rss_mb = -1.0;
    const perfbench::Mark rss_mark{
        kRssMarkFinals, [&] { peak_rss_mb = fleet->workers_peak_rss_mb(); }};
    const double steal_before = perfbench::cpu_steal_s();
    const perfbench::LoadResult load =
        workload.open_loop
            ? perfbench::run_open_loop(workload, fleet->endpoint(), kWorkers,
                                       opt.seconds, kP99LimitMs, rss_mark)
            : perfbench::run_closed_loop(workload, fleet->endpoint(),
                                         kWorkers, opt.seconds, rss_mark);
    std::printf("perfbench: cpu time stolen by the hypervisor during the "
                "run: %.1f s\n",
                perfbench::cpu_steal_s() - steal_before);

    const auto scraped = fleet->scrape();
    if (peak_rss_mb < 0) peak_rss_mb = fleet->workers_peak_rss_mb();
    const soctest::Status drained = fleet->shutdown();
    if (!drained.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", drained.message().c_str());
    }
    std::optional<soctest::JsonValue> stats;
    if (scraped.ok()) stats = soctest::parse_json(scraped.value());
    if (!stats || !stats->is_object()) {
      std::fprintf(stderr, "perfbench: stats scrape failed\n");
      stats = soctest::JsonValue{};
    }

    const Verdict verdict = check(workload, load, std::min(nproc, 4));
    const bool correct = drained.ok() && stats->is_object() &&
                         verdict.failed == 0 && verdict.attempted > 0;
    std::printf("perfbench: attempted=%lld failed=%lld (missing=%lld "
                "duplicates=%lld not_ok=%lld partial_order=%lld "
                "inconsistent=%lld oracle_mismatch=%lld/%zu) "
                "unmatched=%lld transport_errors=%lld\n",
                verdict.attempted, verdict.failed, verdict.missing,
                verdict.duplicates, verdict.not_ok, verdict.partial_order,
                verdict.inconsistent, verdict.oracle_mismatches,
                verdict.oracle.checked, load.unmatched_finals,
                load.transport_errors);

    std::vector<Metric> metrics = end_to_end_metrics(
        workload, load, verdict, peak_rss_mb, median(setup_samples));
    if (opt.trace) metrics = per_layer_metrics(opt, workload, load, *stats);
    std::printf("%s\n",
                result_json(correct, verdict.attempted, verdict.failed, metrics)
                    .c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
