#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/sharded_cache.hpp"
#include "layout/bus_planner.hpp"
#include "report/json.hpp"
#include "service/protocol.hpp"
#include "soc/generator.hpp"
#include "soc/soc_format.hpp"

namespace perfbench {

namespace {

using soctest::InnerSolver;
using soctest::PowerConstraintMode;
using soctest::ServiceRequest;

constexpr const char kSchemaPrefix[] = "{\"schema\":\"soctest-req-v1\",";
/// Stands in for the SOC source while a template is serialized; request_json
/// escapes it to a `"\u0001"` literal that no other member can contain.
constexpr char kSocMarker = '\x01';
constexpr const char kSocMarkerJson[] = "\"\\u0001\"";

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Independent sub-seed for (workload seed, purpose, index).
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t purpose,
                       std::uint64_t index) {
  return splitmix64(splitmix64(seed ^ (purpose << 48)) + index);
}

struct GeneratedSoc {
  soctest::Soc soc;
  double max_power_mw = 0.0;
};

/// Generates SOC `w.soc_json.size()`, a placed SOC with `cores` cores, and
/// appends its source to `w.soc_json`. Callers cycle the core count by SOC
/// index rather than drawing it, so every seed gets the same size mix: solve
/// cost grows steeply with N, and a drawn mix would move the figures from
/// seed to seed. For the same reason the SOC is redrawn until the front door
/// sends it to the worker a fixed pattern names for its index: the front door
/// shards by a hash of the SOC source, and with one solve thread per worker
/// the split of the load decides how long requests queue.
GeneratedSoc generate(Workload& w, std::uint64_t seed, int cores) {
  const std::uint64_t index = w.soc_json.size();
  const std::uint64_t shard = splitmix64(index) % kFleetWorkers;
  for (std::uint64_t attempt = 0;; ++attempt) {
    soctest::Rng rng(splitmix64(seed + attempt));
    soctest::SocGeneratorOptions options;
    options.num_cores = cores;
    options.soft_core_fraction = 0.1;
    options.place = true;
    GeneratedSoc out{soctest::generate_soc(options, rng), 0.0};
    const std::string text = soctest::write_soc(out.soc);
    if (soctest::fnv1a64(text) % kFleetWorkers != shard) continue;
    for (std::size_t i = 0; i < out.soc.num_cores(); ++i) {
      out.max_power_mw =
          std::max(out.max_power_mw, out.soc.core(i).test_power_mw);
    }
    soctest::JsonWriter json;
    json.value(text);
    w.soc_json.push_back(json.str());
    return out;
  }
}

/// Layout limits of one (SOC, bus count): the smallest d_max that still lets
/// every core reach some trunk, widened by `slack` grid edges, and a wiring
/// budget halfway between the all-nearest and all-farthest stub totals.
struct LayoutLimits {
  int d_max = -1;
  long long wire_budget = -1;
};

LayoutLimits layout_limits(const soctest::Soc& soc, int buses, int slack) {
  const soctest::BusPlan plan = soctest::plan_buses(soc, buses);
  long long nearest_total = 0;
  long long farthest_total = 0;
  int need = 0;
  for (std::size_t i = 0; i < soc.num_cores(); ++i) {
    int nearest = -1;
    int farthest = 0;
    for (std::size_t j = 0; j < plan.num_buses(); ++j) {
      const int d = plan.distance(i, j);
      if (d < 0) continue;
      if (nearest < 0 || d < nearest) nearest = d;
      farthest = std::max(farthest, d);
    }
    need = std::max(need, nearest);
    nearest_total += std::max(nearest, 0);
    farthest_total += farthest;
  }
  return {need + slack,
          nearest_total + (farthest_total - nearest_total) / 2};
}

/// Appends `request` (soc_text ignored) as a template on SOC `soc`.
std::uint32_t add_template(Workload& w, ServiceRequest request, int soc) {
  request.soc_text.assign(1, kSocMarker);
  const std::string body = soctest::request_json(request);
  const std::size_t prefix = sizeof(kSchemaPrefix) - 1;
  const std::size_t marker = body.find(kSocMarkerJson);
  if (body.compare(0, prefix, kSchemaPrefix) != 0 ||
      marker == std::string::npos) {
    throw std::logic_error("perfbench: unexpected request_json layout");
  }
  Template t;
  t.mid = body.substr(prefix, marker - prefix);
  t.tail = body.substr(marker + sizeof(kSocMarkerJson) - 1);
  t.soc = soc;
  w.templates.push_back(std::move(t));
  return static_cast<std::uint32_t>(w.templates.size() - 1);
}

std::vector<int> split_width(int total, int buses) {
  std::vector<int> widths(static_cast<std::size_t>(buses), total / buses);
  for (int k = 0; k < total % buses; ++k) ++widths[static_cast<std::size_t>(k)];
  return widths;
}

double power_cap(double factor, const GeneratedSoc& g) {
  return std::round(factor * g.max_power_mw);
}

// ---------------------------------------------------------------------------
// sweep_exact: a design-space sweep. Each round generates a few dozen SOCs
// and queries each over the full grid in a shuffled order; later rounds use
// fresh SOCs, so no point ever repeats and the result cache never hits.

constexpr int kSweepSocsPerRound = 36;
constexpr int kSweepRounds = 36;
/// (buses, total width) points. Three-bus points stay within widths 32-40:
/// at width 24 an exact three-way search on N >= 22 can take most of a
/// second, and the cost of a three-bus width search grows with the square
/// of the width, so wider points would make a few requests set the tail.
/// The grid is kept small so a run meets many SOCs: exact search cost
/// varies widely from SOC to SOC, and a run that met few SOCs would read
/// faster or slower by seed.
constexpr int kSweepShapes[][2] = {{2, 24}, {2, 40}, {3, 32}, {3, 40}};
/// p_max off, or this multiple of the SOC's largest core power.
constexpr double kSweepPowerCaps[] = {-1.0, 1.6, 2.4};

Workload make_sweep_exact(std::uint64_t seed) {
  Workload w;
  w.name = "sweep_exact";
  w.connections = 2;
  for (int round = 0; round < kSweepRounds; ++round) {
    std::vector<std::uint32_t> order;
    for (int k = 0; k < kSweepSocsPerRound; ++k) {
      const int soc = static_cast<int>(w.soc_json.size());
      const GeneratedSoc g = generate(
          w, sub_seed(seed, 1, static_cast<std::uint64_t>(soc)), 16 + soc % 9);
      for (const auto& shape : kSweepShapes) {
        for (double cap : kSweepPowerCaps) {
          ServiceRequest r;
          r.buses = shape[0];
          r.total_width = shape[1];
          r.p_max = cap < 0 ? -1.0 : power_cap(cap, g);
          r.solver = InnerSolver::kExact;
          order.push_back(add_template(w, std::move(r), soc));
        }
      }
    }
    soctest::Rng rng(sub_seed(seed, 2, static_cast<std::uint64_t>(round)));
    rng.shuffle(order);
    w.stream.insert(w.stream.end(), order.begin(), order.end());
  }
  return w;
}

// ---------------------------------------------------------------------------
// hot_cache: Zipf-skewed repeat traffic over SOCs x knob variants with the
// greedy solver, open loop over a fixed rate ladder.

constexpr int kHotSocs = 96;
constexpr int kHotShapes[][2] = {{2, 16}, {2, 24}, {2, 32}, {2, 48},
                                 {3, 16}, {3, 24}, {3, 32}, {3, 48}};
constexpr double kHotPowerCaps[] = {-1.0, 2.0};
constexpr double kHotZipfSocs = 0.5;
constexpr double kHotZipfVariants = 1.2;
/// The rate ladder (req/s), quoted in BENCHMARK.json. Never derived at run
/// time.
constexpr double kHotLadder[] = {250, 500, 1000, 2000, 16000};
constexpr std::size_t kHotReportStep = 2;
/// The report step runs for half the window, so its latency slices span
/// 15 s of a 30 s run and a stall of a few seconds moves few of them.
constexpr double kHotReportShare = 0.5;
/// Positions sent before the ladder. Until about this many draws the Zipf
/// tail keeps meeting keys for the first time, so the miss rate, and with it
/// p99, still falls.
constexpr std::size_t kHotWarmup = 15000;
/// Stream positions generated: enough for the ladder at 30 s (the top
/// step stops at its first backlog).
constexpr std::size_t kHotStreamLength = 120000;

std::vector<double> zipf_cdf(std::size_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

std::size_t draw(const std::vector<double>& cdf, double u) {
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()),
                               cdf.size() - 1);
}

Workload make_hot_cache(std::uint64_t seed) {
  Workload w;
  w.name = "hot_cache";
  w.open_loop = true;
  w.connections = 4;
  w.ladder_rps.assign(std::begin(kHotLadder), std::end(kHotLadder));
  w.report_step = kHotReportStep;
  w.report_share = kHotReportShare;
  w.warmup_requests = kHotWarmup;
  constexpr std::size_t kVariants =
      std::size(kHotShapes) * std::size(kHotPowerCaps);
  for (int soc = 0; soc < kHotSocs; ++soc) {
    const GeneratedSoc g =
        generate(w, sub_seed(seed, 3, static_cast<std::uint64_t>(soc)), 16 + soc % 9);
    for (const auto& shape : kHotShapes) {
      for (double cap : kHotPowerCaps) {
        ServiceRequest r;
        r.buses = shape[0];
        r.total_width = shape[1];
        r.p_max = cap < 0 ? -1.0 : power_cap(cap, g);
        r.solver = InnerSolver::kGreedy;
        add_template(w, std::move(r), soc);
      }
    }
  }
  // SOC rank = SOC index (the SOCs are random already); a per-SOC seeded
  // permutation decides which of its variants is hottest.
  const std::vector<double> soc_cdf = zipf_cdf(kHotSocs, kHotZipfSocs);
  const std::vector<double> variant_cdf = zipf_cdf(kVariants, kHotZipfVariants);
  std::vector<std::vector<std::uint32_t>> variant_rank(kHotSocs);
  for (int s = 0; s < kHotSocs; ++s) {
    auto& perm = variant_rank[static_cast<std::size_t>(s)];
    for (std::size_t v = 0; v < kVariants; ++v)
      perm.push_back(static_cast<std::uint32_t>(v));
    soctest::Rng rng(sub_seed(seed, 4, static_cast<std::uint64_t>(s)));
    rng.shuffle(perm);
  }
  soctest::Rng rng(sub_seed(seed, 5, 0));
  w.stream.reserve(kHotStreamLength);
  for (std::size_t i = 0; i < kHotStreamLength; ++i) {
    const std::size_t soc = draw(soc_cdf, rng.uniform01());
    const std::size_t variant =
        variant_rank[soc][draw(variant_cdf, rng.uniform01())];
    w.stream.push_back(static_cast<std::uint32_t>(soc * kVariants + variant));
  }
  return w;
}

// ---------------------------------------------------------------------------
// constrained_mix: the paper's constraint families across every solver
// family, cache-cold (a distinct request seed per position). Every choice
// cycles by position rather than being drawn: solvers follow a fixed
// pattern, and each solver's n-th request takes its SOC, shape and
// constraints from cycles of co-prime periods. Every seed then sends the
// same traffic mix; only the SOCs differ.

constexpr int kMixSocs = 96;
constexpr int kMixSmallSocs = 48;  ///< the first SOCs have N <= 10 (ilp, pack)
constexpr std::size_t kMixStreamLength = 12000;
constexpr std::size_t kMixPackExactCycles = 16;
/// 16 exact, 16 greedy, 10 ilp, 5 pack and 1 pack-exact per 48 requests,
/// spread evenly; only one cycle in kMixPackExactCycles keeps the
/// pack-exact slot, the others give it to pack. pack-exact runs to its node
/// budget, 150-400 ms whatever the instance, and with two connections the
/// next request to its worker waits that long too. At one request in 768
/// these waits stay well inside the top 1%, so p99 lies in the tail of the
/// power-capped ilp requests rather than on the edge between the two.
constexpr InnerSolver kMixPattern[] = {
    InnerSolver::kExact, InnerSolver::kGreedy, InnerSolver::kIlp, InnerSolver::kExact,
    InnerSolver::kGreedy, InnerSolver::kPack, InnerSolver::kIlp, InnerSolver::kExact,
    InnerSolver::kGreedy, InnerSolver::kExact, InnerSolver::kGreedy, InnerSolver::kIlp,
    InnerSolver::kExact, InnerSolver::kGreedy, InnerSolver::kPack, InnerSolver::kExact,
    InnerSolver::kGreedy, InnerSolver::kIlp, InnerSolver::kExact, InnerSolver::kGreedy,
    InnerSolver::kIlp, InnerSolver::kExact, InnerSolver::kGreedy, InnerSolver::kPack,
    InnerSolver::kPackExact, InnerSolver::kExact, InnerSolver::kGreedy, InnerSolver::kIlp,
    InnerSolver::kExact, InnerSolver::kGreedy, InnerSolver::kIlp, InnerSolver::kExact,
    InnerSolver::kGreedy, InnerSolver::kPack, InnerSolver::kExact, InnerSolver::kGreedy,
    InnerSolver::kIlp, InnerSolver::kExact, InnerSolver::kGreedy, InnerSolver::kExact,
    InnerSolver::kGreedy, InnerSolver::kIlp, InnerSolver::kPack, InnerSolver::kExact,
    InnerSolver::kGreedy, InnerSolver::kIlp, InnerSolver::kExact, InnerSolver::kGreedy};

Workload make_constrained_mix(std::uint64_t seed) {
  Workload w;
  w.name = "constrained_mix";
  w.connections = 2;
  std::vector<GeneratedSoc> socs;
  std::vector<LayoutLimits> limits;  // [soc * 2 + buses - 2]
  for (int s = 0; s < kMixSocs; ++s) {
    const bool small = s < kMixSmallSocs;
    socs.push_back(generate(w, sub_seed(seed, 6, static_cast<std::uint64_t>(s)),
                            small ? 8 + s % 3 : 14 + s % 11));
    for (int buses = 2; buses <= 3; ++buses) {
      limits.push_back(layout_limits(socs.back().soc, buses, 2));
    }
  }

  std::size_t count[8] = {};  // requests so far, indexed by InnerSolver
  for (std::size_t i = 0; i < kMixStreamLength; ++i) {
    ServiceRequest r;
    r.seed = i + 1;  // a distinct cache key per position: cache-cold
    r.solver = kMixPattern[i % std::size(kMixPattern)];
    if (r.solver == InnerSolver::kPackExact &&
        i / std::size(kMixPattern) % kMixPackExactCycles != 0) {
      r.solver = InnerSolver::kPack;  // pack-exact: one request in 768
    }
    const std::size_t k = count[static_cast<std::size_t>(r.solver)]++;
    const bool ilp = r.solver == InnerSolver::kIlp;
    const bool pack = r.solver == InnerSolver::kPack ||
                      r.solver == InnerSolver::kPackExact;
    // ilp runs only on two explicit buses over small SOCs: an ilp width
    // search, or three buses at N = 12, takes seconds per request. pack runs
    // on the small SOCs too, where a skyline + SA pack takes about 10 ms;
    // on N >= 14 it takes up to 170 ms, and a few such instances would set
    // how many requests a run completes.
    const int soc =
        ilp || pack ? static_cast<int>(k * 7 % kMixSmallSocs)
                    : static_cast<int>((k * 37 + i) % kMixSocs);
    const GeneratedSoc& g = socs[static_cast<std::size_t>(soc)];
    const int buses = ilp ? 2 : 2 + static_cast<int>(k % 2);
    constexpr int kWidths2[] = {16, 24, 32, 40, 48};
    constexpr int kWidths3[] = {32, 40, 48};
    const int width = buses == 2 ? kWidths2[k / 2 % std::size(kWidths2)]
                                 : kWidths3[k / 2 % std::size(kWidths3)];
    // The worker runs exact requests through the portfolio, one race per
    // width partition, so an exact width search costs 10-300 ms; sweep_exact
    // covers those, and here three in four exact requests name their widths.
    const bool explicit_widths =
        ilp || (r.solver == InnerSolver::kExact ? buses == 3 || k / 2 % 4 != 0
                                                : k / 2 % 5 < 2);
    if (explicit_widths) {
      r.widths = split_width(width, buses);
    } else {
      r.buses = buses;
      r.total_width = width;
    }
    if (!pack) {
      const LayoutLimits& l = limits[static_cast<std::size_t>(soc) * 2 +
                                     static_cast<std::size_t>(buses - 2)];
      if (k % 3 == 0) r.d_max = l.d_max;
      if (k % 5 == 1) r.wire_budget = l.wire_budget;
    }
    if (k % 9 < 4) {
      r.p_max = power_cap(1.4 + 0.2 * static_cast<double>(k % 7), g);
      if (!pack && k / 9 % 2 == 1) {
        // A bus-max-sum budget must cover the heaviest core of every bus.
        r.power_mode = PowerConstraintMode::kBusMaxSum;
        r.p_max = std::round(r.p_max * 0.6 * buses);
      }
    }
    r.stream = k % 4 == 3;
    w.stream.push_back(add_template(w, std::move(r), soc));
  }
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"sweep_exact", "hot_cache",
                                                 "constrained_mix"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "sweep_exact") return make_sweep_exact(seed);
  if (name == "hot_cache") return make_hot_cache(seed);
  if (name == "constrained_mix") return make_constrained_mix(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::string template_line(const Workload& workload, std::size_t index,
                          const std::string& id) {
  const Template& t = workload.templates[index];
  const std::string& soc = workload.soc_json[static_cast<std::size_t>(t.soc)];
  std::string line;
  line.reserve(sizeof(kSchemaPrefix) + id.size() + t.mid.size() + soc.size() +
               t.tail.size() + 8);
  line += kSchemaPrefix;
  line += "\"id\":\"";
  line += id;
  line += "\",";
  line += t.mid;
  line += soc;
  line += t.tail;
  return line;
}

std::uint32_t template_at(const Workload& workload, std::size_t position) {
  return workload.stream[position % workload.stream.size()];
}

std::string request_line(const Workload& workload, std::size_t position) {
  return template_line(workload, template_at(workload, position),
                       workload.name + "-" + std::to_string(position));
}

}  // namespace perfbench
