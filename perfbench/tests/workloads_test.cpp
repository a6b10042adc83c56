// Pins the benchmark's request generation: the same seed gives a
// byte-identical stream, another seed a different one, every line is a valid
// request, and each workload holds the traffic its README promises.
//
//   ctest --test-dir .bench_build -R perfbench

#include <cstdio>
#include <set>
#include <string>

#include "replay.hpp"
#include "service/protocol.hpp"
#include "soc/soc_format.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void expect(bool condition, const std::string& what) {
  if (!condition) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

std::string stream_text(const perfbench::Workload& w, std::size_t n) {
  std::string text;
  for (std::size_t i = 0; i < n && i < w.stream.size(); ++i) {
    text += perfbench::request_line(w, i);
    text += '\n';
  }
  return text;
}

void test_seeding(const std::string& name) {
  const std::size_t n = 3000;
  const auto a = perfbench::make_workload(name, 7);
  const auto b = perfbench::make_workload(name, 7);
  const auto c = perfbench::make_workload(name, 8);
  expect(a.stream.size() >= n, name + ": stream shorter than " + std::to_string(n));
  expect(stream_text(a, n) == stream_text(b, n),
         name + ": same seed, different streams");
  expect(stream_text(a, n) != stream_text(c, n),
         name + ": different seeds, same stream");
}

void test_lines_parse(const std::string& name) {
  const auto w = perfbench::make_workload(name, 3);
  for (std::size_t i = 0; i < 200; ++i) {
    const std::string line = perfbench::request_line(w, i);
    auto request = soctest::parse_request(line);
    expect(request.ok(), name + ": line " + std::to_string(i) + " rejected");
    if (!request.ok()) continue;
    expect(request.value().id == name + "-" + std::to_string(i),
           name + ": id of line " + std::to_string(i));
    expect(soctest::parse_soc_string(request.value().soc_text).ok(),
           name + ": soc_text of line " + std::to_string(i));
  }
}

void test_sweep_never_repeats() {
  const auto w = perfbench::make_workload("sweep_exact", 5);
  std::set<std::string> bodies;
  for (std::size_t t = 0; t < w.templates.size(); ++t) {
    bodies.insert(perfbench::template_line(w, t, "x"));
  }
  expect(bodies.size() == w.templates.size(), "sweep_exact: repeated point");
}

void test_hot_cache_churns() {
  const auto w = perfbench::make_workload("hot_cache", 5);
  std::vector<std::size_t> positions(20000);
  for (std::size_t i = 0; i < positions.size(); ++i) positions[i] = i;
  const perfbench::CacheReplay cache =
      perfbench::replay_cache(w, positions, 2, 512);
  expect(cache.hits > 0, "hot_cache: no cache hits");
  expect(cache.misses > 0, "hot_cache: no cache fills");
  expect(cache.evictions > 0, "hot_cache: no evictions");
}

void test_mix_covers_constraints() {
  const auto w = perfbench::make_workload("constrained_mix", 5);
  std::set<std::string> solvers;
  bool dmax = false, wire = false, busmax = false, pairwise = false,
       stream = false;
  for (std::size_t i = 0; i < 2000; ++i) {
    auto parsed = soctest::parse_request(perfbench::request_line(w, i));
    if (!parsed.ok()) continue;
    const soctest::ServiceRequest& r = parsed.value();
    solvers.insert(soctest::inner_solver_name(r.solver));
    dmax |= r.d_max >= 0;
    wire |= r.wire_budget >= 0;
    stream |= r.stream;
    if (r.p_max >= 0) {
      busmax |= r.power_mode == soctest::PowerConstraintMode::kBusMaxSum;
      pairwise |=
          r.power_mode == soctest::PowerConstraintMode::kPairwiseSerialization;
    }
    if (r.solver == soctest::InnerSolver::kIlp) {
      expect(!r.widths.empty(), "constrained_mix: ilp width search");
      auto soc = soctest::parse_soc_string(r.soc_text);
      expect(soc.ok() && soc.value().num_cores() <= 12,
             "constrained_mix: ilp on N > 12");
    }
  }
  expect(solvers == std::set<std::string>{"exact", "greedy", "ilp", "pack",
                                          "pack-exact"},
         "constrained_mix: solver families");
  expect(dmax && wire && busmax && pairwise && stream,
         "constrained_mix: constraint families");
}

}  // namespace

int main() {
  for (const std::string& name : perfbench::workload_names()) {
    test_seeding(name);
    test_lines_parse(name);
  }
  test_sweep_never_repeats();
  test_hot_cache_churns();
  test_mix_covers_constraints();
  if (failures == 0) std::puts("perfbench workloads: all checks passed");
  return failures == 0 ? 0 : 1;
}
