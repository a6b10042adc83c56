// soctest-perf: cross-run performance toolkit over the observability
// pipeline's artifacts (metrics JSON, bench JSON, the run ledger) plus a
// noise-aware regression gate against checked-in baselines.
//
//   $ soctest-perf diff old_metrics.json new_metrics.json
//   $ soctest-perf report soctest.ledger.jsonl
//   $ soctest-perf gate --baseline bench/baselines/quick_gate.json
//   $ soctest-perf gate --baseline ... --update     # re-baseline on purpose
//
// `gate` runs a small pinned suite of fixed-seed serial solves (the quick
// bench), takes the median of K repeats, and compares wall times with a
// relative tolerance plus an absolute-ms floor so scheduler noise on tiny
// cases cannot fail the build; deterministic counters (B&B nodes, simplex
// pivots, SA moves) are gated exactly — any drift means an algorithm
// change that must be re-baselined deliberately. Wired into ctest as the
// `perf` label via scripts/check_perf.sh (see docs/benchmarks.md).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>

#include "common/table.hpp"
#include "obs/obs.hpp"
#include "pack/skyline.hpp"
#include "report/json.hpp"
#include "service/server.hpp"
#include "soc/builtin.hpp"
#include "soc/generator.hpp"
#include "tam/architect.hpp"
#include "tam/exact_solver.hpp"
#include "tam/heuristics.hpp"
#include "tam/ilp_solver.hpp"
#include "tam/timing.hpp"

using namespace soctest;

namespace {

constexpr const char* kUsage = R"(usage: soctest-perf <command> [args]

commands:
  diff OLD.json NEW.json    per-metric delta table between two metrics/trace
                            JSON objects or two bench JSON arrays
                            (BENCH_solvers.json style)
  report LEDGER.jsonl...    fold one or more run ledgers into per-soc x
                            solver cells (runs, wall-ms percentiles, optimal
                            share); skipped lines are reported per file, with
                            a torn final line (interrupted append) called out
                            explicitly
  gate [options]            run the pinned quick-bench suite and compare it
                            against a checked-in baseline
  trace-merge PATH...       join soctest-trace-v1 shards (files, or
                            directories scanned for *.trace.json) into one
                            Chrome-trace timeline: each shard's events are
                            rebased onto the shared realtime axis via its
                            clock anchor, grouped into one process row per
                            trace_id, and cross-process parent links
                            (span_guid/parent_guid) are checked; prints
                            "trace-merge: shards=N events=E traces=T
                            dangling_parents=D" (docs/observability.md)

trace-merge options:
  --out FILE                write the merged Chrome trace to FILE (default:
                            stdout, with the summary on stderr); output is
                            byte-identical across reruns of the same shards

gate options:
  --baseline FILE           baseline JSON (default bench/baselines/quick_gate.json)
  --repeats K               median-of-K wall-time repeats (default 5)
  --rel-tol F               relative slowdown tolerance (default 1.5 =
                            fail beyond 2.5x baseline)
  --floor-ms MS             ignore absolute regressions below MS (default 25)
  --update                  write the fresh measurement to --baseline and exit
  --counters-only           skip wall-time gating (sanitizer builds); also
                            enabled by SOCTEST_PERF_COUNTERS_ONLY=1
  --inject-slowdown-ms MS   add MS of sleep to every measured repeat (negative
                            testing of the gate itself)

exit codes: 0 ok, 1 regression or comparison failure, 2 usage, 3 input error.
)";

std::string read_file(const std::string& path, bool* ok) {
  std::ifstream in(path);
  if (!in) {
    *ok = false;
    return {};
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  *ok = true;
  return buffer.str();
}

// ---------------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------------

/// Flattens a metrics/trace object or a bench array into name -> value.
/// Metrics objects contribute "counters.<name>" and histogram count/sum;
/// bench arrays contribute "<bench>/<cell>/<field>" for numeric fields.
std::map<std::string, double> flatten_metrics(const JsonValue& doc,
                                              std::string* error) {
  std::map<std::string, double> out;
  if (doc.is_object()) {
    const JsonValue* counters = doc.find("counters");
    if (counters == nullptr || !counters->is_object()) {
      *error = "object has no \"counters\" member (not a metrics/trace file)";
      return out;
    }
    for (const auto& [name, value] : counters->members) {
      if (value.is_number()) out["counters." + name] = value.number;
    }
    const JsonValue* histograms = doc.find("histograms");
    if (histograms != nullptr && histograms->is_object()) {
      for (const auto& [name, h] : histograms->members) {
        out["histograms." + name + ".count"] = h.number_or("count", 0.0);
        out["histograms." + name + ".sum"] = h.number_or("sum", 0.0);
      }
    }
    return out;
  }
  if (doc.is_array()) {
    for (std::size_t i = 0; i < doc.items.size(); ++i) {
      const JsonValue& record = doc.items[i];
      if (!record.is_object()) continue;
      std::string prefix = record.string_or("bench", "row" + std::to_string(i));
      const std::string cell = record.string_or("cell", "");
      if (!cell.empty()) prefix += "/" + cell;
      for (const auto& [name, value] : record.members) {
        if (name == "bench" || name == "cell") continue;
        if (value.is_number()) out[prefix + "/" + name] = value.number;
      }
    }
    return out;
  }
  *error = "expected a JSON object (metrics) or array (bench rows)";
  return out;
}

int cmd_diff(const std::string& old_path, const std::string& new_path) {
  int exit_code = 0;
  std::map<std::string, double> sides[2];
  const std::string* paths[2] = {&old_path, &new_path};
  for (int s = 0; s < 2; ++s) {
    bool ok = false;
    const std::string text = read_file(*paths[s], &ok);
    if (!ok) {
      std::fprintf(stderr, "soctest-perf: cannot read %s\n", paths[s]->c_str());
      return 3;
    }
    std::string error;
    const auto doc = parse_json(text, &error);
    if (!doc) {
      std::fprintf(stderr, "soctest-perf: %s: %s\n", paths[s]->c_str(),
                   error.c_str());
      return 3;
    }
    sides[s] = flatten_metrics(*doc, &error);
    if (!error.empty()) {
      std::fprintf(stderr, "soctest-perf: %s: %s\n", paths[s]->c_str(),
                   error.c_str());
      return 3;
    }
  }

  // One pass over the union; std::map keeps the rows name-sorted, which is
  // the deterministic order the golden tests pin.
  std::map<std::string, std::pair<const double*, const double*>> merged;
  for (const auto& [name, value] : sides[0]) merged[name].first = &value;
  for (const auto& [name, value] : sides[1]) merged[name].second = &value;

  Table table({"metric", "old", "new", "delta", "delta_%"});
  long long changed = 0, added = 0, removed = 0;
  for (const auto& [name, pair] : merged) {
    const auto [old_value, new_value] = pair;
    if (old_value == nullptr) ++added;
    if (new_value == nullptr) ++removed;
    if (old_value != nullptr && new_value != nullptr &&
        *old_value == *new_value) {
      continue;  // unchanged rows stay out of the table
    }
    ++changed;
    table.row().add(name);
    if (old_value != nullptr) {
      table.add(*old_value, -1);
    } else {
      table.add(std::string("-"));
    }
    if (new_value != nullptr) {
      table.add(*new_value, -1);
    } else {
      table.add(std::string("-"));
    }
    if (old_value != nullptr && new_value != nullptr) {
      const double delta = *new_value - *old_value;
      table.add(delta, -1);
      if (*old_value != 0.0) {
        table.add(100.0 * delta / *old_value, 1);
      } else {
        table.add(std::string("-"));
      }
    } else {
      table.add(std::string(old_value == nullptr ? "added" : "removed"));
      table.add(std::string("-"));
    }
  }
  if (changed == 0) {
    std::printf("no metric differences (%zu metrics compared)\n",
                merged.size());
    return exit_code;
  }
  std::printf("%s", table.to_ascii().c_str());
  std::printf("%lld changed (%lld added, %lld removed) of %zu metrics\n",
              changed, added, removed, merged.size());
  return exit_code;
}

// ---------------------------------------------------------------------------
// report
// ---------------------------------------------------------------------------

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

int cmd_report(const std::vector<std::string>& ledger_paths) {
  struct CellStats {
    long long runs = 0;
    long long optimal = 0;
    std::vector<double> wall_ms;
    std::vector<double> gaps;
  };
  std::map<std::pair<std::string, std::string>, CellStats> cells;
  for (const std::string& ledger_path : ledger_paths) {
    std::ifstream in(ledger_path);
    if (!in) {
      std::fprintf(stderr, "soctest-perf: cannot read %s\n",
                   ledger_path.c_str());
      return 3;
    }
    std::string line;
    long long lines = 0, skipped = 0;
    bool last_line_torn = false;
    while (std::getline(in, line)) {
      ++lines;
      if (line.empty()) continue;
      const auto record = parse_json(line);
      last_line_torn = !record.has_value();
      if (!record || !record->is_object() ||
          record->string_or("schema", "") != "soctest-ledger-v1") {
        ++skipped;
        continue;
      }
      // Frontdoor admission rejections share the ledger schema but carry no
      // solve; they are not runs and must not dilute the wall-time cells.
      if (record->string_or("kind", "") == "rejected") continue;
      CellStats& cell = cells[{record->string_or("soc", "?"),
                               record->string_or("solver", "?")}];
      ++cell.runs;
      cell.wall_ms.push_back(record->number_or("wall_ms", 0.0));
      if (record->string_or("status", "") == "optimal") ++cell.optimal;
      const double gap = record->number_or("gap", -1.0);
      if (gap >= 0.0) cell.gaps.push_back(gap);
    }
    // Per-file accounting: a torn final line is the crash-safe append
    // contract working as intended (a writer died mid-record), so it gets
    // an explicit note rather than being silently dropped; anything torn
    // or foreign earlier in the file is worth a warning.
    const long long torn_tail = last_line_torn ? 1 : 0;
    if (torn_tail != 0) {
      std::fprintf(stderr,
                   "soctest-perf: %s: dropped torn final line (interrupted "
                   "append); %lld of %lld line(s) skipped\n",
                   ledger_path.c_str(), skipped, lines);
    }
    if (skipped - torn_tail > 0) {
      std::fprintf(stderr,
                   "soctest-perf: warning: %s: skipped %lld malformed or "
                   "foreign line(s) of %lld\n",
                   ledger_path.c_str(), skipped - torn_tail, lines);
    }
  }
  if (cells.empty()) {
    std::string joined;
    for (const std::string& path : ledger_paths) {
      if (!joined.empty()) joined += ", ";
      joined += path;
    }
    std::fprintf(stderr, "soctest-perf: %s: no soctest-ledger-v1 records\n",
                 joined.c_str());
    return 3;
  }
  Table table({"soc", "solver", "runs", "ms_min", "ms_p50", "ms_p95", "ms_max",
               "optimal", "gap_mean"});
  for (const auto& [key, cell] : cells) {
    double gap_sum = 0.0;
    for (double g : cell.gaps) gap_sum += g;
    table.row()
        .add(key.first)
        .add(key.second)
        .add(cell.runs)
        .add(percentile(cell.wall_ms, 0.0), 3)
        .add(percentile(cell.wall_ms, 0.50), 3)
        .add(percentile(cell.wall_ms, 0.95), 3)
        .add(percentile(cell.wall_ms, 1.0), 3)
        .add(cell.optimal)
        .add(cell.gaps.empty() ? 0.0
                               : gap_sum / static_cast<double>(cell.gaps.size()),
             4);
  }
  std::string joined;
  for (const std::string& path : ledger_paths) {
    if (!joined.empty()) joined += ", ";
    joined += path;
  }
  std::printf("ledger report: %s\n%s", joined.c_str(),
              table.to_ascii().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// trace-merge
// ---------------------------------------------------------------------------

/// One parsed soctest-trace-v1 shard. `unix_us` is the shard's clock
/// anchor: the realtime microsecond at which its monotonic event
/// timestamps read 0 (0.0 under the fake test clock).
struct TraceShard {
  std::string path;
  std::string role;
  long long pid = 0;
  double unix_us = 0.0;
  JsonValue doc;
};

/// One span from a shard, flattened for merging. `trace_id` is taken from
/// the event's args or inherited from its in-shard parent chain, so solver
/// child spans ride along with the service.request span that owns them.
struct MergedEvent {
  std::size_t shard = 0;
  long long id = 0;
  long long parent = 0;  ///< in-shard parent span id (0 = root)
  bool span = true;
  std::string name;
  long long thread = 0;
  double abs_us = 0.0;  ///< anchor-rebased start (realtime axis)
  double dur_us = 0.0;
  std::string trace_id;
  std::string parent_guid;
  const JsonValue* args = nullptr;
};

/// Re-emits a parsed JSON value verbatim-in-structure (shard args are flat
/// objects of strings/numbers/bools, but recursion costs nothing).
void write_json_value(JsonWriter& w, const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kNull:
      w.null();
      break;
    case JsonValue::Kind::kBool:
      w.value(v.boolean);
      break;
    case JsonValue::Kind::kNumber:
      if (v.number == static_cast<double>(static_cast<long long>(v.number))) {
        w.value(static_cast<long long>(v.number));
      } else {
        w.value(v.number);
      }
      break;
    case JsonValue::Kind::kString:
      w.value(v.text);
      break;
    case JsonValue::Kind::kArray:
      w.begin_array();
      for (const JsonValue& item : v.items) write_json_value(w, item);
      w.end_array();
      break;
    case JsonValue::Kind::kObject:
      w.begin_object();
      for (const auto& [name, member] : v.members) {
        w.key(name);
        write_json_value(w, member);
      }
      w.end_object();
      break;
  }
}

/// Expands each path into shard files: a directory contributes every
/// *.trace.json inside it (name-sorted — readdir order is not
/// deterministic), a plain file contributes itself.
std::vector<std::string> expand_shard_paths(
    const std::vector<std::string>& paths) {
  std::vector<std::string> out;
  for (const std::string& path : paths) {
    struct stat st{};
    if (::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
      std::vector<std::string> found;
      if (DIR* dir = ::opendir(path.c_str())) {
        while (const dirent* entry = ::readdir(dir)) {
          const std::string name = entry->d_name;
          const std::string suffix = ".trace.json";
          if (name.size() > suffix.size() &&
              name.compare(name.size() - suffix.size(), suffix.size(),
                           suffix) == 0) {
            found.push_back(path + "/" + name);
          }
        }
        ::closedir(dir);
      }
      std::sort(found.begin(), found.end());
      out.insert(out.end(), found.begin(), found.end());
    } else {
      out.push_back(path);
    }
  }
  return out;
}

int cmd_trace_merge(const std::vector<std::string>& args) {
  std::string out_path;
  std::vector<std::string> inputs;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--out") {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "soctest-perf: --out requires a value\n");
        return 2;
      }
      out_path = args[++i];
    } else {
      inputs.push_back(args[i]);
    }
  }
  const std::vector<std::string> shard_paths = expand_shard_paths(inputs);
  if (shard_paths.empty()) {
    std::fprintf(stderr, "soctest-perf: trace-merge: no shard files\n%s",
                 kUsage);
    return 2;
  }

  std::vector<TraceShard> shards;
  for (const std::string& path : shard_paths) {
    bool ok = false;
    const std::string text = read_file(path, &ok);
    if (!ok) {
      std::fprintf(stderr, "soctest-perf: cannot read %s\n", path.c_str());
      return 3;
    }
    std::string error;
    auto doc = parse_json(text, &error);
    if (!doc || !doc->is_object() ||
        doc->string_or("schema", "") != "soctest-trace-v1") {
      std::fprintf(stderr, "soctest-perf: %s is not a soctest-trace-v1 file%s%s\n",
                   path.c_str(), error.empty() ? "" : ": ", error.c_str());
      return 3;
    }
    TraceShard shard;
    shard.path = path;
    if (const JsonValue* anchor = doc->find("anchor");
        anchor != nullptr && anchor->is_object()) {
      shard.role = anchor->string_or("role", "");
      shard.pid = static_cast<long long>(anchor->number_or("pid", 0.0));
      shard.unix_us = anchor->number_or("unix_us", 0.0);
    }
    shard.doc = std::move(*doc);
    shards.push_back(std::move(shard));
  }
  // Shard order must not depend on argv order for the byte-identical
  // contract; (role, pid, path) is a total order over real fleets.
  std::sort(shards.begin(), shards.end(),
            [](const TraceShard& a, const TraceShard& b) {
              return std::tie(a.role, a.pid, a.path) <
                     std::tie(b.role, b.pid, b.path);
            });

  std::vector<MergedEvent> events;
  std::map<std::string, int> span_guids;  // guid -> count across all shards
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const JsonValue* shard_events = shards[s].doc.find("events");
    if (shard_events == nullptr || !shard_events->is_array()) continue;
    std::vector<MergedEvent> local;
    for (const JsonValue& e : shard_events->items) {
      if (!e.is_object()) continue;
      MergedEvent m;
      m.shard = s;
      m.id = static_cast<long long>(e.number_or("id", 0.0));
      m.parent = static_cast<long long>(e.number_or("parent", 0.0));
      m.span = e.string_or("kind", "span") == "span";
      m.name = e.string_or("name", "");
      m.thread = static_cast<long long>(e.number_or("thread", 0.0));
      m.abs_us = shards[s].unix_us + e.number_or("ts_us", 0.0);
      m.dur_us = e.number_or("dur_us", 0.0);
      m.args = e.find("args");
      if (m.args != nullptr && m.args->is_object()) {
        m.trace_id = m.args->string_or("trace_id", "");
        m.parent_guid = m.args->string_or("parent_guid", "");
        const std::string guid = m.args->string_or("span_guid", "");
        if (!guid.empty()) ++span_guids[guid];
      }
      local.push_back(std::move(m));
    }
    // In-shard trace inheritance: a span opens after its parent, so parent
    // ids are smaller and one id-ordered pass settles the whole chain.
    std::sort(local.begin(), local.end(),
              [](const MergedEvent& a, const MergedEvent& b) {
                return a.id < b.id;
              });
    std::map<long long, std::string> trace_of;  // local span id -> trace_id
    for (MergedEvent& m : local) {
      if (m.trace_id.empty()) {
        const auto it = trace_of.find(m.parent);
        if (it != trace_of.end()) m.trace_id = it->second;
      }
      if (!m.trace_id.empty()) trace_of[m.id] = m.trace_id;
    }
    events.insert(events.end(), local.begin(), local.end());
  }

  long long dangling = 0;
  for (const MergedEvent& m : events) {
    if (!m.parent_guid.empty() && span_guids.find(m.parent_guid) == span_guids.end()) {
      ++dangling;
    }
  }

  // Traced events only: the merge is the per-trace waterfall, untraced
  // background spans stay in their per-process shards.
  std::vector<const MergedEvent*> traced;
  std::map<std::string, long long> trace_pid;  // trace_id -> chrome pid
  for (const MergedEvent& m : events) {
    if (!m.trace_id.empty()) {
      traced.push_back(&m);
      trace_pid.emplace(m.trace_id, 0);
    }
  }
  long long next_pid = 1;
  for (auto& [trace_id, pid] : trace_pid) pid = next_pid++;
  std::sort(traced.begin(), traced.end(),
            [&](const MergedEvent* a, const MergedEvent* b) {
              return std::tie(trace_pid.at(a->trace_id), a->abs_us, a->shard,
                              a->id) < std::tie(trace_pid.at(b->trace_id),
                                                b->abs_us, b->shard, b->id);
            });

  // Rebase to the earliest traced event so Chrome's timeline starts near 0
  // instead of at a raw unix microsecond.
  double t0 = 0.0;
  if (!traced.empty()) {
    t0 = traced.front()->abs_us;
    for (const MergedEvent* m : traced) t0 = std::min(t0, m->abs_us);
  }

  JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  for (const auto& [trace_id, pid] : trace_pid) {
    w.begin_object();
    w.key("name").value("process_name");
    w.key("ph").value("M");
    w.key("pid").value(pid);
    w.key("tid").value(0);
    w.key("args").begin_object();
    w.key("name").value("trace " + trace_id);
    w.end_object();
    w.end_object();
  }
  // One thread row per (trace, shard) pair in use, labeled by fleet role.
  std::map<std::pair<long long, long long>, std::string> thread_names;
  for (const MergedEvent* m : traced) {
    const TraceShard& shard = shards[m->shard];
    thread_names.emplace(
        std::make_pair(trace_pid.at(m->trace_id),
                       static_cast<long long>(m->shard) + 1),
        shard.role + "-" + std::to_string(shard.pid));
  }
  for (const auto& [key, name] : thread_names) {
    w.begin_object();
    w.key("name").value("thread_name");
    w.key("ph").value("M");
    w.key("pid").value(key.first);
    w.key("tid").value(key.second);
    w.key("args").begin_object();
    w.key("name").value(name);
    w.end_object();
    w.end_object();
  }
  for (const MergedEvent* m : traced) {
    w.begin_object();
    w.key("name").value(m->name);
    w.key("cat").value(shards[m->shard].role);
    w.key("ph").value(m->span ? "X" : "i");
    w.key("pid").value(trace_pid.at(m->trace_id));
    w.key("tid").value(static_cast<long long>(m->shard) + 1);
    w.key("ts").value(m->abs_us - t0);
    if (m->span) w.key("dur").value(m->dur_us);
    if (m->args != nullptr) {
      w.key("args");
      write_json_value(w, *m->args);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();

  const std::string summary =
      "trace-merge: shards=" + std::to_string(shards.size()) +
      " events=" + std::to_string(traced.size()) +
      " traces=" + std::to_string(trace_pid.size()) +
      " dangling_parents=" + std::to_string(dangling) + "\n";
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "soctest-perf: cannot write %s\n", out_path.c_str());
      return 3;
    }
    out << w.str() << "\n";
    std::fputs(summary.c_str(), stdout);
  } else {
    std::printf("%s\n", w.str().c_str());
    std::fputs(summary.c_str(), stderr);
  }
  return dangling == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// gate
// ---------------------------------------------------------------------------

/// One pinned quick-bench case: a fixed-seed serial workload plus the
/// deterministic counters it pins. Serial solves keep counters exactly
/// reproducible across machines and build types; wall time is what the
/// noise-aware comparison is for.
struct GateCase {
  std::string name;
  std::vector<std::string> counters;  ///< gated exactly
  std::function<void()> run;
};

TamProblem gate_problem(int n, std::vector<int> widths) {
  Rng rng(static_cast<std::uint64_t>(n) * 7919);
  SocGeneratorOptions gen;
  gen.num_cores = n;
  gen.place = false;
  const Soc soc = generate_soc(gen, rng);
  const TestTimeTable& table = cached_test_time_table(
      soc, *std::max_element(widths.begin(), widths.end()));
  return make_tam_problem(soc, table, widths);
}

std::vector<GateCase> gate_suite() {
  std::vector<GateCase> suite;
  suite.push_back({"exact_n12",
                   {"tam.exact.nodes", "tam.exact.pruned_bound",
                    "tam.exact.pruned_lagrangian"},
                   [] { solve_exact(gate_problem(12, {16, 8, 8})); }});
  suite.push_back({"exact_n16",
                   {"tam.exact.nodes", "tam.exact.pruned_bound",
                    "tam.exact.pruned_lagrangian"},
                   [] { solve_exact(gate_problem(16, {16, 8, 8})); }});
  // The sizes the ISSUE's >=5x node-throughput criterion is measured on:
  // big enough that the search kernel, not setup, dominates.
  suite.push_back({"exact_n22",
                   {"tam.exact.nodes", "tam.exact.pruned_bound",
                    "tam.exact.pruned_lagrangian"},
                   [] { solve_exact(gate_problem(22, {16, 8, 8})); }});
  suite.push_back({"exact_n26",
                   {"tam.exact.nodes", "tam.exact.pruned_bound",
                    "tam.exact.pruned_lagrangian"},
                   [] { solve_exact(gate_problem(26, {16, 8, 8})); }});
  suite.push_back({"ilp_n8",
                   {"ilp.bb.nodes", "ilp.simplex.pivots",
                    "ilp.bb.bound.cache_hits", "ilp.bb.bound.reused",
                    "ilp.bb.bound.tightened"},
                   [] {
                     MipOptions mip;
                     mip.max_nodes = 50000;
                     solve_ilp(gate_problem(8, {16, 8, 8}), mip);
                   }});
  suite.push_back({"sa_n20",
                   {"tam.sa.moves"},
                   [] { solve_sa(gate_problem(20, {16, 8, 8})); }});
  suite.push_back({"greedy_n32",
                   {},
                   [] { solve_greedy_lpt(gate_problem(32, {16, 8, 8})); }});
  // The rectangle-packing formulation's heuristic (skyline base pass + SA
  // repair): fully serial and fixed-seed, so its counters pin exactly.
  suite.push_back({"pack_skyline_n20",
                   {"pack.skyline.placed", "pack.skyline.raised",
                    "pack.sa.moves", "pack.sa.accepted"},
                   [] {
                     Rng rng(20 * 7919);
                     SocGeneratorOptions gen;
                     gen.num_cores = 20;
                     gen.place = false;
                     const Soc soc = generate_soc(gen, rng);
                     const PackProblem problem = make_pack_problem(
                         soc, cached_test_time_table(soc, 24), 24);
                     solve_pack(problem);
                   }});
  // The rectangle-packing-style width-partition search (Chakrabarty DAC
  // 2000) over a builtin SOC: exercises enumeration + exact inner solves.
  suite.push_back({"width_search_soc1",
                   {"tam.exact.nodes", "tam.exact.staircase.builds",
                    "tam.exact.staircase.cells"},
                   [] {
                     DesignRequest request;
                     request.num_buses = 2;
                     request.total_width = 24;
                     request.solver = InnerSolver::kExact;
                     design_architecture(builtin_soc1(), request);
                   }});
  // Exact width searches served through the solve service, which installs
  // a cancellation token on every job: the token must not reroute exact
  // solves through the portfolio race (races stays 0, nodes match the
  // plain serial search).
  suite.push_back({"serve_exact_width_search",
                   {"tam.portfolio.races", "tam.exact.nodes"},
                   [] {
                     ServiceConfig config;
                     config.serial = true;
                     SolveService service(config);
                     for (const char* line : {
                              R"({"schema":"soctest-req-v1","id":"s1","soc":"soc1","buses":2,"width":24,"solver":"exact"})",
                              R"({"schema":"soctest-req-v1","id":"s2","soc":"soc2","buses":3,"width":32,"solver":"exact"})",
                              R"({"schema":"soctest-req-v1","id":"s3","soc":"soc3","buses":2,"width":40,"solver":"exact"})"}) {
                       service.submit(line, [](std::string) {});
                     }
                   }});
  // One point of a design-space sweep on a generated placed SOC: the
  // best-first width search scores every candidate with greedy-LPT
  // (tam.greedy.solves) and then solves the few the seeds leave open.
  suite.push_back({"width_search_sweep",
                   {"tam.exact.nodes", "tam.greedy.solves"},
                   [] {
                     Rng rng(20 * 7919);
                     SocGeneratorOptions gen;
                     gen.num_cores = 20;
                     const Soc soc = generate_soc(gen, rng);
                     double max_power = 0.0;
                     for (std::size_t i = 0; i < soc.num_cores(); ++i) {
                       max_power =
                           std::max(max_power, soc.core(i).test_power_mw);
                     }
                     DesignRequest request;
                     request.num_buses = 3;
                     request.total_width = 40;
                     request.p_max_mw = 1.6 * max_power;
                     request.solver = InnerSolver::kExact;
                     design_architecture(soc, request);
                   }});
  // Explicit-width requests served through the solve service: each is a
  // width search over one candidate, scored with greedy-LPT and then
  // solved once. Exact requests stay on the worker thread; portfolio
  // requests race once each.
  suite.push_back({"serve_explicit_widths",
                   {"tam.exact.nodes", "tam.greedy.solves",
                    "tam.portfolio.races"},
                   [] {
                     ServiceConfig config;
                     config.serial = true;
                     SolveService service(config);
                     for (const char* line : {
                              R"({"schema":"soctest-req-v1","id":"e1","soc":"soc1","widths":[12,12],"solver":"exact"})",
                              R"({"schema":"soctest-req-v1","id":"e2","soc":"soc2","widths":[16,8,8],"solver":"exact"})",
                              R"({"schema":"soctest-req-v1","id":"e3","soc":"soc3","widths":[24,16],"pmax":2000,"solver":"exact"})",
                              R"({"schema":"soctest-req-v1","id":"p1","soc":"soc2","widths":[6,26],"solver":"portfolio"})",
                              R"({"schema":"soctest-req-v1","id":"p2","soc":"soc1","widths":[16,8,8],"solver":"portfolio"})"}) {
                       service.submit(line, [](std::string) {});
                     }
                   }});
  // The sweep's four max widths (B x W = 2x24, 2x40, 3x32, 3x40) on one SOC
  // from an empty memo: misses grow from the widest cached table, so
  // wrapper design runs for 39 widths per core instead of 23+39+30+38.
  // Clears the process-wide memo, so it runs last.
  suite.push_back({"wrapper_table_widths",
                   {"wrapper.table.widths_built"},
                   [] {
                     test_time_table_memo().clear();
                     Rng rng(20 * 7919);
                     SocGeneratorOptions gen;
                     gen.num_cores = 20;
                     const Soc soc = generate_soc(gen, rng);
                     for (int width : {23, 39, 30, 38}) {
                       cached_test_time_table(soc, width);
                     }
                   }});
  return suite;
}

struct GateMeasurement {
  double wall_ms = 0.0;  ///< median of repeats
  std::vector<std::pair<std::string, long long>> counters;
};

GateMeasurement measure(const GateCase& gate_case, int repeats,
                        double inject_slowdown_ms) {
  GateMeasurement m;
  std::vector<double> wall;
  wall.reserve(static_cast<std::size_t>(repeats));
  for (int r = 0; r < repeats; ++r) {
    // One counters-only session per repeat: entry resets the registry, so
    // the post-run snapshot belongs to this repeat alone.
    obs::TraceSession session(nullptr);
    const auto start = std::chrono::steady_clock::now();
    gate_case.run();
    if (inject_slowdown_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(inject_slowdown_ms));
    }
    wall.push_back(std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count());
    if (r + 1 == repeats) {
      const auto values = obs::counter_values();
      for (const std::string& name : gate_case.counters) {
        long long value = 0;
        for (const auto& c : values) {
          if (c.name == name) {
            value = c.value;
            break;
          }
        }
        m.counters.emplace_back(name, value);
      }
    }
  }
  std::sort(wall.begin(), wall.end());
  m.wall_ms = wall[wall.size() / 2];
  return m;
}

std::string baseline_json(
    const std::vector<std::pair<std::string, GateMeasurement>>& measurements) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("soctest-perf-baseline-v1");
  w.key("cases").begin_object();
  for (const auto& [name, m] : measurements) {
    w.key(name).begin_object();
    w.key("wall_ms").value(m.wall_ms);
    w.key("counters").begin_object();
    for (const auto& [counter, value] : m.counters) {
      w.key(counter).value(value);
    }
    w.end_object();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

int cmd_gate(const std::vector<std::string>& args) {
  std::string baseline_path = "bench/baselines/quick_gate.json";
  int repeats = 5;
  double rel_tol = 1.5;
  double floor_ms = 25.0;
  bool update = false;
  bool counters_only = false;
  double inject_slowdown_ms = 0.0;
  if (const char* env = std::getenv("SOCTEST_PERF_COUNTERS_ONLY")) {
    counters_only = std::string(env) != "0";
  }
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "soctest-perf: %s requires a value\n", arg.c_str());
        std::exit(2);
      }
      return args[++i];
    };
    if (arg == "--baseline") {
      baseline_path = value();
    } else if (arg == "--repeats") {
      repeats = std::max(1, std::atoi(value().c_str()));
    } else if (arg == "--rel-tol") {
      rel_tol = std::atof(value().c_str());
    } else if (arg == "--floor-ms") {
      floor_ms = std::atof(value().c_str());
    } else if (arg == "--update") {
      update = true;
    } else if (arg == "--counters-only") {
      counters_only = true;
    } else if (arg == "--inject-slowdown-ms") {
      inject_slowdown_ms = std::atof(value().c_str());
    } else {
      std::fprintf(stderr, "soctest-perf: unknown gate option %s\n%s",
                   arg.c_str(), kUsage);
      return 2;
    }
  }

  std::vector<std::pair<std::string, GateMeasurement>> measurements;
  for (const GateCase& gate_case : gate_suite()) {
    measurements.emplace_back(gate_case.name,
                              measure(gate_case, repeats, inject_slowdown_ms));
  }

  if (update) {
    std::ofstream out(baseline_path);
    if (!out) {
      std::fprintf(stderr, "soctest-perf: cannot write %s\n",
                   baseline_path.c_str());
      return 3;
    }
    out << baseline_json(measurements) << "\n";
    std::printf("wrote baseline %s (%zu cases, median of %d)\n",
                baseline_path.c_str(), measurements.size(), repeats);
    return 0;
  }

  bool ok = false;
  const std::string text = read_file(baseline_path, &ok);
  if (!ok) {
    std::fprintf(stderr,
                 "soctest-perf: cannot read baseline %s (generate one with "
                 "`soctest-perf gate --baseline %s --update`)\n",
                 baseline_path.c_str(), baseline_path.c_str());
    return 3;
  }
  std::string error;
  const auto doc = parse_json(text, &error);
  const JsonValue* cases =
      doc && doc->string_or("schema", "") == "soctest-perf-baseline-v1"
          ? doc->find("cases")
          : nullptr;
  if (cases == nullptr || !cases->is_object()) {
    std::fprintf(stderr, "soctest-perf: %s is not a soctest-perf-baseline-v1 "
                 "file%s%s\n", baseline_path.c_str(),
                 error.empty() ? "" : ": ", error.c_str());
    return 3;
  }

  Table table({"case", "base_ms", "run_ms", "ratio", "counters", "verdict"});
  int failures = 0;
  for (const auto& [name, m] : measurements) {
    const JsonValue* base = cases->find(name);
    std::string verdict = "ok";
    std::string counter_note = m.counters.empty() ? "-" : "match";
    if (base == nullptr || !base->is_object()) {
      ++failures;
      table.row().add(name).add(std::string("-")).add(m.wall_ms, 3)
          .add(std::string("-")).add(std::string("-"))
          .add(std::string("FAIL: not in baseline (re-run with --update)"));
      continue;
    }
    const double base_ms = base->number_or("wall_ms", 0.0);
    const JsonValue* base_counters = base->find("counters");
    for (const auto& [counter, value] : m.counters) {
      const double baseline_value =
          base_counters != nullptr ? base_counters->number_or(counter, -1.0)
                                   : -1.0;
      if (baseline_value != static_cast<double>(value)) {
        counter_note = counter + " " +
                       std::to_string(static_cast<long long>(baseline_value)) +
                       "->" + std::to_string(value);
        verdict = "FAIL: counter drift (algorithm change? --update to accept)";
        ++failures;
        break;
      }
    }
    if (verdict == "ok" && !counters_only) {
      // Noise-aware wall gate: both the relative and the absolute bar must
      // be cleared, so micro-cases (sub-ms, scheduler-noise-dominated) can
      // only fail on a regression a human would also call real.
      const bool slow = m.wall_ms > base_ms * (1.0 + rel_tol) &&
                        m.wall_ms - base_ms > floor_ms;
      if (slow) {
        verdict = "FAIL: slower than baseline";
        ++failures;
      }
    }
    table.row()
        .add(name)
        .add(base_ms, 3)
        .add(m.wall_ms, 3)
        .add(base_ms > 0.0 ? m.wall_ms / base_ms : 0.0, 2)
        .add(counter_note)
        .add(verdict);
  }
  // Baseline cases the suite no longer measures are also drift.
  for (const auto& [name, base] : cases->members) {
    (void)base;
    bool present = false;
    for (const auto& [measured, m] : measurements) {
      (void)m;
      if (measured == name) {
        present = true;
        break;
      }
    }
    if (!present) {
      ++failures;
      table.row().add(name).add(std::string("?")).add(std::string("-"))
          .add(std::string("-")).add(std::string("-"))
          .add(std::string("FAIL: case vanished from suite (--update)"));
    }
  }

  std::printf("perf gate vs %s (median of %d, rel-tol %.2f, floor %.0f ms%s)\n%s",
              baseline_path.c_str(), repeats, rel_tol, floor_ms,
              counters_only ? ", counters only" : "",
              table.to_ascii().c_str());
  if (failures > 0) {
    std::printf("perf gate: FAILED (%d case%s) — see docs/observability.md "
                "\"Reading a regression report\"\n",
                failures, failures == 1 ? "" : "s");
    return 1;
  }
  std::printf("perf gate: OK (%zu cases)\n", measurements.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty() || args[0] == "--help" || args[0] == "-h") {
    std::fputs(kUsage, args.empty() ? stderr : stdout);
    return args.empty() ? 2 : 0;
  }
  const std::string& command = args[0];
  if (command == "diff") {
    if (args.size() != 3) {
      std::fputs(kUsage, stderr);
      return 2;
    }
    return cmd_diff(args[1], args[2]);
  }
  if (command == "report") {
    if (args.size() < 2) {
      std::fputs(kUsage, stderr);
      return 2;
    }
    return cmd_report({args.begin() + 1, args.end()});
  }
  if (command == "gate") {
    return cmd_gate({args.begin() + 1, args.end()});
  }
  if (command == "trace-merge") {
    return cmd_trace_merge({args.begin() + 1, args.end()});
  }
  std::fprintf(stderr, "soctest-perf: unknown command '%s'\n%s",
               command.c_str(), kUsage);
  return 2;
}
