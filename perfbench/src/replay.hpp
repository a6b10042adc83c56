#pragma once

// The traced pass: replays sent requests in-process through each module's
// public functions, the way a worker processes them, and records spans from
// this file around every call. Nothing inside the program is instrumented.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

/// One span: a call into a module on behalf of one replayed request.
struct Span {
  const char* name = "";
  std::size_t request = 0;  ///< stream position
  int parent = -1;          ///< index of the enclosing span, -1 = root
  double start_us = 0.0;
  double end_us = 0.0;
};

struct ReplayResult {
  std::size_t requests = 0;  ///< positions replayed
  double wall_s = 0.0;
  std::vector<Span> spans;   ///< empty for an untraced pass
  /// Self time (span minus its children) per span name, one entry per span.
  std::map<std::string, std::vector<double>> self_us;
  long long memo_hits = 0;
  long long memo_misses = 0;
  std::vector<double> table_build_ms;  ///< wrapper.table calls that built

  long long partitions_tried = 0;  ///< over fixed-bus (tam) solves
  long long nodes = 0;             ///< over fixed-bus (tam) solves
};

/// Replays `positions` (in send order) through a per-shard result cache of
/// `cache_capacity` entries, like a fleet of `workers` workers. With
/// `max_requests` = 0 the pass stops once `budget_s` has elapsed; otherwise
/// it replays exactly that many positions.
ReplayResult replay(const Workload& workload,
                    const std::vector<std::size_t>& positions, int workers,
                    std::size_t cache_capacity, bool traced, double budget_s,
                    std::size_t max_requests);

struct CacheReplay {
  long long hits = 0;
  long long misses = 0;
  long long evictions = 0;
};

/// Feeds the cache key of every position (send order) through per-shard
/// result caches sized like the workers'. Assumes every miss fills.
CacheReplay replay_cache(const Workload& workload,
                         const std::vector<std::size_t>& positions,
                         int workers, std::size_t cache_capacity);

/// Writes the spans of the first `max_requests` requests as a Chrome trace
/// event file; false when the file cannot be written.
bool write_trace(const ReplayResult& result, const std::string& path,
                 std::size_t max_requests);

}  // namespace perfbench
