#pragma once

#include <vector>

#include "common/sharded_cache.hpp"
#include "layout/bus_planner.hpp"
#include "tam/tam_problem.hpp"
#include "wrapper/test_time_table.hpp"

namespace soctest {

/// Process-wide (SOC, max_width, heuristic) → TestTimeTable memo, shared by
/// sweep workloads (bench grids, the report path) and the solve service:
/// each table build re-runs wrapper design for every core and width, and a
/// Chakrabarty-style sweep rebuilds the identical table for every grid cell.
///
/// Implemented on ShardedLruCache (src/common/sharded_cache.hpp) in
/// unbounded memo mode, the same primitive the service result cache uses.
/// Locking contract (see ShardedLruCache for the full statement): one shard
/// mutex per operation, table construction runs outside any lock (racing
/// threads may build the same table redundantly; the first insert wins),
/// and — because the memo is unbounded — returned references stay valid for
/// the process lifetime. Tables are small (num_cores × max_width integers),
/// so pinning them is the right trade for sweeps.
using TestTimeTableMemo = ShardedLruCache<TestTimeTable>;

/// The process-wide memo instance (also consulted for cache introspection:
/// hits/misses/size — see docs/service.md).
TestTimeTableMemo& test_time_table_memo();

/// Memoized table lookup. Keyed by a fingerprint of the SOC's test
/// structure (not just its name, so regenerated/mutated SOCs never alias),
/// plus max_width and the partition heuristic. Thread-safe. A hit is one
/// memo lookup. A miss copies the rows it can from the widest table of the
/// same fingerprint and heuristic already in the memo (a prefix of a wider
/// one, or all of a narrower one) and runs wrapper design only for the
/// widths beyond it; `wrapper.table.widths_built` counts the core-width
/// cells designed.
const TestTimeTable& cached_test_time_table(
    const Soc& soc, int max_width,
    PartitionHeuristic heuristic = PartitionHeuristic::kBestFitDecreasing);

/// First-order wire-delay model for TAM clocking: a bus's scan clock must
/// accommodate its longest wire path, so the achievable period grows with
/// the trunk length plus the longest stub hanging off it. The cycle counts
/// the optimizer minimizes are therefore not the whole story — a
/// cycle-optimal but wire-sloppy assignment can lose wall-clock time to a
/// lexicographic (wire-minimal) one.
struct TamClockModel {
  double base_period_ns = 10.0;  ///< 100 MHz floor (pads, wrapper logic)
  double per_cell_ns = 0.08;     ///< added per grid cell of critical wire
};

/// Achievable clock period of each bus under `assignment`:
///   period_j = base + per_cell * (trunk_length_j + max stub distance of
///              the cores assigned to bus j).
/// Unreachable stubs (distance < 0) throw.
std::vector<double> bus_clock_periods_ns(const BusPlan& plan,
                                         const std::vector<int>& assignment,
                                         const TamClockModel& model = {});

/// Wall-clock system test time: max_j load_j(cycles) * period_j(ns).
double wall_clock_test_time_ns(const TamProblem& problem, const BusPlan& plan,
                               const std::vector<int>& assignment,
                               const TamClockModel& model = {});

}  // namespace soctest
