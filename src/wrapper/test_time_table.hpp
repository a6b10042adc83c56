#pragma once

#include <vector>

#include "soc/soc.hpp"
#include "wrapper/wrapper.hpp"

namespace soctest {

/// Precomputed per-core test times for every TAM width 1..max_width.
///
/// The architecture optimizer consults this table instead of re-running
/// wrapper design. Times are the *monotone envelope* of the wrapper
/// heuristic: a width-w TAM can always leave wires unused, so the effective
/// test time at width w is min over w' <= w of the heuristic time — this also
/// irons out any non-monotonicity of the packing heuristic.
class TestTimeTable {
 public:
  /// Builds the table for every core of `soc`.
  TestTimeTable(const Soc& soc, int max_width,
                PartitionHeuristic heuristic =
                    PartitionHeuristic::kBestFitDecreasing);

  /// Builds the same table as TestTimeTable(soc, max_width, heuristic) from
  /// `prefix`, a table of the same SOC test structure and heuristic (equal
  /// soc_table_fingerprint): raw rows up to prefix.max_width() are copied,
  /// so wrapper design runs only for the widths beyond it. Rows 1..w never
  /// depend on the table's max width, which makes the copy exact.
  TestTimeTable(const Soc& soc, int max_width, PartitionHeuristic heuristic,
                const TestTimeTable& prefix);

  int max_width() const { return max_width_; }
  std::size_t num_cores() const { return num_cores_; }

  /// Effective (monotone) test time of core `i` at width `w` (1..max_width).
  Cycles time(std::size_t core, int width) const;

  /// Raw heuristic time before the monotone envelope.
  Cycles raw_time(std::size_t core, int width) const;

  /// Width actually used to achieve time(core, width) — the smallest
  /// w' <= width attaining the envelope (Pareto-optimal width).
  int effective_width(std::size_t core, int width) const;

  /// Strictly improving widths of core `i`: w is Pareto-optimal iff
  /// time(i, w) < time(i, w-1) (w=1 always included).
  std::vector<int> pareto_widths(std::size_t core) const;

  /// Sum over all cores of time(core, width) — total sequential test load if
  /// every core used a width-`width` TAM. Used for lower bounds.
  Cycles total_time(int width) const;

 private:
  TestTimeTable(const Soc& soc, int max_width, PartitionHeuristic heuristic,
                const TestTimeTable* prefix);
  std::size_t cell(std::size_t core, int width) const;

  int max_width_;
  std::size_t num_cores_;
  // Core-major flat rows: core i, width w at [i * max_width + w - 1].
  std::vector<Cycles> raw_;
  std::vector<Cycles> times_;   // monotone envelope
  std::vector<int> eff_width_;  // argmin width
};

/// Fingerprint of everything TestTimeTable construction reads from a SOC:
/// the per-core test structure. Two SOCs with equal fingerprints produce
/// bit-identical tables. This is the identity the process-wide memo
/// (cached_test_time_table, src/tam/timing.hpp) and the service result
/// cache key off.
std::string soc_table_fingerprint(const Soc& soc);

}  // namespace soctest
