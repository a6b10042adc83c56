#pragma once

// The answer oracle: re-solves a request in-process with the same design
// flow the worker runs (design_architecture) and compares the fields a
// client relies on. Its fixed-bus exact optimum is also the denominator of
// makespan_ratio.

#include <cstddef>
#include <string>
#include <vector>

#include "service/protocol.hpp"

namespace perfbench {

/// The client-visible part of one answer.
struct Answer {
  bool ok = false;
  bool feasible = false;
  std::vector<int> widths;
  long long t_cycles = -1;

  bool operator==(const Answer&) const = default;
};

/// The answer fields of a soctest-resp-v1 line.
Answer parse_answer(const std::string& final_line);

/// Solves `request` the way soctest-serve does (same DesignRequest mapping
/// and exception translation).
Answer reference_answer(const soctest::ServiceRequest& request);

struct OracleSample {
  std::string request_line;
  std::string final_line;
};

struct OracleResult {
  std::size_t checked = 0;
  std::vector<std::size_t> mismatched;  ///< indices into the sample
  /// Over sample entries feasible in both the response and the optimum.
  double returned_sum = 0.0;
  double optimum_sum = 0.0;
};

/// Checks every sample entry against its reference and computes the
/// fixed-bus exact optimum (solver exact, same shape and constraints) on
/// `threads` threads.
OracleResult check_answers(const std::vector<OracleSample>& sample,
                           int threads);

}  // namespace perfbench
