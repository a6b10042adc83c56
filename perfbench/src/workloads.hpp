#pragma once

// Seeded request generation for the three benchmark workloads (README.md).
// Every request carries inline soc_text generated from the workload seed, so
// the fleet never reads a file; the same seed gives a byte-identical stream.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// soctest-serve workers behind the benchmark's front door.
constexpr int kFleetWorkers = 2;

/// One distinct request. Its wire line is the schema member, the id, `mid`,
/// the SOC source and `tail`, so the SOC source (the bulk of every line) is
/// stored once per SOC.
struct Template {
  std::string mid;   ///< members after the id, up to the soc_text value
  std::string tail;  ///< members after the soc_text value
  int soc = 0;       ///< index into Workload::soc_json
};

struct Workload {
  std::string name;
  bool open_loop = false;
  int connections = 2;
  /// Open loop only: the fixed rate ladder (req/s), run lowest first.
  std::vector<double> ladder_rps;
  /// Open loop only: the ladder step whose latencies are reported.
  std::size_t report_step = 0;
  /// Open loop only: the share of the window the report step runs for; the
  /// other steps split the rest evenly.
  double report_share = 0.0;
  /// Open loop only: stream positions sent closed loop before the ladder,
  /// so every step sees warm caches.
  std::size_t warmup_requests = 0;
  /// Each generated SOC's .soc source as an escaped JSON string literal.
  std::vector<std::string> soc_json;
  std::vector<Template> templates;
  /// Template index of each stream position, in send order.
  std::vector<std::uint32_t> stream;
};

const std::vector<std::string>& workload_names();

/// Builds workload `name` from `seed`; throws std::invalid_argument for an
/// unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// The wire line of template `index` with the given request id.
std::string template_line(const Workload& workload, std::size_t index,
                          const std::string& id);

/// The template sent at stream position `position`; an open loop that runs
/// past the generated stream wraps around to its start.
std::uint32_t template_at(const Workload& workload, std::size_t position);

/// The wire line for stream position `position`, id "<name>-<position>".
std::string request_line(const Workload& workload, std::size_t position);

}  // namespace perfbench
