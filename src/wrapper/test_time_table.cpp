#include "wrapper/test_time_table.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace soctest {

std::string soc_table_fingerprint(const Soc& soc) {
  std::ostringstream key;
  key << soc.name() << '|' << soc.num_cores();
  for (std::size_t i = 0; i < soc.num_cores(); ++i) {
    const Core& core = soc.core(i);
    key << '|' << core.name << ',' << core.num_inputs << ',' << core.num_outputs
        << ',' << core.num_bidirs << ',' << core.soft_scan_flops << ','
        << core.num_patterns << ':';
    for (int len : core.scan_chain_lengths) key << len << ';';
  }
  return key.str();
}

TestTimeTable::TestTimeTable(const Soc& soc, int max_width,
                             PartitionHeuristic heuristic)
    : TestTimeTable(soc, max_width, heuristic, nullptr) {}

TestTimeTable::TestTimeTable(const Soc& soc, int max_width,
                             PartitionHeuristic heuristic,
                             const TestTimeTable& prefix)
    : TestTimeTable(soc, max_width, heuristic, &prefix) {}

TestTimeTable::TestTimeTable(const Soc& soc, int max_width,
                             PartitionHeuristic heuristic,
                             const TestTimeTable* prefix)
    : max_width_(max_width), num_cores_(soc.num_cores()) {
  if (max_width < 1) throw std::invalid_argument("max_width must be >= 1");
  if (prefix != nullptr && prefix->num_cores_ != num_cores_) {
    throw std::invalid_argument("prefix table core count mismatch");
  }
  const int reused =
      prefix != nullptr ? std::min(prefix->max_width_, max_width) : 0;
  const auto row = static_cast<std::size_t>(max_width);
  raw_.resize(num_cores_ * row);
  times_.resize(num_cores_ * row);
  eff_width_.resize(num_cores_ * row);
  for (std::size_t i = 0; i < num_cores_; ++i) {
    Cycles* raw = raw_.data() + i * row;
    Cycles* times = times_.data() + i * row;
    int* eff = eff_width_.data() + i * row;
    if (reused > 0) {
      std::copy_n(prefix->raw_.data() + prefix->cell(i, 1),
                  static_cast<std::size_t>(reused), raw);
    }
    for (int w = reused + 1; w <= max_width; ++w) {
      raw[w - 1] = core_test_time(soc.core(i), w, heuristic);
    }
    times[0] = raw[0];
    eff[0] = 1;
    for (int w = 2; w <= max_width; ++w) {
      if (raw[w - 1] < times[w - 2]) {
        times[w - 1] = raw[w - 1];
        eff[w - 1] = w;
      } else {
        times[w - 1] = times[w - 2];
        eff[w - 1] = eff[w - 2];
      }
    }
  }
}

std::size_t TestTimeTable::cell(std::size_t core, int width) const {
  if (width < 1 || width > max_width_)
    throw std::out_of_range("width out of table range");
  if (core >= num_cores_) throw std::out_of_range("core out of table range");
  return core * static_cast<std::size_t>(max_width_) +
         static_cast<std::size_t>(width - 1);
}

Cycles TestTimeTable::time(std::size_t core, int width) const {
  return times_[cell(core, width)];
}

Cycles TestTimeTable::raw_time(std::size_t core, int width) const {
  return raw_[cell(core, width)];
}

int TestTimeTable::effective_width(std::size_t core, int width) const {
  return eff_width_[cell(core, width)];
}

std::vector<int> TestTimeTable::pareto_widths(std::size_t core) const {
  std::vector<int> widths{1};
  for (int w = 2; w <= max_width_; ++w) {
    if (time(core, w) < time(core, w - 1)) widths.push_back(w);
  }
  return widths;
}

Cycles TestTimeTable::total_time(int width) const {
  Cycles total = 0;
  for (std::size_t i = 0; i < num_cores_; ++i) total += time(i, width);
  return total;
}

}  // namespace soctest
