#include "tam/timing.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "obs/obs.hpp"

namespace soctest {

TestTimeTableMemo& test_time_table_memo() {
  // Unbounded (capacity 0): entries are pinned so the references
  // cached_test_time_table hands out stay valid for the process lifetime.
  static TestTimeTableMemo memo(/*capacity=*/0, /*num_shards=*/8);
  return memo;
}

namespace {

/// The widest memo entry per (heuristic, SOC fingerprint): the prefix
/// source a miss at another width copies rows from. Holds weak references
/// to the memo's own entries, so it never keeps a table alive on its own
/// (a cleared memo expires them) and adds no second copy of any rows.
class WidestTables {
 public:
  std::shared_ptr<const TestTimeTable> find(const std::string& soc_key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = widest_.find(soc_key);
    return it == widest_.end() ? nullptr : it->second.lock();
  }

  void offer(const std::string& soc_key,
             const std::shared_ptr<const TestTimeTable>& table) {
    std::lock_guard<std::mutex> lock(mu_);
    std::weak_ptr<const TestTimeTable>& slot = widest_[soc_key];
    const auto current = slot.lock();
    if (!current || current->max_width() < table->max_width()) slot = table;
  }

 private:
  std::mutex mu_;
  std::unordered_map<std::string, std::weak_ptr<const TestTimeTable>> widest_;
};

WidestTables& widest_tables() {
  static WidestTables index;
  return index;
}

}  // namespace

const TestTimeTable& cached_test_time_table(const Soc& soc, int max_width,
                                            PartitionHeuristic heuristic) {
  const std::string soc_key = std::to_string(static_cast<int>(heuristic)) +
                              '|' + soc_table_fingerprint(soc);
  const std::string key = std::to_string(max_width) + '|' + soc_key;
  TestTimeTableMemo& memo = test_time_table_memo();
  if (auto hit = memo.get(key)) return *hit;
  // Miss: rows 1..w of a table never depend on its max width, so the
  // widest cached table of this SOC supplies every row it already has.
  const auto source = widest_tables().find(soc_key);
  const int reused = source ? std::min(source->max_width(), max_width) : 0;
  auto built = std::make_shared<const TestTimeTable>(
      source ? TestTimeTable(soc, max_width, heuristic, *source)
             : TestTimeTable(soc, max_width, heuristic));
  if (obs::enabled()) {
    obs::counter("wrapper.table.widths_built")
        .add(static_cast<long long>(max_width - reused) *
             static_cast<long long>(soc.num_cores()));
  }
  const auto stored = memo.put(key, std::move(built));
  widest_tables().offer(soc_key, stored);
  return *stored;
}

std::vector<double> bus_clock_periods_ns(const BusPlan& plan,
                                         const std::vector<int>& assignment,
                                         const TamClockModel& model) {
  std::vector<int> max_stub(plan.num_buses(), 0);
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    const int bus = assignment[i];
    if (bus < 0 || static_cast<std::size_t>(bus) >= plan.num_buses()) {
      throw std::invalid_argument("assignment references unknown bus");
    }
    const int d = plan.distance(i, static_cast<std::size_t>(bus));
    if (d < 0) {
      throw std::invalid_argument("core " + std::to_string(i) +
                                  " unreachable from its bus");
    }
    max_stub[static_cast<std::size_t>(bus)] =
        std::max(max_stub[static_cast<std::size_t>(bus)], d);
  }
  std::vector<double> periods(plan.num_buses(), model.base_period_ns);
  for (std::size_t j = 0; j < plan.num_buses(); ++j) {
    const int critical = plan.buses[j].trunk.length() + max_stub[j];
    periods[j] += model.per_cell_ns * critical;
  }
  return periods;
}

double wall_clock_test_time_ns(const TamProblem& problem, const BusPlan& plan,
                               const std::vector<int>& assignment,
                               const TamClockModel& model) {
  const auto periods = bus_clock_periods_ns(plan, assignment, model);
  std::vector<Cycles> load(problem.num_buses(), 0);
  for (std::size_t i = 0; i < problem.num_cores(); ++i) {
    const auto j = static_cast<std::size_t>(assignment[i]);
    load[j] += problem.time[i][j];
  }
  double worst = 0.0;
  for (std::size_t j = 0; j < problem.num_buses(); ++j) {
    worst = std::max(worst, static_cast<double>(load[j]) * periods[j]);
  }
  return worst;
}

}  // namespace soctest
