#include "oracle.hpp"

#include <atomic>
#include <stdexcept>
#include <thread>

#include "common/parallel.hpp"
#include "report/json.hpp"
#include "soc/soc_format.hpp"
#include "tam/architect.hpp"

namespace perfbench {

Answer parse_answer(const std::string& final_line) {
  Answer answer;
  const auto doc = soctest::parse_json(final_line);
  if (!doc || !doc->is_object()) return answer;
  const soctest::JsonValue* ok = doc->find("ok");
  answer.ok = ok != nullptr && ok->is_bool() && ok->boolean;
  const soctest::JsonValue* feasible = doc->find("feasible");
  answer.feasible = feasible != nullptr && feasible->is_bool() &&
                    feasible->boolean;
  if (const soctest::JsonValue* widths = doc->find("widths");
      widths != nullptr && widths->is_array()) {
    for (const soctest::JsonValue& w : widths->items) {
      answer.widths.push_back(static_cast<int>(w.number));
    }
  }
  answer.t_cycles = static_cast<long long>(doc->number_or("t_cycles", -1.0));
  return answer;
}

Answer reference_answer(const soctest::ServiceRequest& request) {
  Answer answer;
  auto soc = soctest::parse_soc_string(request.soc_text, "<inline>");
  if (!soc.ok()) return answer;
  soctest::DesignRequest design;
  design.bus_widths = request.widths;
  design.num_buses = request.buses;
  design.total_width = request.total_width;
  design.d_max = request.d_max;
  design.wire_budget = request.wire_budget;
  design.p_max_mw = request.p_max;
  design.power_mode = request.power_mode;
  design.ate_depth_limit = request.ate_depth;
  design.solver = request.solver;
  design.threads = request.threads;
  // soctest-serve hands every solve a cancellation token, which routes
  // exact requests through the portfolio; the reference does the same.
  soctest::CancellationToken cancel;
  design.cancel = &cancel;
  try {
    const soctest::DesignResult result =
        soctest::design_architecture(soc.value(), design);
    if (result.certificate.status == soctest::SolveStatus::kError) {
      return answer;
    }
    answer.ok = true;
    answer.feasible = result.feasible;
    answer.widths = result.bus_widths;
    answer.t_cycles = result.feasible
                          ? static_cast<long long>(result.assignment.makespan)
                          : -1;
  } catch (const std::invalid_argument&) {
    answer.ok = false;
  } catch (const std::runtime_error&) {
    // Structurally infeasible constraint sets are an answer, not an error.
    answer.ok = true;
    answer.feasible = false;
  }
  return answer;
}

OracleResult check_answers(const std::vector<OracleSample>& sample,
                           int threads) {
  struct Entry {
    bool matched = false;
    Answer returned;
    Answer optimum;
  };
  std::vector<Entry> entries(sample.size());
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < sample.size();) {
      Entry& e = entries[i];
      try {
        auto request = soctest::parse_request(sample[i].request_line);
        if (!request.ok()) continue;
        e.returned = parse_answer(sample[i].final_line);
        const Answer reference = reference_answer(request.value());
        e.matched = e.returned == reference;
        if (request.value().solver == soctest::InnerSolver::kExact) {
          e.optimum = reference;
        } else {
          soctest::ServiceRequest exact = request.value();
          exact.solver = soctest::InnerSolver::kExact;
          e.optimum = reference_answer(exact);
        }
      } catch (const std::exception&) {
        e.matched = false;  // counted as a mismatch
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();

  OracleResult result;
  result.checked = sample.size();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    if (!e.matched) result.mismatched.push_back(i);
    if (e.returned.feasible && e.optimum.feasible && e.optimum.t_cycles > 0) {
      result.returned_sum += static_cast<double>(e.returned.t_cycles);
      result.optimum_sum += static_cast<double>(e.optimum.t_cycles);
    }
  }
  return result;
}

}  // namespace perfbench
