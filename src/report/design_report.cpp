#include "report/design_report.hpp"

#include <algorithm>

#include "report/json.hpp"
#include "wrapper/test_time_table.hpp"
#include "wrapper/wrapper.hpp"

namespace soctest {

std::string design_report_json(const Soc& soc, const DesignRequest& request,
                               const DesignResult& result,
                               const TestSchedule* schedule) {
  JsonWriter w;
  w.begin_object();

  w.key("soc").begin_object();
  w.key("name").value(soc.name());
  w.key("cores").value(soc.num_cores());
  w.key("die").begin_array().value(soc.die_width()).value(soc.die_height()).end_array();
  w.key("total_test_power_mw").value(soc.total_test_power());
  long long tdv = 0;
  for (const auto& c : soc.cores()) tdv += core_test_data_volume(c);
  w.key("test_data_volume_bits").value(tdv);
  w.end_object();

  w.key("constraints").begin_object();
  if (request.d_max >= 0) {
    w.key("d_max").value(request.d_max);
  }
  if (request.wire_budget >= 0) {
    w.key("wire_budget").value(static_cast<long long>(request.wire_budget));
  }
  if (request.p_max_mw >= 0) {
    w.key("p_max_mw").value(request.p_max_mw);
    w.key("power_mode").value(power_mode_name(request.power_mode));
  }
  if (request.ate_depth_limit >= 0) {
    w.key("ate_depth").value(static_cast<long long>(request.ate_depth_limit));
  }
  w.end_object();

  w.key("feasible").value(result.feasible);
  w.key("status").value(solve_status_name(result.certificate.status));
  w.key("stop_reason").value(stop_reason_name(result.certificate.stop));
  if (result.certificate.lower_bound >= 0) {
    w.key("lower_bound").value(result.certificate.lower_bound);
  }
  if (result.certificate.gap() >= 0) {
    w.key("gap").value(result.certificate.gap());
  }
  if (!result.feasible) {
    w.end_object();
    return w.str();
  }
  w.key("proved_optimal").value(result.proved_optimal);
  w.key("test_time_cycles").value(static_cast<long long>(result.assignment.makespan));

  if (!result.pack_placements.empty()) {
    // Rectangle-packing formulation: no buses exist, so the report carries
    // the packed placements (strip coordinates) instead of a buses array.
    w.key("formulation").value("pack");
    w.key("pack").begin_object();
    w.key("strip_width")
        .value(result.bus_widths.empty() ? 0 : result.bus_widths.front());
    w.key("placements").begin_array();
    for (const PackPlacement& p : result.pack_placements) {
      w.begin_object();
      w.key("core").value(soc.core(p.core).name);
      w.key("x").value(p.x);
      w.key("width").value(p.width);
      w.key("start").value(static_cast<long long>(p.start));
      w.key("end").value(static_cast<long long>(p.end));
      w.end_object();
    }
    w.end_array();
    w.end_object();
  } else {
    w.key("formulation").value("fixed-bus");
    w.key("buses").begin_array();
    const int max_width = result.bus_widths.empty()
                              ? 1
                              : *std::max_element(result.bus_widths.begin(),
                                                  result.bus_widths.end());
    const TestTimeTable table(soc, max_width);
    for (std::size_t j = 0; j < result.bus_widths.size(); ++j) {
      w.begin_object();
      w.key("index").value(j);
      w.key("width").value(result.bus_widths[j]);
      Cycles load = 0;
      w.key("cores").begin_array();
      for (std::size_t i = 0; i < soc.num_cores(); ++i) {
        if (result.assignment.core_to_bus[i] != static_cast<int>(j)) continue;
        const Cycles t = table.time(i, result.bus_widths[j]);
        load += t;
        w.begin_object();
        w.key("name").value(soc.core(i).name);
        w.key("test_time").value(static_cast<long long>(t));
        w.key("data_volume_bits").value(core_test_data_volume(soc.core(i)));
        w.end_object();
      }
      w.end_array();
      w.key("load").value(static_cast<long long>(load));
      w.end_object();
    }
    w.end_array();
  }

  if (result.bus_plan) {
    w.key("layout").begin_object();
    w.key("trunk_wirelength").value(result.bus_plan->total_trunk_length());
    w.key("stub_wirelength").value(result.stub_wirelength);
    w.end_object();
  }

  if (schedule != nullptr) {
    w.key("schedule").begin_object();
    w.key("makespan").value(static_cast<long long>(schedule->makespan));
    w.key("tests").begin_array();
    for (const auto& t : schedule->tests) {
      w.begin_object();
      w.key("core").value(soc.core(t.core).name);
      w.key("bus").value(t.bus);
      w.key("start").value(static_cast<long long>(t.start));
      w.key("end").value(static_cast<long long>(t.end));
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  w.key("search").begin_object();
  w.key("partitions_tried").value(result.partitions_tried);
  w.key("nodes").value(result.total_nodes);
  w.end_object();

  w.end_object();
  return w.str();
}

}  // namespace soctest
