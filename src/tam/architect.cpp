#include "tam/architect.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "pack/exact_pack.hpp"
#include "pack/skyline.hpp"
#include "tam/portfolio.hpp"
#include "tam/timing.hpp"

namespace soctest {

namespace {

/// Maps a packed-strip solve onto the DesignResult shape: one "bus" as wide
/// as the strip, every core on it, the schedule in pack_placements.
void fill_pack_result(DesignResult& result, std::size_t num_cores, int strip,
                      PackSolveResult solved) {
  result.feasible = solved.feasible;
  result.proved_optimal = solved.proved_optimal;
  result.bus_widths = {strip};
  result.assignment.core_to_bus.assign(num_cores, 0);
  result.assignment.makespan = solved.makespan;
  result.partitions_tried = 1;
  result.total_nodes = solved.nodes;
  result.stop = solved.stop;
  result.search_mode = SearchMode::kNone;
  result.certificate = solved.certificate;
  result.pack_placements = std::move(solved.placements);
}

void report_pack_progress(const DesignRequest& request,
                          const DesignResult& result, Cycles lower_bound) {
  if (!request.progress || !result.feasible) return;
  SolveProgress snapshot;
  snapshot.bus_widths = result.bus_widths;
  snapshot.t_cycles = static_cast<long long>(result.assignment.makespan);
  snapshot.lower_bound =
      lower_bound > 0 ? static_cast<long long>(lower_bound) : -1;
  request.progress(snapshot);
}

}  // namespace

DesignResult design_architecture(const Soc& soc, const DesignRequest& request) {
  const std::string soc_err = soc.validate();
  if (!soc_err.empty()) throw std::invalid_argument("invalid SOC: " + soc_err);

  // The rectangle-packing formulation replaces the whole fixed-bus flow:
  // no bus partition exists, so layout and per-bus ATE depth constraints
  // cannot apply to it.
  if (request.solver == InnerSolver::kPack ||
      request.solver == InnerSolver::kPackExact) {
    if (request.use_layout || request.d_max >= 0 || request.wire_budget >= 0) {
      throw std::invalid_argument(
          "--solver pack/pack-exact does not support layout constraints");
    }
    if (request.ate_depth_limit >= 0) {
      throw std::invalid_argument(
          "--solver pack/pack-exact does not support --ate-depth");
    }
    const int strip =
        request.bus_widths.empty()
            ? request.total_width
            : std::accumulate(request.bus_widths.begin(),
                              request.bus_widths.end(), 0);
    if (strip < 1) throw std::invalid_argument("pack: empty strip");
    const TestTimeTable& table = cached_test_time_table(soc, strip);
    const PackProblem problem =
        make_pack_problem(soc, table, strip, request.p_max_mw);
    PackSolveResult solved;
    if (request.solver == InnerSolver::kPack) {
      PackSolverOptions options;
      options.cancel = request.cancel;
      options.deadline = request.deadline;
      solved = solve_pack(problem, options);
    } else {
      PackExactOptions options;
      options.max_nodes = request.max_nodes;
      options.cancel = request.cancel;
      options.deadline = request.deadline;
      solved = solve_pack_exact(problem, options);
    }
    DesignResult result;
    fill_pack_result(result, soc.num_cores(), strip, std::move(solved));
    report_pack_progress(request, result, problem.lower_bound());
    return result;
  }

  const bool needs_layout =
      request.use_layout || request.d_max >= 0 || request.wire_budget >= 0;
  const int num_buses = request.bus_widths.empty()
                            ? request.num_buses
                            : static_cast<int>(request.bus_widths.size());

  std::optional<BusPlan> plan;
  std::optional<LayoutConstraints> layout;
  if (needs_layout) {
    if (!soc.has_placement()) {
      throw std::invalid_argument(
          "layout constraints requested but the SOC has no placement");
    }
    plan = plan_buses(soc, num_buses);
    layout.emplace(*plan, soc.num_cores(), request.d_max);
  }

  const int max_width = request.bus_widths.empty()
                            ? request.total_width - (num_buses - 1)
                            : *std::max_element(request.bus_widths.begin(),
                                                request.bus_widths.end());
  const TestTimeTable& table = cached_test_time_table(soc, std::max(1, max_width));

  // Only a finite deadline is a budget: kExact alone could expire with no
  // incumbent at all, so the portfolio's greedy floor becomes the
  // degradation chain for deadline-bound requests (docs/robustness.md). A
  // cancellation token is not a budget — the solve service installs one on
  // every job — so it keeps kExact on the calling thread; once fired, the
  // search answers with its best greedy-LPT seed.
  WidthPartitionOptions options;
  options.solver = request.solver;
  if (request.deadline.finite() && options.solver == InnerSolver::kExact) {
    options.solver = InnerSolver::kPortfolio;
  }
  options.max_nodes_per_solve = request.max_nodes;
  options.threads = request.threads;
  options.power_mode = request.power_mode;
  options.bus_depth_limit = request.ate_depth_limit;
  options.cancel = request.cancel;
  options.deadline = request.deadline;
  options.progress = request.progress;
  // Explicit widths are a width search over one candidate.
  const auto solve_fixed = [&] {
    const LayoutConstraints* layout_ptr = layout ? &*layout : nullptr;
    if (!request.bus_widths.empty()) {
      return search_width_candidates(soc, table, num_buses, request.bus_widths,
                                     layout_ptr, request.wire_budget,
                                     request.p_max_mw, options);
    }
    return optimize_widths(soc, table, num_buses, request.total_width,
                           layout_ptr, request.wire_budget, request.p_max_mw,
                           options);
  };

  // Portfolio width searches without layout/ATE constraints additionally
  // race the rectangle-packing formulation; the packing wins only on a
  // strictly smaller makespan, so every pre-pack answer is preserved.
  // Explicitly requested portfolio only: the anytime kExact reroute keeps
  // its pre-pack behavior (a deadline must not change which formulation a
  // --solver exact run answers with).
  const bool race_pack = request.bus_widths.empty() &&
                         request.solver == InnerSolver::kPortfolio &&
                         request.pack_race && !needs_layout &&
                         request.ate_depth_limit < 0 &&
                         request.total_width >= 1;
  DesignResult result;
  ArchitectureResult arch;
  if (race_pack) {
    const TestTimeTable& pack_table =
        cached_test_time_table(soc, request.total_width);
    const PackProblem pack_problem = make_pack_problem(
        soc, pack_table, request.total_width, request.p_max_mw);
    PackSolverOptions pack_options;
    pack_options.cancel = request.cancel;
    pack_options.deadline = request.deadline;
    FormulationRaceResult race =
        race_formulations(solve_fixed, pack_problem, pack_options);
    arch = std::move(race.fixed);
    if (race.pack_won) {
      fill_pack_result(result, soc.num_cores(), request.total_width,
                       std::move(race.pack));
      result.partitions_tried += arch.partitions_tried;
      result.total_nodes += arch.total_nodes;
      report_pack_progress(request, result, pack_problem.lower_bound());
      return result;
    }
  } else {
    arch = solve_fixed();
  }
  result.feasible = arch.feasible;
  result.proved_optimal = arch.proved_optimal;
  result.bus_widths = std::move(arch.bus_widths);
  result.assignment = std::move(arch.assignment);
  result.partitions_tried = arch.partitions_tried;
  result.total_nodes = arch.total_nodes;
  result.stop = arch.stop;
  result.search_mode = arch.search_mode;
  result.certificate = std::move(arch.certificate);

  result.bus_plan = std::move(plan);
  if (result.feasible && layout) {
    result.stub_wirelength =
        layout->assignment_wirelength(result.assignment.core_to_bus);
  }
  return result;
}

std::string describe_design(const Soc& soc, const DesignRequest& request,
                            const DesignResult& result) {
  std::ostringstream out;
  out << "SOC " << soc.name() << ": " << soc.num_cores() << " cores\n";
  out << "constraints:";
  if (request.d_max >= 0) out << " d_max=" << request.d_max;
  if (request.wire_budget >= 0) out << " wire_budget=" << request.wire_budget;
  if (request.p_max_mw >= 0) out << " p_max=" << request.p_max_mw << "mW";
  if (request.d_max < 0 && request.wire_budget < 0 && request.p_max_mw < 0) {
    out << " none";
  }
  out << "\n";
  if (!result.feasible) {
    out << "NO FEASIBLE ARCHITECTURE FOUND\n";
    out << "status=" << result.certificate.to_string() << "\n";
    return out.str();
  }
  out << "system test time: " << result.assignment.makespan << " cycles"
      << (result.proved_optimal ? " (optimal)" : " (heuristic)") << "\n";
  out << "status=" << result.certificate.to_string() << "\n";
  if (!result.pack_placements.empty()) {
    // Rectangle-packing formulation: no buses exist; report the packed
    // schedule (wires x, width w, cycles [start, end)) per core instead.
    out << "packed strip: width "
        << (result.bus_widths.empty() ? 0 : result.bus_widths.front())
        << "\n";
    for (const PackPlacement& p : result.pack_placements) {
      out << "  " << soc.core(p.core).name << ": wires [" << p.x << ","
          << p.x + p.width << ") cycles [" << p.start << "," << p.end
          << ")\n";
    }
    return out.str();
  }
  for (std::size_t j = 0; j < result.bus_widths.size(); ++j) {
    out << "  bus " << j << " (width " << result.bus_widths[j] << "):";
    Cycles load = 0;
    for (std::size_t i = 0; i < soc.num_cores(); ++i) {
      if (result.assignment.core_to_bus[i] == static_cast<int>(j)) {
        out << " " << soc.core(i).name;
      }
    }
    // Report the bus load via a second pass with the test time table.
    const TestTimeTable& table = cached_test_time_table(soc, result.bus_widths[j]);
    for (std::size_t i = 0; i < soc.num_cores(); ++i) {
      if (result.assignment.core_to_bus[i] == static_cast<int>(j)) {
        load += table.time(i, result.bus_widths[j]);
      }
    }
    out << "  [load " << load << "]\n";
  }
  if (result.bus_plan) {
    out << "trunk wirelength: " << result.bus_plan->total_trunk_length()
        << ", stub wirelength: " << result.stub_wirelength << "\n";
  }
  return out.str();
}

}  // namespace soctest
