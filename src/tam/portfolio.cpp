#include "tam/portfolio.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "obs/obs.hpp"

namespace soctest {

PortfolioResult solve_portfolio(const TamProblem& problem,
                                const PortfolioOptions& options) {
  obs::Span race_span("tam.portfolio.race", {{"cores", problem.num_cores()},
                                             {"buses", problem.num_buses()}});
  PortfolioResult out;

  // Stage 1: greedy-LPT is orders of magnitude cheaper than either racer, so
  // it runs synchronously and its incumbent warm-starts the exact search.
  TamSolveResult greedy;
  {
    obs::Span greedy_span("tam.portfolio.greedy");
    greedy = solve_greedy_lpt(problem);
    if (greedy_span.active() && greedy.feasible) {
      greedy_span.arg(
          {"makespan", static_cast<long long>(greedy.assignment.makespan)});
    }
  }
  Cycles upper_bound = options.initial_upper_bound;
  if (greedy.feasible) {
    out.heuristic_bound = greedy.assignment.makespan;
    upper_bound = upper_bound < 0
                      ? greedy.assignment.makespan
                      : std::min(upper_bound, greedy.assignment.makespan);
  }

  // Stage 2: race the exact branch-and-bound against simulated annealing.
  ExactSolverOptions exact_options;
  exact_options.max_nodes = options.max_nodes;
  exact_options.initial_upper_bound = upper_bound;
  exact_options.bound_mode = options.bound_mode;
  exact_options.threads = options.exact_threads;
  exact_options.cancel = options.cancel;
  exact_options.deadline = options.deadline;

  SaSolverOptions sa_options = options.sa;
  CancellationToken cancel_sa;
  sa_options.cancel = &cancel_sa;
  sa_options.deadline = options.deadline;

  TamSolveResult exact;
  TamSolveResult sa;
  bool exact_faulted = false;
  bool sa_faulted = false;
  {
    const int threads = std::max(2, resolve_thread_count(options.threads));
    ThreadPool pool(static_cast<std::size_t>(threads));
    auto exact_future = pool.submit([&] {
      obs::Span span("tam.portfolio.exact");
      TamSolveResult r = solve_exact(problem, exact_options);
      if (span.active()) {
        span.arg({"nodes", r.nodes});
        span.arg({"proved", r.proved_optimal});
      }
      return r;
    });
    auto sa_future = pool.submit([&] {
      obs::Span span("tam.portfolio.sa");
      TamSolveResult r = solve_sa(problem, sa_options);
      if (span.active()) span.arg({"moves", r.nodes});
      return r;
    });
    // Relay the caller's cancellation to the SA racer while the exact racer
    // runs (the exact racer observes the token directly).
    while (exact_future.wait_for(std::chrono::milliseconds(2)) !=
           std::future_status::ready) {
      if (options.cancel && options.cancel->cancelled()) cancel_sa.cancel();
    }
    // A racer can die outright (injected pool fault, OOM): its future breaks
    // instead of returning. The portfolio degrades to the surviving results
    // rather than propagating the exception.
    try {
      exact = exact_future.get();
    } catch (const std::exception&) {
      exact_faulted = true;
      exact = TamSolveResult{};
      exact.stop = StopReason::kFault;
    }
    if (exact.proved_optimal) {
      // The exact racer won outright: the SA incumbent can no longer matter.
      cancel_sa.cancel();
      out.sa_cancelled = true;
      obs::instant("tam.portfolio.sa_cancel");
    }
    try {
      sa = sa_future.get();
    } catch (const std::exception&) {
      sa_faulted = true;
      sa = TamSolveResult{};
      sa.stop = StopReason::kFault;
    }
  }
  out.exact_nodes = exact.nodes;
  out.sa_moves = sa.nodes;
  if (obs::enabled()) {
    obs::counter("tam.portfolio.races").add(1);
    if (out.sa_cancelled) obs::counter("tam.portfolio.sa_cancelled").add(1);
  }

  auto note_winner = [&] {
    if (!obs::enabled()) return;
    obs::counter(std::string("tam.portfolio.win_") + out.winner).add(1);
    if (race_span.active()) {
      race_span.arg({"winner", out.winner});
      race_span.arg({"heuristic_bound", static_cast<long long>(out.heuristic_bound)});
      race_span.arg({"exact_nodes", out.exact_nodes});
      race_span.arg({"sa_moves", out.sa_moves});
    }
  };

  // The reason the race (if anything) was cut short, for the certificate.
  // The SA racer's own cancellation (fired above once the exact racer
  // proved its answer) is the race working as designed, not a stop.
  const StopReason race_stop =
      exact.stop != StopReason::kNone
          ? exact.stop
          : (out.sa_cancelled ? StopReason::kNone : sa.stop);

  // Stage 3: deterministic selection. A completed exact solve dominates:
  // it searched everything at or below upper_bound.
  if (exact.proved_optimal && exact.feasible) {
    out.best = exact;
    out.winner = "exact";
    out.certificate =
        certify_optimal(static_cast<long long>(exact.assignment.makespan));
    note_winner();
    return out;
  }
  if (exact.proved_optimal) {
    // Nothing is at or below upper_bound. When greedy set that bound it is
    // optimal; otherwise the proof is the answer, exactly as solve_exact
    // reports it for a warm-start bound: infeasible, proven — nothing beats
    // the caller's initial_upper_bound (or no assignment exists at all).
    if (greedy.feasible && greedy.assignment.makespan == upper_bound) {
      out.best = greedy;
      out.best.nodes = exact.nodes;
      out.best.proved_optimal = true;
      out.winner = "greedy";
      out.certificate = certify_optimal(
          static_cast<long long>(greedy.assignment.makespan));
    } else {
      out.best = exact;
      out.winner = "exact";
      out.certificate = certify_infeasible(/*proven=*/true, StopReason::kNone);
    }
    note_winner();
    return out;
  }
  // Aborted/cancelled exact: keep the best feasible incumbent, preferring
  // exact, then greedy, then SA on ties (a fixed order keeps the choice
  // deterministic for equal makespans).
  out.best = exact;
  out.winner = "exact";
  auto consider = [&](const TamSolveResult& candidate, const char* name) {
    if (!candidate.feasible) return;
    if (!out.best.feasible ||
        candidate.assignment.makespan < out.best.assignment.makespan) {
      const long long nodes = out.best.nodes;
      out.best = candidate;
      out.best.nodes = nodes;  // keep the aggregate search-effort figure
      out.winner = name;
    }
  };
  consider(greedy, "greedy");
  consider(sa, "sa");
  out.best.proved_optimal = false;
  if (out.best.stop == StopReason::kNone) out.best.stop = race_stop;
  if (out.best.feasible) {
    const long long makespan =
        static_cast<long long>(out.best.assignment.makespan);
    const Cycles lb = problem.lower_bound();
    if (lb > 0 && makespan <= static_cast<long long>(lb)) {
      // The incumbent meets the combinatorial lower bound: optimal after
      // all, even though the exact racer never finished its proof.
      out.best.proved_optimal = true;
      out.certificate = certify_optimal(makespan);
    } else if (lb > 0) {
      out.certificate =
          certify_bounded(makespan, static_cast<long long>(lb), race_stop);
    } else {
      out.certificate = certify_feasible(makespan, race_stop);
    }
  } else if (exact_faulted && sa_faulted) {
    out.certificate = certify_error("all portfolio racers faulted");
  } else {
    out.certificate = certify_infeasible(/*proven=*/false, race_stop);
  }
  note_winner();
  return out;
}

FormulationRaceResult race_formulations(
    const std::function<ArchitectureResult()>& solve_fixed,
    const PackProblem& pack_problem, const PackSolverOptions& pack_options) {
  obs::Span span("tam.portfolio.formulations",
                 {{"cores", pack_problem.num_cores()},
                  {"width", static_cast<long long>(pack_problem.total_width)}});
  FormulationRaceResult out;
  bool fixed_faulted = false;
  {
    // Both racers run to completion: cancelling the loser would make the
    // certificate depend on timing, and each racer is deterministic on its
    // own, so completion is what keeps the race bit-identical at any
    // thread count.
    ThreadPool pool(2);
    auto fixed_future = pool.submit(solve_fixed);
    auto pack_future =
        pool.submit([&] { return solve_pack(pack_problem, pack_options); });
    try {
      out.fixed = fixed_future.get();
    } catch (const std::exception&) {
      fixed_faulted = true;
      out.fixed = ArchitectureResult{};
      out.fixed.stop = StopReason::kFault;
      out.fixed.certificate = certify_error("fixed-bus racer faulted");
    }
    try {
      out.pack = pack_future.get();
    } catch (const std::exception&) {
      out.pack = PackSolveResult{};
      out.pack.stop = StopReason::kFault;
      out.pack.certificate = certify_error("pack racer faulted");
    }
  }
  if (fixed_faulted && !out.pack.feasible) {
    // Nothing survived; surface the fixed-bus fault the way a non-racing
    // solve would have.
    throw std::runtime_error("formulation race: both racers faulted");
  }
  out.pack_won =
      out.pack.feasible &&
      (!out.fixed.feasible ||
       out.pack.makespan < out.fixed.assignment.makespan);
  if (obs::enabled()) {
    obs::counter("tam.portfolio.formulation_races").add(1);
    obs::counter(out.pack_won ? "tam.portfolio.win_pack"
                              : "tam.portfolio.win_fixed")
        .add(1);
  }
  if (span.active()) {
    span.arg({"pack_won", out.pack_won});
    span.arg({"pack_makespan", static_cast<long long>(out.pack.makespan)});
    if (out.fixed.feasible) {
      span.arg({"fixed_makespan",
                static_cast<long long>(out.fixed.assignment.makespan)});
    }
  }
  return out;
}

}  // namespace soctest
