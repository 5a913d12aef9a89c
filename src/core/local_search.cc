#include "core/local_search.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/celf.h"
#include "core/objective.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace phocus {

namespace {

/// Relative improvement below which a move is rejected (floating-point churn).
constexpr double kMinRelativeGain = 1e-9;

/// One speculative evict-and-refill probe, batched by the sweep below.
struct VictimProbe {
  PhotoId victim = 0;
  /// Snapshot index just past the victim — where the sweep resumes if this
  /// probe's move is accepted.
  std::size_t resume_at = 0;
  SolverResult refilled;
  std::size_t gain_evaluations = 0;
};

}  // namespace

LocalSearchStats ImproveByLocalSearch(const ParInstance& instance,
                                      SolverResult& solution,
                                      const LocalSearchOptions& options) {
  telemetry::TraceSpan span("solver.local_search");
  LocalSearchStats stats;
  // Build once before any parallel probing (eager-build contract,
  // instance.h); the scratch evaluators below would each race to build it.
  instance.BuildMembershipIndex();

  // One reusable evaluator scores the incoming solution; its counter delta
  // is the true oracle cost of the pass (duplicates in `selected` are
  // skipped, so this can be below selected.size()).
  ObjectiveEvaluator current(&instance, solution.selected);
  stats.gain_evaluations += current.gain_evaluations();
  stats.initial_score = current.score();

  // Refill probes use the strictly sequential CELF loop: it performs the
  // fewest oracle calls per probe, and parallelism comes from probing
  // independent victims concurrently instead.
  CelfOptions probe_options;
  probe_options.parallel_first_round = false;
  probe_options.batch_stale_requeues = false;
  probe_options.concurrent_passes = false;

  const std::size_t batch_width = std::max<std::size_t>(1, options.probe_batch);
  // One scratch evaluator per batch lane, overwritten with `current` per
  // probe — copy-assignment reuses the lane's arena.
  std::vector<ObjectiveEvaluator> scratch(batch_width, current);

  // Membership bitmask for O(1) "is the victim still selected" checks
  // (previously a std::find over the selection — quadratic per sweep).
  std::vector<char> in_selection(instance.num_photos(), 0);

  for (int pass = 0; pass < options.max_passes; ++pass) {
    ++stats.passes;
    bool any_accepted = false;
    // Iterate over a snapshot: accepted moves rewrite the selection.
    const std::vector<PhotoId> snapshot = solution.selected;
    std::fill(in_selection.begin(), in_selection.end(), 0);
    for (PhotoId p : solution.selected) in_selection[p] = 1;

    std::size_t cursor = 0;
    std::vector<VictimProbe> probes;
    while (cursor < snapshot.size()) {
      // Collect the next batch of live victims in selection order.
      probes.clear();
      while (cursor < snapshot.size() && probes.size() < batch_width) {
        const PhotoId victim = snapshot[cursor];
        ++cursor;
        if (instance.IsRequired(victim)) continue;
        if (!in_selection[victim]) continue;  // evicted by an earlier move
        VictimProbe probe;
        probe.victim = victim;
        probe.resume_at = cursor;
        probes.push_back(std::move(probe));
      }
      if (probes.empty()) break;

      // Probe every victim against the same frozen selection. Each lane
      // copies `current` and removes its victim, so the probes are
      // independent work over the shared instance.
      ThreadPool::Global().ParallelFor(probes.size(), [&](std::size_t k) {
        VictimProbe& probe = probes[k];
        ObjectiveEvaluator& evaluator = scratch[k];
        evaluator = current;
        const std::size_t evals_before = evaluator.gain_evaluations();
        evaluator.Remove(probe.victim);
        std::vector<PhotoId> base = solution.selected;
        base.erase(std::find(base.begin(), base.end(), probe.victim));
        // Greedy refill of the freed budget (may re-add the victim, in
        // which case the move cannot strictly improve and is rejected).
        probe.refilled =
            LazyGreedyComplete(instance, GreedyRule::kCostBenefit,
                               probe_options, evaluator, std::move(base));
        probe.gain_evaluations = evaluator.gain_evaluations() - evals_before;
      });

      // First-improvement in victim order: consume probes up to and
      // including the first accepted one; discard the rest (their base is
      // stale once the selection changes). Only consumed probes count, so
      // stats match the sequential loop exactly.
      std::size_t accepted_at = probes.size();
      for (std::size_t k = 0; k < probes.size(); ++k) {
        ++stats.moves_tried;
        stats.gain_evaluations += probes[k].gain_evaluations;
        if (probes[k].refilled.score >
            current.score() * (1.0 + kMinRelativeGain)) {
          accepted_at = k;
          break;
        }
      }
      if (accepted_at < probes.size()) {
        const VictimProbe& winner = probes[accepted_at];
        solution.selected = winner.refilled.selected;
        // Re-Add the new selection in order: `current` then matches a fresh
        // evaluation of it, score bits included.
        current = ObjectiveEvaluator(&instance, solution.selected);
        stats.gain_evaluations += current.gain_evaluations();
        ++stats.moves_accepted;
        any_accepted = true;
        in_selection[winner.victim] = 0;
        for (PhotoId p : solution.selected) in_selection[p] = 1;
        cursor = winner.resume_at;
      }
    }
    if (!any_accepted) break;
  }

  solution.score = current.score();
  solution.cost = 0;
  for (PhotoId p : solution.selected) solution.cost += instance.cost(p);
  // The refill probes evaluated gains on the solution's behalf; without this
  // the wrapped result under-reports its oracle complexity (audit: the
  // wrapper previously dropped them entirely).
  solution.gain_evaluations += stats.gain_evaluations;
  stats.final_score = current.score();

  auto& registry = telemetry::MetricsRegistry::Current();
  registry.GetCounter("solver.local_search.moves_tried")
      .Add(static_cast<std::uint64_t>(stats.moves_tried));
  registry.GetCounter("solver.local_search.moves_accepted")
      .Add(static_cast<std::uint64_t>(stats.moves_accepted));
  registry.GetCounter("solver.local_search.passes")
      .Add(static_cast<std::uint64_t>(stats.passes));
  span.SetAttribute("moves_tried",
                    static_cast<std::uint64_t>(stats.moves_tried));
  span.SetAttribute("moves_accepted",
                    static_cast<std::uint64_t>(stats.moves_accepted));
  span.SetAttribute("score_delta", stats.final_score - stats.initial_score);
  return stats;
}

SolverResult LocalSearchSolver::Solve(const ParInstance& instance) {
  Stopwatch timer;
  SolverResult result = inner_->Solve(instance);
  const LocalSearchStats stats =
      ImproveByLocalSearch(instance, result, options_);
  result.solver_name = name();
  result.detail = result.detail +
                  (result.detail.empty() ? "" : ", ") +
                  "ls_moves=" + std::to_string(stats.moves_accepted);
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace phocus
