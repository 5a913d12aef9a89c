#include "core/local_search.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "core/celf.h"
#include "core/objective.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace phocus {

namespace {

/// Relative improvement below which a move is rejected (floating-point churn).
constexpr double kMinRelativeGain = 1e-9;

/// A refill heap key left to the lazy seed: the gain is not known.
constexpr double kUnknown = std::numeric_limits<double>::infinity();

/// One speculative evict-and-refill probe, batched by the sweep below.
struct VictimProbe {
  PhotoId victim = 0;
  /// Snapshot index just past the victim — where the sweep resumes if this
  /// probe's move is accepted.
  std::size_t resume_at = 0;
  SolverResult refilled;
  std::size_t gain_evaluations = 0;
  std::size_t keys_reused = 0;
  std::size_t keys_refreshed = 0;
};

/// A batch lane's scratch, reused across probes.
struct Lane {
  ObjectiveEvaluator evaluator;
  std::vector<Membership> lowered;
  std::vector<double> known_gains;
};

/// Whether every sparse entry (i, j) of `subset` has its mirror (j, i).
/// Rows are ascending, so visiting rows in order meets the mirrors in each
/// row j in ascending order too: one cursor per row checks them all.
bool SparseStructureSymmetric(const Subset& subset) {
  const std::vector<std::uint32_t>& offsets = subset.sparse_offsets;
  std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (std::uint32_t i = 0; i < subset.size(); ++i) {
    const SparseSimRow row = subset.sparse_row(i);
    for (std::uint32_t k = 0; k < row.size; ++k) {
      const std::uint32_t j = row.indices[k];
      if (cursor[j] == offsets[j + 1] ||
          subset.sparse_indices[cursor[j]] != i) {
        return false;
      }
      ++cursor[j];
    }
  }
  for (std::uint32_t j = 0; j < subset.size(); ++j) {
    if (cursor[j] != offsets[j + 1]) return false;
  }
  return true;
}

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
  // One scratch lane per batch slot; its evaluator is overwritten with
  // `current` per probe — copy-assignment reuses the lane's arena.
  std::vector<Lane> lanes(batch_width, Lane{current, {}, {}});

  // `current`'s gain for every photo a refill could afford (+inf for the
  // rest and the selected), computed once per accepted state, when a probe
  // first needs it. A probe's lane differs from `current` only in the
  // best-sims its Remove lowered, so every candidate whose gain scan reads
  // none of them has this exact gain in the lane too: it enters the refill
  // heap fresh, and only the others (the victim included, which is +inf
  // here) are re-evaluated. The lazy +inf seed would have refreshed every
  // candidate before the first pick anyway, so the heap, and with it every
  // pick, is the same; only the evaluation count falls.
  const std::size_t n = instance.num_photos();
  std::vector<double> current_gains;
  bool gains_current = false;
  std::vector<PhotoId> to_score;
  std::vector<char> symmetric;  // per subset, filled with the first table
  const auto score_current = [&] {
    if (symmetric.empty()) {
      symmetric.assign(instance.num_subsets(), 0);
      ThreadPool::Global().ParallelFor(instance.num_subsets(),
                                       [&](std::size_t q) {
        const Subset& subset = instance.subset(static_cast<SubsetId>(q));
        symmetric[q] = subset.sim_mode == Subset::SimMode::kSparse &&
                       SparseStructureSymmetric(subset);
      });
    }
    Cost max_victim_cost = 0;
    for (PhotoId p : solution.selected) {
      if (!instance.IsRequired(p)) {
        max_victim_cost = std::max(max_victim_cost, instance.cost(p));
      }
    }
    const Cost reach =
        instance.budget() - current.selected_cost() + max_victim_cost;
    to_score.clear();
    for (PhotoId p = 0; p < n; ++p) {
      if (!current.IsSelected(p) && instance.cost(p) <= reach) {
        to_score.push_back(p);
      }
    }
    current_gains.assign(n, kUnknown);
    const std::size_t evals_before = current.gain_evaluations();
    ThreadPool::Global().ParallelFor(to_score.size(), [&](std::size_t i) {
      current_gains[to_score[i]] = current.GainOf(to_score[i]);
    });
    stats.gain_evaluations += current.gain_evaluations() - evals_before;
    gains_current = true;
  };

  // Membership bitmask for O(1) "is the victim still selected" checks
  // (previously a std::find over the selection — quadratic per sweep).
  std::vector<char> in_selection(n, 0);

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
      if (!gains_current) score_current();

      // Probe every victim against the same frozen selection. Each lane
      // copies `current` and removes its victim, so the probes are
      // independent work over the shared instance.
      ThreadPool::Global().ParallelFor(probes.size(), [&](std::size_t k) {
        VictimProbe& probe = probes[k];
        Lane& lane = lanes[k];
        ObjectiveEvaluator& evaluator = lane.evaluator;
        evaluator = current;
        const std::size_t evals_before = evaluator.gain_evaluations();
        lane.lowered.clear();
        evaluator.Remove(probe.victim, &lane.lowered);
        // A candidate's gain scan reads its own slot and its row's slots in
        // every subset it belongs to; dense and uniform rows read them all.
        std::vector<double>& known = lane.known_gains;
        known = current_gains;
        SubsetId whole = static_cast<SubsetId>(instance.num_subsets());
        for (const Membership& slot : lane.lowered) {
          const Subset& subset = instance.subset(slot.subset);
          if (symmetric[slot.subset]) {
            // Symmetric rows: the rows holding j are j's own neighbors.
            known[subset.members[slot.local_index]] = kUnknown;
            const SparseSimRow row = subset.sparse_row(slot.local_index);
            for (std::uint32_t k2 = 0; k2 < row.size; ++k2) {
              known[subset.members[row.indices[k2]]] = kUnknown;
            }
          } else if (slot.subset != whole) {
            for (PhotoId member : subset.members) {
              known[member] = kUnknown;
            }
            whole = slot.subset;
          }
        }
        const Cost remaining = instance.budget() - evaluator.selected_cost();
        for (PhotoId p = 0; p < n; ++p) {
          if (evaluator.IsSelected(p) || instance.cost(p) > remaining) continue;
          if (known[p] == kUnknown) {
            ++probe.keys_refreshed;
          } else {
            ++probe.keys_reused;
          }
        }
        std::vector<PhotoId> base = solution.selected;
        base.erase(std::find(base.begin(), base.end(), probe.victim));
        // Greedy refill of the freed budget (may re-add the victim, in
        // which case the move cannot strictly improve and is rejected).
        probe.refilled = LazyGreedyComplete(instance, GreedyRule::kCostBenefit,
                                            probe_options, evaluator,
                                            std::move(base), &known);
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
        stats.keys_reused += probes[k].keys_reused;
        stats.keys_refreshed += probes[k].keys_refreshed;
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
        gains_current = false;
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
  registry.GetCounter("solver.local_search.keys_reused")
      .Add(static_cast<std::uint64_t>(stats.keys_reused));
  registry.GetCounter("solver.local_search.keys_refreshed")
      .Add(static_cast<std::uint64_t>(stats.keys_refreshed));
  span.SetAttribute("moves_tried",
                    static_cast<std::uint64_t>(stats.moves_tried));
  span.SetAttribute("moves_accepted",
                    static_cast<std::uint64_t>(stats.moves_accepted));
  span.SetAttribute("score_delta", stats.final_score - stats.initial_score);
  return stats;
}

SolverResult LocalSearchSolver::Solve(const ParInstance& instance) {
  telemetry::TraceSpan span("solver.local_search.solve");
  SolverResult result = inner_->Solve(instance);
  const LocalSearchStats stats =
      ImproveByLocalSearch(instance, result, options_);
  result.solver_name = name();
  result.detail = result.detail +
                  (result.detail.empty() ? "" : ", ") +
                  "ls_moves=" + std::to_string(stats.moves_accepted);
  result.seconds = span.ElapsedSeconds();
  return result;
}

}  // namespace phocus
