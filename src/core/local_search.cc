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
#include "util/stopwatch.h"
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
  Lane(const ObjectiveEvaluator& start, std::size_t num_photos)
      : evaluator(start), touched(num_photos, 0) {}

  ObjectiveEvaluator evaluator;
  std::vector<Membership> lowered;
  /// Per photo: whether the probe's Remove lowered a slot its gain scan
  /// reads with a sim above the slot's new value (MarkSlotReaders). Only
  /// the photos in `touched_list` are set between probes.
  std::vector<char> touched;
  std::vector<PhotoId> touched_list;
  RefillSeed seed;
  /// Every refill this lane ran, discarded probes included.
  CelfPassCounts counts;
  std::uint64_t refills = 0;
  std::uint64_t refill_ns = 0;
};

/// Calls `mark` on every photo whose GainOf can differ when slot j of
/// `subset` changes between `floor` and a higher value, maybe more than
/// once. A reader's term for slot j is rel·(sim − best[j]) where positive
/// and +0.0 otherwise, and the kernels add +0.0 without changing a sum; so
/// a reader whose sim is at most `floor` keeps its gain bit for bit. Slot
/// j's own member reads it with sim 1; the other readers are j's dense
/// column, or j's own row in the mirrored sparse CSR. Returns true when it
/// marked every member (a uniform subset reads every slot with sim 1), so
/// the subset's other slots add no reader.
template <typename Mark>
bool MarkSlotReaders(const Subset& subset, std::uint32_t j, float floor,
                     Mark&& mark) {
  const std::uint32_t m = static_cast<std::uint32_t>(subset.size());
  mark(subset.members[j]);
  switch (subset.sim_mode) {
    case Subset::SimMode::kDense:
      for (std::uint32_t i = 0; i < m; ++i) {
        if (subset.dense_sim[static_cast<std::size_t>(i) * m + j] > floor) {
          mark(subset.members[i]);
        }
      }
      return false;
    case Subset::SimMode::kSparse: {
      const SparseSimRow row = subset.sparse_row(j);
      for (std::uint32_t k = 0; k < row.size; ++k) {
        if (row.values[k] > floor) mark(subset.members[row.indices[k]]);
      }
      return false;
    }
    case Subset::SimMode::kUniform:
      for (PhotoId member : subset.members) mark(member);
      return true;
  }
  return false;
}

/// Calls `mark` on every photo whose GainOf can differ between `before`
/// and `after`, two evaluators that differ only in the best-sims of
/// `subsets` (and in the selection of photos the caller handles), maybe
/// more than once: the readers of each changed slot above the lower of its
/// two values.
template <typename Mark>
void ForEachChangedReader(const ParInstance& instance,
                          const ObjectiveEvaluator& before,
                          const ObjectiveEvaluator& after,
                          const std::vector<SubsetId>& subsets, Mark&& mark) {
  for (SubsetId q : subsets) {
    const Subset& subset = instance.subset(q);
    const float* old_best = before.BestSims(q);
    const float* new_best = after.BestSims(q);
    for (std::uint32_t j = 0; j < subset.size(); ++j) {
      if (old_best[j] == new_best[j]) continue;
      if (MarkSlotReaders(subset, j, std::min(old_best[j], new_best[j]),
                          mark)) {
        break;
      }
    }
  }
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

  const std::size_t n = instance.num_photos();
  const std::size_t batch_width = std::max<std::size_t>(1, options.probe_batch);
  // One scratch lane per batch slot; its evaluator is overwritten with
  // `current` per probe — copy-assignment reuses the lane's arena.
  std::vector<Lane> lanes;
  lanes.reserve(batch_width);
  for (std::size_t k = 0; k < batch_width; ++k) lanes.emplace_back(current, n);

  // `current`'s gain table: gains[p] is p's exact GainOf under `current`, or
  // kUnknown (always for the selected). `affordable` lists, ascending, the
  // unselected photos a refill could afford; the table is brought current
  // for them when a probe first needs it after a change. A probe's lane
  // differs from `current` only in the best-sims its Remove lowered, so
  // every candidate that reads none of them above its new value has this
  // exact gain in the lane too: it enters the refill heap fresh, and only
  // the others (the victim included) are re-evaluated. The lazy +inf seed
  // would have refreshed every candidate before the first pick anyway, so
  // the heap, and with it every pick, is the same; only the evaluation
  // count falls.
  std::vector<double> gains(n, kUnknown);
  std::vector<PhotoId> affordable;
  std::vector<PhotoId> to_score;
  bool gains_current = false;
  const auto refresh_table = [&] {
    Cost max_victim_cost = 0;
    for (PhotoId p : solution.selected) {
      if (!instance.IsRequired(p)) {
        max_victim_cost = std::max(max_victim_cost, instance.cost(p));
      }
    }
    const Cost reach =
        instance.budget() - current.selected_cost() + max_victim_cost;
    affordable.clear();
    to_score.clear();
    for (PhotoId p = 0; p < n; ++p) {
      if (current.IsSelected(p) || instance.cost(p) > reach) continue;
      affordable.push_back(p);
      if (gains[p] == kUnknown) to_score.push_back(p);
    }
    const std::size_t evals_before = current.gain_evaluations();
    ThreadPool::Global().ParallelFor(to_score.size(), [&](std::size_t i) {
      gains[to_score[i]] = current.GainOf(to_score[i]);
    });
    const std::size_t evals = current.gain_evaluations() - evals_before;
    stats.gain_evaluations += evals;
    stats.table_evaluations += evals;
    gains_current = true;
  };

  // Membership bitmask for O(1) "is the victim still selected" checks
  // (previously a std::find over the selection — quadratic per sweep).
  std::vector<char> in_selection(n, 0);
  std::vector<SubsetId> moved_subsets;

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
      if (!gains_current) refresh_table();

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
        // Remove only lowers, so a lowered slot's new value is its floor.
        const auto touch = [&](PhotoId p) {
          if (lane.touched[p]) return;
          lane.touched[p] = 1;
          lane.touched_list.push_back(p);
        };
        SubsetId whole = static_cast<SubsetId>(instance.num_subsets());
        for (const Membership& slot : lane.lowered) {
          if (slot.subset == whole) continue;
          if (MarkSlotReaders(
                  instance.subset(slot.subset), slot.local_index,
                  evaluator.BestSims(slot.subset)[slot.local_index], touch)) {
            whole = slot.subset;
          }
        }
        // The refill's candidates: the table's affordable photos that fit
        // the freed budget, then the victim (it fits: it was paid for).
        const Cost remaining = instance.budget() - evaluator.selected_cost();
        lane.seed.clear();
        for (PhotoId p : affordable) {
          if (instance.cost(p) > remaining) continue;
          if (lane.touched[p]) {
            ++probe.keys_refreshed;
            lane.seed.push_back(p, kUnknown);
          } else {
            ++probe.keys_reused;
            lane.seed.push_back(p, gains[p]);
          }
        }
        ++probe.keys_refreshed;
        lane.seed.push_back(probe.victim, kUnknown);
        for (PhotoId p : lane.touched_list) lane.touched[p] = 0;
        lane.touched_list.clear();
        std::vector<PhotoId> base = solution.selected;
        base.erase(std::find(base.begin(), base.end(), probe.victim));
        // Greedy refill of the freed budget (may re-add the victim, in
        // which case the move cannot strictly improve and is rejected).
        const Stopwatch refill_timer;
        probe.refilled = LazyGreedyRefill(
            instance, GreedyRule::kCostBenefit, probe_options, evaluator,
            std::move(base), lane.seed, &lane.counts);
        lane.refill_ns += refill_timer.ElapsedNanos();
        ++lane.refills;
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
        ObjectiveEvaluator& next = lanes[accepted_at].evaluator;
        // The winner's picks follow the kept selection in its result.
        const auto picks_begin =
            winner.refilled.selected.begin() +
            static_cast<std::ptrdiff_t>(solution.selected.size() - 1);
        // Only subsets holding the victim or a pick can have changed
        // best-sims; every photo whose gain they cannot change keeps its
        // table gain bit for bit.
        moved_subsets.clear();
        for (const Membership& m : instance.memberships(winner.victim)) {
          moved_subsets.push_back(m.subset);
        }
        for (auto it = picks_begin; it != winner.refilled.selected.end();
             ++it) {
          gains[*it] = kUnknown;
          for (const Membership& m : instance.memberships(*it)) {
            moved_subsets.push_back(m.subset);
          }
        }
        std::sort(moved_subsets.begin(), moved_subsets.end());
        moved_subsets.erase(
            std::unique(moved_subsets.begin(), moved_subsets.end()),
            moved_subsets.end());
        ForEachChangedReader(instance, current, next, moved_subsets,
                             [&](PhotoId p) { gains[p] = kUnknown; });
        // Adopt the winning lane: `Remove` leaves its best-sims equal to a
        // fresh evaluator's, and `Add` only raises maxima, so they are the
        // new selection's bit for bit. (The victim's entry is already
        // kUnknown: it was selected.)
        std::swap(current, next);
        solution.selected = winner.refilled.selected;
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

  stats.final_score = current.score();
  if (stats.moves_accepted > 0) {
    // The adopted score summed each move's loss and gains; re-Adding the
    // final selection once gives it the bits of a fresh evaluation.
    const ObjectiveEvaluator fresh(&instance, solution.selected);
    stats.readd_evaluations = fresh.gain_evaluations();
    stats.gain_evaluations += stats.readd_evaluations;
    stats.final_score = fresh.score();
  }
  solution.score = stats.final_score;
  solution.cost = 0;
  for (PhotoId p : solution.selected) solution.cost += instance.cost(p);
  // The refill probes evaluated gains on the solution's behalf; without this
  // the wrapped result under-reports its oracle complexity (audit: the
  // wrapper previously dropped them entirely).
  solution.gain_evaluations += stats.gain_evaluations;

  // The refills ran without telemetry of their own (on pool threads their
  // spans would be orphan roots); their counts are flushed once here.
  CelfPassCounts refill_counts;
  std::uint64_t refills = 0;
  std::uint64_t refill_ns = 0;
  for (const Lane& lane : lanes) {
    refill_counts += lane.counts;
    refills += lane.refills;
    refill_ns += lane.refill_ns;
  }
  refill_counts.Flush();
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
  span.SetAttribute("refills", refills);
  span.SetAttribute("refill_ns", refill_ns);
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
