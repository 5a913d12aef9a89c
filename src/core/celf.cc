#include "core/celf.h"

#include <limits>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace phocus {

namespace {

/// Priority-queue entry: `key` is δ (UC) or δ/cost (CB); `epoch` is the
/// solution size at which the gain was computed — the CELF staleness flag
/// (`curr_p` in Algorithm 2). Ties on `key` break toward the smaller photo
/// id so that pop order — and therefore selection on equal gains — is fully
/// deterministic, which the batched-vs-sequential equivalence relies on.
struct PqEntry {
  double key;
  PhotoId photo;
  std::size_t epoch;
  bool operator<(const PqEntry& other) const {
    if (key != other.key) return key < other.key;
    return photo > other.photo;
  }
};

}  // namespace

SolverResult LazyGreedy(const ParInstance& instance, GreedyRule rule,
                        const CelfOptions& options) {
  return LazyGreedyFrom(instance, rule, options, instance.RequiredPhotos());
}

SolverResult LazyGreedyFrom(const ParInstance& instance, GreedyRule rule,
                            const CelfOptions& options,
                            const std::vector<PhotoId>& seed) {
  // Line 1-2 of Algorithm 2: S ← seed (⊇ S0), B ← B − C(seed).
  telemetry::TraceSpan seeding("solver.celf.seed");
  seeding.SetAttribute("photos", static_cast<std::uint64_t>(seed.size()));
  ObjectiveEvaluator evaluator(&instance, seed);
  seeding.Close();
  SolverResult result =
      LazyGreedyComplete(instance, rule, options, evaluator, seed);
  // A fresh evaluator makes the pass's total oracle count exactly the
  // evaluator's counter (the seed Adds count, as in the paper's metric).
  result.gain_evaluations = evaluator.gain_evaluations();
  // The seed span and the pass span cover the whole call.
  result.seconds += seeding.ElapsedSeconds();
  return result;
}

namespace {

/// One lazy-greedy pass with no telemetry: its work goes to `*counts`.
/// With `seed`, the candidates are seed->photos, entering the heap with
/// their known gains; without, every affordable unselected photo.
SolverResult RunPass(const ParInstance& instance, GreedyRule rule,
                     const CelfOptions& options, ObjectiveEvaluator& evaluator,
                     std::vector<PhotoId> already_selected,
                     const RefillSeed* seed, CelfPassCounts* counts) {
  // Constructing the evaluator built the membership index; parallel probes
  // below depend on it (see the eager-build contract in instance.h).
  PHOCUS_CHECK(instance.membership_index_built(),
               "membership index must be built before a CELF pass");
  // Lazy-evaluation accounting is kept in locals inside the hot loop and
  // handed to the caller once at the end — zero atomics per pop.
  std::uint64_t lazy_hits = 0;
  std::uint64_t lazy_misses = 0;
  const std::size_t evals_at_entry = evaluator.gain_evaluations();
  SolverResult result;
  result.solver_name =
      rule == GreedyRule::kUnitCost ? "LazyGreedy(UC)" : "LazyGreedy(CB)";
  result.selected = std::move(already_selected);
  const std::size_t seed_size = result.selected.size();
  PHOCUS_CHECK(evaluator.num_selected() == seed_size,
               "evaluator state must match already_selected");
  PHOCUS_CHECK(evaluator.selected_cost() <= instance.budget(),
               "seed set exceeds budget");
  Cost remaining = instance.budget() - evaluator.selected_cost();

  const auto key_of = [&](PhotoId p, double gain) {
    return rule == GreedyRule::kUnitCost
               ? gain
               : gain / static_cast<double>(instance.cost(p));
  };
  const auto affordable = [&](PhotoId p) {
    // A photo that does not fit now can never fit later.
    return !evaluator.IsSelected(p) && instance.cost(p) <= remaining;
  };

  std::size_t epoch = evaluator.num_selected();
  std::priority_queue<PqEntry> queue;
  if (seed != nullptr) {
    // Lazy seed: every candidate starts stale with key = +inf (line 3-4's
    // δ_p ← ∞), so each photo's gain is computed at most once per solution
    // change and only when it reaches the top. A known exact gain enters
    // fresh: it is the key that refresh would have computed.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < seed->photos.size(); ++i) {
      const PhotoId p = seed->photos[i];
      if (!affordable(p)) continue;
      if (seed->gains[i] == kInf) {
        queue.push({kInf, p, std::numeric_limits<std::size_t>::max()});
      } else {
        queue.push({key_of(p, seed->gains[i]), p, epoch});
      }
    }
  } else {
    std::vector<PhotoId> candidates;
    candidates.reserve(instance.num_photos());
    for (PhotoId p = 0; p < instance.num_photos(); ++p) {
      if (affordable(p)) candidates.push_back(p);
    }
    // Which photos get probed must not depend on the machine: this gate
    // looks only at options and the candidate count (never the thread
    // count), so gain_evaluations is reproducible everywhere. ParallelFor
    // itself runs inline on a single-core pool — identical results,
    // different schedule.
    if (options.parallel_first_round && candidates.size() >= 256) {
      // Eager first round, fanned across the pool: GainOf is const, so
      // concurrent probes against the seed state are safe. Entries enter
      // the queue fresh (current epoch). Same probe count as the lazy seed
      // — the +inf entries each get probed exactly once while draining.
      std::vector<double> gains(candidates.size());
      ThreadPool::Global().ParallelFor(candidates.size(), [&](std::size_t i) {
        gains[i] = evaluator.GainOf(candidates[i]);
      });
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        queue.push({key_of(candidates[i], gains[i]), candidates[i], epoch});
      }
    } else {
      for (PhotoId p : candidates) {
        queue.push({std::numeric_limits<double>::infinity(), p,
                    std::numeric_limits<std::size_t>::max()});
      }
    }
  }

  // Batched stale loop state: the batch limit grows 1, 2, 4, … across
  // consecutive stale rounds (capped at max_stale_batch) and resets on each
  // selection, so a pick that lands after one refresh costs at most one
  // extra probe while long miss-runs amortize to full batches.
  std::size_t stale_batch = 1;
  std::vector<PqEntry> stale;
  std::vector<double> gains;
  while (!queue.empty()) {
    PqEntry top = queue.top();
    queue.pop();
    if (instance.cost(top.photo) > remaining) continue;  // dropped forever
    if (top.epoch == epoch) {
      // Fresh maximum: select it (lines 13-15). A fresh top is a lazy-eval
      // hit — the cached gain was still the true maximum.
      ++lazy_hits;
      if (top.key <= options.min_gain) break;  // nothing useful remains
      evaluator.Add(top.photo);
      result.selected.push_back(top.photo);
      remaining -= instance.cost(top.photo);
      epoch = evaluator.num_selected();
      stale_batch = 1;
    } else if (!options.batch_stale_requeues) {
      // Stale: recompute δ_p and re-queue (lines 17-18) — a lazy miss, one
      // heap re-push.
      ++lazy_misses;
      const double gain = evaluator.GainOf(top.photo);
      queue.push({key_of(top.photo, gain), top.photo, epoch});
    } else {
      // Stale, batched: pop up to stale_batch consecutive stale entries —
      // exactly the prefix of the heap the sequential loop would refresh
      // first — and recompute their gains in parallel. Stale keys are
      // submodular upper bounds and fresh keys exact, so both loops select
      // only when an exact key tops every bound: the same true argmax, in
      // the same deterministic tie-break order (see docs/PERFORMANCE.md).
      stale.clear();
      stale.push_back(top);
      while (stale.size() < stale_batch && !queue.empty()) {
        const PqEntry next = queue.top();
        if (next.epoch == epoch) break;  // fresh entry: stop collecting
        queue.pop();
        if (instance.cost(next.photo) > remaining) continue;
        stale.push_back(next);
      }
      lazy_misses += stale.size();
      gains.assign(stale.size(), 0.0);
      ThreadPool::Global().ParallelFor(stale.size(), [&](std::size_t i) {
        gains[i] = evaluator.GainOf(stale[i].photo);
      });
      for (std::size_t i = 0; i < stale.size(); ++i) {
        queue.push({key_of(stale[i].photo, gains[i]), stale[i].photo, epoch});
      }
      stale_batch = std::min(stale_batch * 2, options.max_stale_batch);
    }
  }

  result.score = evaluator.score();
  result.cost = evaluator.selected_cost();
  result.gain_evaluations = evaluator.gain_evaluations() - evals_at_entry;
  counts->lazy_hits += lazy_hits;
  counts->lazy_misses += lazy_misses;
  counts->gain_evals += result.gain_evaluations;
  counts->selected += result.selected.size() - seed_size;
  return result;
}

}  // namespace

CelfPassCounts& CelfPassCounts::operator+=(const CelfPassCounts& other) {
  lazy_hits += other.lazy_hits;
  lazy_misses += other.lazy_misses;
  gain_evals += other.gain_evals;
  selected += other.selected;
  return *this;
}

void CelfPassCounts::Flush() const {
  auto& registry = telemetry::MetricsRegistry::Current();
  registry.GetCounter("solver.celf.lazy_hits").Add(lazy_hits);
  registry.GetCounter("solver.celf.lazy_misses").Add(lazy_misses);
  registry.GetCounter("solver.celf.heap_repushes").Add(lazy_misses);
  registry.GetCounter("solver.celf.gain_evals").Add(gain_evals);
  registry.GetCounter("solver.celf.selected").Add(selected);
}

SolverResult LazyGreedyComplete(const ParInstance& instance, GreedyRule rule,
                                const CelfOptions& options,
                                ObjectiveEvaluator& evaluator,
                                std::vector<PhotoId> already_selected) {
  auto& registry = telemetry::MetricsRegistry::Current();
  telemetry::TraceSpan span("solver.celf.pass",
                            &registry.GetHistogram("solver.celf.pass_ns"));
  span.SetAttribute("rule", rule == GreedyRule::kUnitCost ? "UC" : "CB");
  CelfPassCounts counts;
  SolverResult result = RunPass(instance, rule, options, evaluator,
                                std::move(already_selected), nullptr, &counts);
  result.seconds = span.ElapsedSeconds();
  counts.Flush();
  span.SetAttribute("selected",
                    static_cast<std::uint64_t>(result.selected.size()));
  span.SetAttribute("gain_evals",
                    static_cast<std::uint64_t>(result.gain_evaluations));
  span.SetAttribute("score", result.score);
  return result;
}

SolverResult LazyGreedyRefill(const ParInstance& instance, GreedyRule rule,
                              const CelfOptions& options,
                              ObjectiveEvaluator& evaluator,
                              std::vector<PhotoId> already_selected,
                              const RefillSeed& seed, CelfPassCounts* counts) {
  return RunPass(instance, rule, options, evaluator,
                 std::move(already_selected), &seed, counts);
}

SolverResult CelfSolver::Solve(const ParInstance& instance) {
  auto& registry = telemetry::MetricsRegistry::Current();
  telemetry::TraceSpan span("solver.celf.solve",
                            &registry.GetHistogram("solver.celf.solve_ns"));
  span.SetAttribute("photos",
                    static_cast<std::uint64_t>(instance.num_photos()));
  // Eager-build before any concurrent probing (contract in instance.h):
  // both passes share the const instance across threads.
  instance.BuildMembershipIndex();
  SolverResult uc;
  SolverResult cb;
  if (options_.concurrent_passes) {
    // UC runs on a thread of its own and CB on the caller, not on pool
    // workers (which run nested fan-outs inline); both fan out on the shared
    // pool, which tracks completion per call. UC's pass span joins this tree.
    telemetry::TraceCollector uc_trace;
    std::thread uc_thread([&] {
      telemetry::ScopedTraceSink sink(&uc_trace);
      uc = LazyGreedy(instance, GreedyRule::kUnitCost, options_);
    });
    cb = LazyGreedy(instance, GreedyRule::kCostBenefit, options_);
    uc_thread.join();
    for (auto& pass : uc_trace.Drain()) span.AdoptChild(std::move(pass));
  } else {
    uc = LazyGreedy(instance, GreedyRule::kUnitCost, options_);
    cb = LazyGreedy(instance, GreedyRule::kCostBenefit, options_);
  }
  uc_score_ = uc.score;
  cb_score_ = cb.score;
  winning_rule_ =
      cb.score >= uc.score ? GreedyRule::kCostBenefit : GreedyRule::kUnitCost;

  SolverResult best = winning_rule_ == GreedyRule::kCostBenefit ? cb : uc;
  best.solver_name = name();
  best.detail = winning_rule_ == GreedyRule::kCostBenefit ? "CB" : "UC";
  best.gain_evaluations = uc.gain_evaluations + cb.gain_evaluations;
  best.seconds = span.ElapsedSeconds();

  registry.GetCounter("solver.celf.solves").Increment();
  span.SetAttribute("winner", best.detail);
  span.SetAttribute("score", best.score);
  return best;
}

}  // namespace phocus
