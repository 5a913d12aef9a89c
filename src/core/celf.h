#ifndef PHOCUS_CORE_CELF_H_
#define PHOCUS_CORE_CELF_H_

#include <cstdint>
#include <vector>

#include "core/objective.h"
#include "core/solver.h"

/// \file celf.h
/// The PHOcus main algorithm (Algorithms 1 & 2, §4.2): two CELF lazy-greedy
/// passes — unit-cost (UC) and cost-benefit (CB) — returning the better
/// solution. Worst-case guarantee (1 − 1/e)/2 [Leskovec et al. 2007]; the
/// a-posteriori data-dependent bound lives in online_bound.h.
///
/// The stale-re-evaluation loop supports batching: when the queue top is
/// stale, the top-K stale entries are popped together and their gains
/// recomputed in parallel (CELF++-style). Selection order and scores are
/// bit-identical to the sequential loop — see docs/PERFORMANCE.md for the
/// invariant — though the batched loop may perform extra gain evaluations.
///
/// Determinism note: every decision that affects *which* photos are probed
/// (eager first round, batch sizes) depends only on CelfOptions and the
/// instance, never on the machine's thread count; the pool only changes how
/// probes are scheduled. This keeps gain_evaluations reproducible across
/// machines, which the solver_perf_smoke oracle-complexity guard relies on.

namespace phocus {

/// Which greedy selection rule a lazy pass uses (Algorithm 2's `type`).
enum class GreedyRule {
  kUnitCost,    ///< argmax δ_p           (UC)
  kCostBenefit  ///< argmax δ_p / C(p)    (CB)
};

struct CelfOptions {
  /// Photos with marginal gain at or below this threshold are not added even
  /// if budget remains — they cannot change G(S). Set negative to fill the
  /// budget exactly as the paper's pseudo-code does.
  double min_gain = 1e-12;
  /// Compute the first round of marginal gains eagerly, fanned across the
  /// global thread pool (the embarrassingly parallel phase). Identical
  /// selections and gain_evaluations either way: the lazy seed probes every
  /// candidate exactly once while draining the +inf entries.
  bool parallel_first_round = true;
  /// When the queue top is stale, pop up to a batch of consecutive stale
  /// entries and recompute their gains in parallel (const GainOf probes).
  /// Batch size grows exponentially (1, 2, 4, …, max_stale_batch) across
  /// consecutive stale rounds and resets on each selection, bounding the
  /// extra probes relative to the sequential loop. Selections and scores
  /// are bit-identical to the sequential loop.
  bool batch_stale_requeues = true;
  std::size_t max_stale_batch = 64;
  /// Run the UC and CB passes of CelfSolver::Solve concurrently (each pass
  /// still fans its own probes across the shared pool).
  bool concurrent_passes = true;
};

/// One lazy-greedy pass (Algorithm 2); S0 is taken from the instance.
/// The result lists S0 first, then picks in selection order.
SolverResult LazyGreedy(const ParInstance& instance, GreedyRule rule,
                        const CelfOptions& options = {});

/// Lazy-greedy completion from an arbitrary feasible seed (used by the
/// Sviridenko partial-enumeration scheme). `seed` must include S0, contain
/// no duplicates, and fit the budget.
SolverResult LazyGreedyFrom(const ParInstance& instance, GreedyRule rule,
                            const CelfOptions& options,
                            const std::vector<PhotoId>& seed);

/// Lazy-greedy completion that REUSES a caller-owned evaluator instead of
/// constructing one. The evaluator's state must already reflect exactly
/// `already_selected` (every photo Added, within budget); the result lists
/// `already_selected` first, then picks, and its gain_evaluations field
/// counts only probes performed during this call. Opens a
/// `solver.celf.pass` span and flushes the pass's `solver.celf.*` counters.
SolverResult LazyGreedyComplete(const ParInstance& instance, GreedyRule rule,
                                const CelfOptions& options,
                                ObjectiveEvaluator& evaluator,
                                std::vector<PhotoId> already_selected);

/// A refill's candidates: photos not selected in the evaluator, each with
/// its exact GainOf under the evaluator's state or +inf (unknown), aligned.
struct RefillSeed {
  std::vector<PhotoId> photos;
  std::vector<double> gains;

  void clear() {
    photos.clear();
    gains.clear();
  }
  void push_back(PhotoId p, double gain) {
    photos.push_back(p);
    gains.push_back(gain);
  }
};

/// The work of lazy-greedy passes, as LazyGreedyComplete flushes it to the
/// `solver.celf.*` counters.
struct CelfPassCounts {
  std::uint64_t lazy_hits = 0;
  std::uint64_t lazy_misses = 0;
  std::uint64_t gain_evals = 0;
  std::uint64_t selected = 0;

  CelfPassCounts& operator+=(const CelfPassCounts& other);
  /// Adds the counts to the current registry's `solver.celf.*` counters
  /// (`heap_repushes` is the lazy misses).
  void Flush() const;
};

/// LazyGreedyComplete over `seed`'s candidates only (the others are
/// treated as unaffordable), with no span and no registry access: the pass's
/// work is added to `*counts` for the caller to flush. The local-search
/// probes run thousands of these on pool threads. Known candidates enter the
/// heap fresh; the rest take the lazy +inf seed (no eager first round). The
/// lazy seed refreshes every candidate before the first pick, so the picks
/// are the same as with every gain unknown; only the gain evaluations of the
/// known ones go.
SolverResult LazyGreedyRefill(const ParInstance& instance, GreedyRule rule,
                              const CelfOptions& options,
                              ObjectiveEvaluator& evaluator,
                              std::vector<PhotoId> already_selected,
                              const RefillSeed& seed, CelfPassCounts* counts);

/// Algorithm 1: best of LazyGreedy(UC) and LazyGreedy(CB).
class CelfSolver : public Solver {
 public:
  explicit CelfSolver(CelfOptions options = {}) : options_(options) {}

  SolverResult Solve(const ParInstance& instance) override;
  std::string name() const override { return "PHOcus"; }

  /// After Solve: which rule produced the returned solution.
  GreedyRule winning_rule() const { return winning_rule_; }
  /// After Solve: scores of the two passes (for the §5.3 UC-vs-CB report).
  double uc_score() const { return uc_score_; }
  double cb_score() const { return cb_score_; }

 private:
  CelfOptions options_;
  GreedyRule winning_rule_ = GreedyRule::kCostBenefit;
  double uc_score_ = 0.0;
  double cb_score_ = 0.0;
};

}  // namespace phocus

#endif  // PHOCUS_CORE_CELF_H_
