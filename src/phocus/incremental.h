#ifndef PHOCUS_PHOCUS_INCREMENTAL_H_
#define PHOCUS_PHOCUS_INCREMENTAL_H_

#include <functional>
#include <memory>
#include <vector>

#include "core/online_bound.h"
#include "datagen/corpus.h"
#include "phocus/representation.h"
#include "phocus/system.h"
#include "util/logging.h"

/// \file incremental.h
/// Archive maintenance over time. §1's premise is that collection outpaces
/// storage — so the archive keeps growing and the retention decision must
/// be *revisited*, not made once. IncrementalArchiver keeps the previous
/// plan and folds in new photos (and pages referencing them) without a full
/// re-solve:
///
///   1. seed the solution with the previously retained photos,
///   2. if the seed no longer fits (budget shrank or retention costs grew),
///      evict retained photos in ascending removal loss per byte until
///      feasible (required photos are never evicted),
///   3. greedily top up with the new arrivals (CELF from the seed),
///   4. run one swap local-search pass to rebalance old vs new.
///
/// The incremental plan is feasible by construction; tests verify it stays
/// within a few percent of a from-scratch solve across update streams, at a
/// fraction of the work.

namespace phocus {

/// Thrown when no feasible plan exists: the budget cannot cover the cost of
/// the required set S0 (every required photo must be retained, so nothing
/// can be evicted to fit). Derives from CheckFailure so existing callers
/// that recover from CHECK failures keep working; phocusd maps it to the
/// typed `infeasible` protocol error.
class InfeasibleBudgetError : public CheckFailure {
 public:
  InfeasibleBudgetError(Cost required_cost, Cost budget,
                        const std::string& what)
      : CheckFailure(what), required_cost_(required_cost), budget_(budget) {}

  /// Cost of the required photos that cannot be evicted.
  Cost required_cost() const { return required_cost_; }
  /// The budget that could not accommodate them.
  Cost budget() const { return budget_; }

 private:
  Cost required_cost_;
  Cost budget_;
};

struct IncrementalOptions {
  ArchiveOptions archive;
};

struct IncrementalUpdateStats {
  std::size_t photos_added = 0;
  std::size_t subsets_added = 0;
  std::size_t evicted_for_feasibility = 0;
  /// RemovalLoss calls eviction spent: one per evictable seed photo, then
  /// only the lazy refreshes near each round's minimum.
  std::size_t removal_loss_evals = 0;
  /// Gain evaluations spent by eviction, top-up and rebalance (the
  /// solver-side work; a from-scratch Algorithm 1 run spends several times
  /// more — the representation build is shared by both paths).
  std::size_t gain_evaluations = 0;
  /// Wall time of the replan, read off its `incremental.replan` span.
  double seconds = 0.0;
};

/// Steps 1–2 above: appends the S0 members `seed` lacks, then evicts until it
/// fits instance.budget() (S0 must fit). Each round evicts the photo of least
/// removal loss per byte, ties to the earliest seed position, with lazily
/// refreshed losses (the same victims as rescoring every photo each round).
/// Returns the victims in order; `stats` (if given) counts them, the
/// RemovalLoss calls and the gain evaluations spent.
std::vector<PhotoId> FitSeedToBudget(const ParInstance& instance,
                                     std::vector<PhotoId>& seed,
                                     IncrementalUpdateStats* stats = nullptr);

class IncrementalArchiver {
 public:
  explicit IncrementalArchiver(IncrementalOptions options);

  /// Installs the initial corpus and solves from scratch.
  const ArchivePlan& Initialize(Corpus corpus);

  /// Installs `corpus` with `retained` as the current plan *without solving*
  /// — the WAL-recovery entry point. `retained` must be a feasible retention
  /// set for the current budget (it came from a committed plan, which is).
  /// The last `deferred_photos` corpus photos arrived via AddPhotosDeferred
  /// after that plan committed (they land on the archived side, like any
  /// non-retained photo, and keep a pending replan pending). The
  /// reconstructed plan carries the same retained/archived/score fields a
  /// crash-free run would hold after its last replan, so a subsequent
  /// ReplanNow seeds identically and stays byte-deterministic.
  const ArchivePlan& InitializeFromRetained(Corpus corpus,
                                            std::vector<PhotoId> retained,
                                            std::size_t deferred_photos = 0);

  /// Appends photos and subset specs (member ids in the post-append id
  /// space; they may reference both old and new photos) and incrementally
  /// updates the plan. `new_required` lists post-append ids that join S0.
  /// AddPhotosDeferred + ReplanNow, except that a failed replan also undoes
  /// the append: the archiver is left exactly as before the call.
  const ArchivePlan& AddPhotos(std::vector<CorpusPhoto> photos,
                               std::vector<SubsetSpec> new_subsets,
                               std::vector<PhotoId> new_required = {},
                               IncrementalUpdateStats* stats = nullptr);

  /// Changes the budget and re-plans incrementally (eviction/top-up only).
  /// SetBudgetDeferred + ReplanNow; a failed replan (e.g.
  /// InfeasibleBudgetError) restores the previous budget and plan.
  const ArchivePlan& SetBudget(Cost budget,
                               IncrementalUpdateStats* stats = nullptr);

  /// Streaming-mode append: validates member/required ids against the
  /// grown corpus and appends, but does NOT replan. Arrivals are
  /// cold-by-default — the active plan's `archived` list (and
  /// archived_bytes) is extended with the new ids so it stays a complete,
  /// feasible description of the grown corpus; a later ReplanNow decides
  /// whether any of them earn retention. Appends never renumber, so
  /// `plan().retained` stays valid throughout.
  void AddPhotosDeferred(std::vector<CorpusPhoto> photos,
                         std::vector<SubsetSpec> new_subsets,
                         std::vector<PhotoId> new_required = {},
                         IncrementalUpdateStats* stats = nullptr);

  /// Certified upper bound on how much a replan could improve on the current
  /// retained set under the current (possibly deferred-grown) corpus and
  /// budget. Pure query — no plan mutation; it builds the instance the way
  /// a replan does.
  DriftEstimate EstimateDrift();

  /// Replans now against the current corpus/budget — the explicit trigger
  /// that absorbs deferred appends into a fresh plan. On failure (infeasible
  /// budget, injected fault) the previous plan and the deferred state remain
  /// in force, consistent, and retryable.
  const ArchivePlan& ReplanNow(IncrementalUpdateStats* stats = nullptr);

  /// Streaming-mode budget change: takes effect at the next replan or drift
  /// estimate instead of forcing one (budget rebalancing as costs grow).
  void SetBudgetDeferred(Cost budget);

  const ArchivePlan& plan() const { return *plan_; }
  /// The current plan, shared. Plans are never changed once published:
  /// appends and replans install a new one, so a holder keeps a stable
  /// snapshot without copying it.
  std::shared_ptr<const ArchivePlan> shared_plan() const { return plan_; }
  const Corpus& corpus() const { return corpus_; }
  const IncrementalOptions& options() const { return options_; }
  /// Photos appended via AddPhotosDeferred that no replan has absorbed yet.
  std::size_t deferred_photos() const { return deferred_photos_; }
  Cost budget() const { return options_.archive.budget; }

 private:
  /// The one rollback path of AddPhotos and SetBudget: runs `defer` (the
  /// deferred append or budget change), then replans; if the replan fails,
  /// restores the state from before `defer` and rethrows.
  const ArchivePlan& ReplanAfter(
      const std::function<void(IncrementalUpdateStats*)>& defer,
      IncrementalUpdateStats* stats);
  void Replan(IncrementalUpdateStats& stats);

  IncrementalOptions options_;
  Corpus corpus_;
  std::shared_ptr<const ArchivePlan> plan_ =
      std::make_shared<const ArchivePlan>();
  bool initialized_ = false;
  std::size_t deferred_photos_ = 0;
};

}  // namespace phocus

#endif  // PHOCUS_PHOCUS_INCREMENTAL_H_
