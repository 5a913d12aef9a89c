#include "phocus/incremental.h"

#include <algorithm>
#include <functional>
#include <queue>

#include "core/celf.h"
#include "core/local_search.h"
#include "core/objective.h"
#include "phocus/representation.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace phocus {

std::vector<PhotoId> FitSeedToBudget(const ParInstance& instance,
                                     std::vector<PhotoId>& seed,
                                     IncrementalUpdateStats* stats) {
  ObjectiveEvaluator evaluator(&instance, seed);
  for (PhotoId p : instance.RequiredPhotos()) {
    if (!evaluator.IsSelected(p)) {
      evaluator.Add(p);
      seed.push_back(p);
    }
  }
  // Reverse greedy: each round evicts the photo of least removal loss per
  // byte, ties to the earliest seed position. G is submodular, so a loss
  // can only grow as other photos leave, and a density computed in an
  // earlier round is a lower bound on the current one (CELF run in
  // reverse). Rounding can break that bound by a few ulps, so each entry's
  // heap key is its density minus a slack far above the rounding error of
  // the loss's sums: kLossSlack times Σ_{q∋p} W(q), the largest value the
  // loss can take. A round refreshes every entry whose key is at most the
  // best fresh density found so far; every entry left behind has a current
  // density above it, so the pick is exactly the full scan's.
  constexpr double kLossSlack = 1e-9;
  struct Entry {
    double key;
    double density;
    std::size_t position;
    std::size_t round;
    bool operator>(const Entry& other) const {
      if (key != other.key) return key > other.key;
      return position > other.position;
    }
  };
  std::size_t removal_loss_evals = 0;
  std::size_t round = 0;
  const auto fresh = [&](std::size_t position) {
    const PhotoId p = seed[position];
    const double cost = static_cast<double>(instance.cost(p));
    double weight = 0.0;
    for (const Membership& membership : instance.memberships(p)) {
      weight += instance.subset(membership.subset).weight;
    }
    ++removal_loss_evals;
    const double density = evaluator.RemovalLoss(p) / cost;
    return Entry{density - kLossSlack * weight / cost, density, position,
                 round};
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  std::vector<PhotoId> victims;
  if (evaluator.selected_cost() > instance.budget()) {
    for (std::size_t i = 0; i < seed.size(); ++i) {
      if (!instance.IsRequired(seed[i])) heap.push(fresh(i));
    }
  }
  std::vector<Entry> popped;
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  while (evaluator.selected_cost() > instance.budget()) {
    popped.clear();
    std::size_t best = kNone;  // index into `popped`
    while (!heap.empty() &&
           (best == kNone || heap.top().key <= popped[best].density)) {
      const Entry top = heap.top();
      heap.pop();
      if (top.round != round) {
        heap.push(fresh(top.position));
        continue;
      }
      popped.push_back(top);
      if (best == kNone || top.density < popped[best].density ||
          (top.density == popped[best].density &&
           top.position < popped[best].position)) {
        best = popped.size() - 1;
      }
    }
    PHOCUS_CHECK(best != kNone,
                 "no evictable photo left although S0 fits the budget");
    const std::size_t victim = popped[best].position;
    for (const Entry& entry : popped) {
      if (entry.position != victim) heap.push(entry);
    }
    victims.push_back(seed[victim]);
    evaluator.Remove(seed[victim]);
    ++round;
  }
  std::erase_if(seed, [&](PhotoId p) { return !evaluator.IsSelected(p); });
  if (stats != nullptr) {
    stats->evicted_for_feasibility = victims.size();
    stats->removal_loss_evals += removal_loss_evals;
    stats->gain_evaluations += evaluator.gain_evaluations();
  }
  return victims;
}

IncrementalArchiver::IncrementalArchiver(IncrementalOptions options)
    : options_(std::move(options)) {
  PHOCUS_CHECK(options_.archive.budget > 0,
               "incremental archiver needs a positive budget");
}

const ArchivePlan& IncrementalArchiver::Initialize(Corpus corpus) {
  PHOCUS_CHECK(!initialized_, "Initialize called twice");
  corpus_ = std::move(corpus);
  plan_ = std::make_shared<const ArchivePlan>(
      PlanCorpus(corpus_, options_.archive));
  initialized_ = true;
  return *plan_;
}

const ArchivePlan& IncrementalArchiver::InitializeFromRetained(
    Corpus corpus, std::vector<PhotoId> retained,
    std::size_t deferred_photos) {
  PHOCUS_CHECK(!initialized_, "Initialize called twice");
  corpus_ = std::move(corpus);
  PHOCUS_CHECK(deferred_photos <= corpus_.photos.size(),
               "deferred photo count exceeds the corpus");
  const ParInstance instance =
      BuildInstance(corpus_, options_.archive.budget,
                    options_.archive.representation);
  instance.Validate();
  SolverResult result;
  result.solver_name = "PHOcus-incremental";
  result.detail = "recovered";
  result.selected = std::move(retained);
  for (PhotoId p : result.selected) result.cost += instance.cost(p);
  result.score = ObjectiveEvaluator::Evaluate(instance, result.selected);
  // AssemblePlan re-checks feasibility, so a checkpoint whose retained set
  // does not fit this budget (it always came from a committed plan, so it
  // should) fails loudly instead of installing an infeasible plan.
  plan_ = std::make_shared<const ArchivePlan>(
      AssemblePlan(instance, std::move(result), options_.archive));
  deferred_photos_ = deferred_photos;
  initialized_ = true;
  return *plan_;
}

const ArchivePlan& IncrementalArchiver::AddPhotos(
    std::vector<CorpusPhoto> photos, std::vector<SubsetSpec> new_subsets,
    std::vector<PhotoId> new_required, IncrementalUpdateStats* stats) {
  return ReplanAfter(
      [&](IncrementalUpdateStats* local_stats) {
        AddPhotosDeferred(std::move(photos), std::move(new_subsets),
                          std::move(new_required), local_stats);
      },
      stats);
}

const ArchivePlan& IncrementalArchiver::SetBudget(
    Cost budget, IncrementalUpdateStats* stats,
    std::optional<ParInstance> built) {
  return ReplanAfter(
      [&](IncrementalUpdateStats*) { SetBudgetDeferred(budget); }, stats,
      std::move(built));
}

const ArchivePlan& IncrementalArchiver::ReplanAfter(
    const std::function<void(IncrementalUpdateStats*)>& defer,
    IncrementalUpdateStats* stats, std::optional<ParInstance> built) {
  // Photos/subsets only grow (truncate back to the old size), but
  // `required` is sorted + deduplicated in place, so it needs a full copy.
  // Plans are never changed in place, so the old one is kept by reference.
  const std::size_t photos = corpus_.photos.size();
  const std::size_t subsets = corpus_.subsets.size();
  std::vector<PhotoId> required = corpus_.required;
  const std::shared_ptr<const ArchivePlan> plan = plan_;
  const std::size_t deferred = deferred_photos_;
  const Cost budget = options_.archive.budget;
  IncrementalUpdateStats local_stats;
  defer(&local_stats);
  try {
    Replan(local_stats, std::move(built));
  } catch (...) {
    // Keep the archiver consistent: a failed replan (infeasible budget,
    // injected fault) must not leave appended photos in a corpus whose
    // active plan has never seen them, nor a budget no plan satisfies.
    corpus_.photos.resize(photos);
    corpus_.subsets.resize(subsets);
    corpus_.required = std::move(required);
    plan_ = plan;
    deferred_photos_ = deferred;
    options_.archive.budget = budget;
    throw;
  }
  if (stats != nullptr) *stats = local_stats;
  return *plan_;
}

void IncrementalArchiver::AddPhotosDeferred(
    std::vector<CorpusPhoto> photos, std::vector<SubsetSpec> new_subsets,
    std::vector<PhotoId> new_required, IncrementalUpdateStats* stats) {
  PHOCUS_CHECK(initialized_, "AddPhotosDeferred before Initialize");
  const std::size_t new_total = corpus_.photos.size() + photos.size();
  for (const SubsetSpec& spec : new_subsets) {
    for (PhotoId p : spec.members) {
      PHOCUS_CHECK(p < new_total, "subset member beyond the appended corpus");
    }
  }
  for (PhotoId p : new_required) {
    PHOCUS_CHECK(p < new_total, "required id beyond the appended corpus");
  }
  IncrementalUpdateStats local_stats;
  local_stats.photos_added = photos.size();
  local_stats.subsets_added = new_subsets.size();

  const PhotoId first_new = static_cast<PhotoId>(corpus_.photos.size());
  // Arrivals are cold-by-default: extend the active plan's archived side so
  // it keeps covering the whole corpus until the next replan. A copy, since
  // a published plan never changes.
  auto grown = std::make_shared<ArchivePlan>(*plan_);
  for (CorpusPhoto& photo : photos) {
    grown->archived.push_back(static_cast<PhotoId>(corpus_.photos.size()));
    grown->archived_bytes += photo.bytes;
    corpus_.photos.push_back(std::move(photo));
  }
  plan_ = std::move(grown);
  for (SubsetSpec& spec : new_subsets) corpus_.subsets.push_back(std::move(spec));
  for (PhotoId p : new_required) corpus_.required.push_back(p);
  std::sort(corpus_.required.begin(), corpus_.required.end());
  corpus_.required.erase(
      std::unique(corpus_.required.begin(), corpus_.required.end()),
      corpus_.required.end());
  deferred_photos_ += corpus_.photos.size() - first_new;
  telemetry::MetricsRegistry::Current()
      .GetCounter("incremental.deferred_photos")
      .Add(corpus_.photos.size() - first_new);
  if (stats != nullptr) *stats = local_stats;
}

DriftCheck IncrementalArchiver::EstimateDrift() {
  PHOCUS_CHECK(initialized_, "EstimateDrift before Initialize");
  telemetry::TraceSpan span("incremental.drift");
  DriftCheck check;
  check.instance = BuildInstance(corpus_, options_.archive.budget,
                                 options_.archive.representation);
  telemetry::MetricsRegistry::Current()
      .GetCounter("incremental.drift_evals")
      .Increment();
  check.estimate = EstimateObjectiveDrift(check.instance, plan_->retained);
  return check;
}

const ArchivePlan& IncrementalArchiver::ReplanNow(
    IncrementalUpdateStats* stats) {
  PHOCUS_CHECK(initialized_, "ReplanNow before Initialize");
  IncrementalUpdateStats local_stats;
  Replan(local_stats);
  if (stats != nullptr) *stats = local_stats;
  return *plan_;
}

void IncrementalArchiver::SetBudgetDeferred(Cost budget) {
  PHOCUS_CHECK(initialized_, "SetBudgetDeferred before Initialize");
  PHOCUS_CHECK(budget > 0, "budget must be positive");
  options_.archive.budget = budget;
}

void IncrementalArchiver::Replan(IncrementalUpdateStats& stats,
                                 std::optional<ParInstance> built) {
  PHOCUS_FAILPOINT("incremental.replan");
  telemetry::TraceSpan span("incremental.replan");
  telemetry::TraceSpan build("incremental.stage.build_instance");
  build.SetAttribute("reused", static_cast<std::uint64_t>(built.has_value()));
  PHOCUS_CHECK(!built.has_value() ||
                   (built->num_photos() == corpus_.num_photos() &&
                    built->budget() == options_.archive.budget),
               "a prebuilt instance must match the corpus and budget");
  const ParInstance instance =
      built.has_value() ? std::move(*built)
                        : BuildInstance(corpus_, options_.archive.budget,
                                        options_.archive.representation);
  // Surface an unsatisfiable budget as the typed error (with the numbers a
  // caller needs to pick a feasible one) before generic validation reports
  // it as a plain CheckFailure.
  const Cost required_cost = instance.RequiredCost();
  if (required_cost > instance.budget()) {
    throw InfeasibleBudgetError(
        required_cost, instance.budget(),
        "infeasible: required set S0 costs " + std::to_string(required_cost) +
            " bytes, above the budget of " + std::to_string(instance.budget()) +
            " bytes");
  }
  instance.Validate();
  build.Close();

  // Seed with what we previously retained (dropping nothing silently; the
  // previous retained ids are stable because appends never renumber).
  std::vector<PhotoId> seed = plan_->retained;
  telemetry::TraceSpan evict("incremental.stage.evict");
  const std::size_t victims = FitSeedToBudget(instance, seed, &stats).size();
  evict.SetAttribute("rounds", static_cast<std::uint64_t>(victims));
  evict.SetAttribute("removal_loss_evals",
                     static_cast<std::uint64_t>(stats.removal_loss_evals));
  evict.SetAttribute("victims", static_cast<std::uint64_t>(victims));
  evict.Close();

  // Top-up with the arrivals (and anything newly worthwhile), then one swap
  // local-search pass to rebalance old vs new.
  telemetry::TraceSpan top_up("incremental.stage.top_up");
  SolverResult result =
      LazyGreedyFrom(instance, GreedyRule::kCostBenefit, CelfOptions{}, seed);
  top_up.Close();
  telemetry::TraceSpan rebalance("incremental.stage.rebalance");
  LocalSearchOptions ls;
  ls.max_passes = 1;
  const LocalSearchStats rebalanced =
      ImproveByLocalSearch(instance, result, ls);
  rebalance.SetAttribute("probes",
                         static_cast<std::uint64_t>(rebalanced.moves_tried));
  rebalance.SetAttribute("keys_reused",
                         static_cast<std::uint64_t>(rebalanced.keys_reused));
  rebalance.SetAttribute("keys_refreshed",
                         static_cast<std::uint64_t>(rebalanced.keys_refreshed));
  rebalance.SetAttribute("accepted",
                         static_cast<std::uint64_t>(rebalanced.moves_accepted));
  rebalance.SetAttribute(
      "table_evals", static_cast<std::uint64_t>(rebalanced.table_evaluations));
  rebalance.SetAttribute(
      "readd_evals", static_cast<std::uint64_t>(rebalanced.readd_evaluations));
  rebalance.Close();
  result.solver_name = "PHOcus-incremental";
  stats.gain_evaluations += result.gain_evaluations;
  plan_ = std::make_shared<const ArchivePlan>(
      AssemblePlan(instance, std::move(result), options_.archive));
  deferred_photos_ = 0;  // every deferred arrival is now in the plan
  telemetry::MetricsRegistry::Current()
      .GetCounter("incremental.replans")
      .Increment();
  stats.seconds = span.ElapsedSeconds();
}

}  // namespace phocus
