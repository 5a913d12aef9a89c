#include "core/online_bound.h"

#include <algorithm>

#include "core/objective.h"
#include "util/logging.h"

namespace phocus {

namespace {

// Fractional-knapsack packing of the positive residual gains δ_p(S) into the
// full budget B, the shared core of both bounds: any feasible set T satisfies
// Σ_{p∈T\S} δ_p(S) ≤ this packing.
double ResidualKnapsack(const ParInstance& instance,
                        const ObjectiveEvaluator& evaluator) {
  struct Item {
    double gain;
    Cost cost;
  };
  std::vector<Item> items;
  for (PhotoId p = 0; p < instance.num_photos(); ++p) {
    if (evaluator.IsSelected(p)) continue;
    if (instance.cost(p) > instance.budget()) continue;  // never in OPT
    const double gain = evaluator.GainOf(p);
    if (gain > 0.0) items.push_back({gain, instance.cost(p)});
  }
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    return a.gain * static_cast<double>(b.cost) >
           b.gain * static_cast<double>(a.cost);
  });

  // OPT's photos all fit in budget B, so the sum of their marginal gains is
  // at most the fractional packing of B by gain density.
  double extra = 0.0;
  Cost budget = instance.budget();
  for (const Item& item : items) {
    if (item.cost <= budget) {
      extra += item.gain;
      budget -= item.cost;
    } else {
      extra += item.gain * static_cast<double>(budget) /
               static_cast<double>(item.cost);
      break;
    }
  }
  return extra;
}

}  // namespace

OnlineBound ComputeOnlineBound(const ParInstance& instance,
                               const std::vector<PhotoId>& selection) {
  ObjectiveEvaluator evaluator(&instance, selection);
  const double extra = ResidualKnapsack(instance, evaluator);

  OnlineBound bound;
  bound.solution_score = evaluator.score();
  bound.upper_bound = evaluator.score() + extra;
  bound.certified_ratio =
      bound.upper_bound > 0.0 ? bound.solution_score / bound.upper_bound : 1.0;
  return bound;
}

DriftEstimate EstimateObjectiveDrift(
    const ParInstance& instance, const std::vector<PhotoId>& stale_selection) {
  ObjectiveEvaluator evaluator(&instance);
  for (PhotoId p : stale_selection) {
    PHOCUS_CHECK(p < instance.num_photos(),
                 "stale selection id out of range for instance");
    if (!evaluator.IsSelected(p)) evaluator.Add(p);
  }

  DriftEstimate estimate;
  estimate.stale_score = evaluator.score();
  estimate.drift = ResidualKnapsack(instance, evaluator);
  estimate.upper_bound = estimate.stale_score + estimate.drift;
  estimate.relative_drift =
      estimate.drift / std::max(estimate.stale_score, 1.0);
  return estimate;
}

}  // namespace phocus
