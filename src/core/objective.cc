#include "core/objective.h"

#include "kernels/kernels.h"
#include "util/logging.h"

namespace phocus {

ObjectiveEvaluator::ObjectiveEvaluator(const ParInstance* instance)
    : instance_(instance) {
  PHOCUS_CHECK(instance != nullptr, "instance must be non-null");
  instance_->BuildMembershipIndex();
  best_sim_.assign(instance_->total_members(), 0.0f);
  selected_.assign(instance_->num_photos(), false);
}

ObjectiveEvaluator::ObjectiveEvaluator(const ParInstance* instance,
                                       const std::vector<PhotoId>& selection)
    : ObjectiveEvaluator(instance) {
  for (PhotoId p : selection) {
    if (!IsSelected(p)) Add(p);
  }
}

ObjectiveEvaluator::ObjectiveEvaluator(const ObjectiveEvaluator& other)
    : instance_(other.instance_),
      best_sim_(other.best_sim_),
      selected_(other.selected_),
      num_selected_(other.num_selected_),
      selected_cost_(other.selected_cost_),
      score_(other.score_),
      gain_evaluations_(other.gain_evaluations()) {}

ObjectiveEvaluator& ObjectiveEvaluator::operator=(
    const ObjectiveEvaluator& other) {
  if (this == &other) return *this;
  instance_ = other.instance_;
  best_sim_ = other.best_sim_;
  selected_ = other.selected_;
  num_selected_ = other.num_selected_;
  selected_cost_ = other.selected_cost_;
  score_ = other.score_;
  gain_evaluations_.store(other.gain_evaluations(),
                          std::memory_order_relaxed);
  return *this;
}

ObjectiveEvaluator::ObjectiveEvaluator(ObjectiveEvaluator&& other) noexcept
    : instance_(other.instance_),
      best_sim_(std::move(other.best_sim_)),
      selected_(std::move(other.selected_)),
      num_selected_(other.num_selected_),
      selected_cost_(other.selected_cost_),
      score_(other.score_),
      gain_evaluations_(other.gain_evaluations()) {}

ObjectiveEvaluator& ObjectiveEvaluator::operator=(
    ObjectiveEvaluator&& other) noexcept {
  if (this == &other) return *this;
  instance_ = other.instance_;
  best_sim_ = std::move(other.best_sim_);
  selected_ = std::move(other.selected_);
  num_selected_ = other.num_selected_;
  selected_cost_ = other.selected_cost_;
  score_ = other.score_;
  gain_evaluations_.store(other.gain_evaluations(),
                          std::memory_order_relaxed);
  return *this;
}

namespace {

/// The member at local_p always counts with similarity 1 (the diagonal of
/// every sim mode). Same arithmetic as one kernel gain element with sim = 1.
double DiagGain(double rel, float best) {
  const double d = 1.0 - static_cast<double>(best);
  return d > 0.0 ? rel * d : 0.0;
}

/// Unweighted gain of adding the member at `local_p` to one subset: kernel
/// gain scans over the best-sim arena slice, with the dense row split
/// around the diagonal. The caller applies `subset.weight` once per
/// membership (hoisted out of the inner loops).
double MembershipGain(const Subset& subset, std::uint32_t local_p,
                      const float* best) {
  const std::size_t m = subset.size();
  const std::size_t lp = local_p;
  const double* rel = subset.relevance.data();
  switch (subset.sim_mode) {
    case Subset::SimMode::kUniform:
      return kernels::GainScanUniform(rel, best, m);
    case Subset::SimMode::kDense: {
      const float* row = &subset.dense_sim[lp * m];
      double sum = kernels::GainScan(row, rel, best, lp);
      sum += DiagGain(rel[lp], best[lp]);
      sum += kernels::GainScan(row + lp + 1, rel + lp + 1, best + lp + 1,
                               m - lp - 1);
      return sum;
    }
    case Subset::SimMode::kSparse: {
      const SparseSimRow row = subset.sparse_row(local_p);
      return DiagGain(rel[lp], best[lp]) +
             kernels::GainScanSparse(row.indices, row.values, row.size, rel,
                                     best);
    }
  }
  return 0.0;
}

/// Mutating variant of MembershipGain: additionally raises best[j] to the
/// contributed similarity wherever it gained. The diagonal is applied
/// before the sparse row scan, matching the historical visit order.
double MembershipAdd(const Subset& subset, std::uint32_t local_p,
                     float* best) {
  const std::size_t m = subset.size();
  const std::size_t lp = local_p;
  const double* rel = subset.relevance.data();
  switch (subset.sim_mode) {
    case Subset::SimMode::kUniform:
      return kernels::GainUpdateUniform(rel, best, m);
    case Subset::SimMode::kDense: {
      const float* row = &subset.dense_sim[lp * m];
      double sum = kernels::GainUpdate(row, rel, best, lp);
      sum += DiagGain(rel[lp], best[lp]);
      if (1.0f > best[lp]) best[lp] = 1.0f;
      sum += kernels::GainUpdate(row + lp + 1, rel + lp + 1, best + lp + 1,
                                 m - lp - 1);
      return sum;
    }
    case Subset::SimMode::kSparse: {
      double sum = DiagGain(rel[lp], best[lp]);
      if (1.0f > best[lp]) best[lp] = 1.0f;
      const SparseSimRow row = subset.sparse_row(local_p);
      sum += kernels::GainScanSparse(row.indices, row.values, row.size, rel,
                                     best);
      // No AVX2 scatter exists, so the raise is a separate scalar pass.
      // Row indices are unique, so the scan above never reads a slot this
      // pass already raised.
      for (std::uint32_t k = 0; k < row.size; ++k) {
        const std::uint32_t j = row.indices[k];
        if (row.values[k] > best[j]) best[j] = row.values[k];
      }
      return sum;
    }
  }
  return 0.0;
}

}  // namespace

double ObjectiveEvaluator::GainOf(PhotoId p) const {
  gain_evaluations_.fetch_add(1, std::memory_order_relaxed);
  if (selected_[p]) return 0.0;
  double gain = 0.0;
  for (const Membership& membership : instance_->memberships(p)) {
    const Subset& subset = instance_->subset(membership.subset);
    const float* best = best_sim_.data() + instance_->member_offset(membership.subset);
    gain += subset.weight * MembershipGain(subset, membership.local_index, best);
  }
  return gain;
}

double ObjectiveEvaluator::Add(PhotoId p) {
  PHOCUS_CHECK(p < instance_->num_photos(), "photo id out of range");
  PHOCUS_CHECK(!selected_[p], "photo already selected");
  gain_evaluations_.fetch_add(1, std::memory_order_relaxed);
  double gain = 0.0;
  for (const Membership& membership : instance_->memberships(p)) {
    const Subset& subset = instance_->subset(membership.subset);
    float* best = best_sim_.data() + instance_->member_offset(membership.subset);
    gain += subset.weight * MembershipAdd(subset, membership.local_index, best);
  }
  selected_[p] = true;
  ++num_selected_;
  selected_cost_ += instance_->cost(p);
  score_ += gain;
  return gain;
}

void ObjectiveEvaluator::LoweredWithout(
    SubsetId q, std::uint32_t local_p, std::vector<LoweredSim>* lowered) const {
  lowered->clear();
  const Subset& subset = instance_->subset(q);
  const float* best = best_sim_.data() + instance_->member_offset(q);
  const std::uint32_t m = static_cast<std::uint32_t>(subset.size());
  // best[j] is the max of the selected members' contributions, so it can
  // only drop where p's own contribution attains it: `recover` gets each
  // such j and records its new value, the max over the other selected
  // members (floored at 0, as a fresh cover starts).
  const auto for_each_attained = [&](auto&& recover) {
    if (best[local_p] == 1.0f) recover(local_p);
    if (subset.sim_mode == Subset::SimMode::kDense) {
      const float* row =
          &subset.dense_sim[static_cast<std::size_t>(local_p) * m];
      for (std::uint32_t j = 0; j < m; ++j) {
        if (j != local_p && row[j] > 0.0f && row[j] == best[j]) recover(j);
      }
    } else {
      const SparseSimRow row = subset.sparse_row(local_p);
      for (std::uint32_t k = 0; k < row.size; ++k) {
        const std::uint32_t j = row.indices[k];
        if (row.values[k] > 0.0f && row.values[k] == best[j]) recover(j);
      }
    }
  };
  if (subset.sim_mode == Subset::SimMode::kSparse) {
    // Member i's contribution to j is row_i[j], which the mirrored CSR also
    // stores as row_j[i] with the same bits: j's own row lists every
    // contribution, so no other member's row is searched.
    for_each_attained([&](std::uint32_t j) {
      // A selected j covers itself with 1, which attains any best-sim.
      if (j != local_p && selected_[subset.members[j]]) return;
      float value = 0.0f;
      const SparseSimRow row = subset.sparse_row(j);
      for (std::uint32_t k = 0; k < row.size; ++k) {
        const std::uint32_t i = row.indices[k];
        if (i == local_p || !selected_[subset.members[i]]) continue;
        if (row.values[k] > value) value = row.values[k];
        if (value == best[j]) return;  // another member attains it too
      }
      lowered->push_back({j, value});
    });
    return;
  }
  std::vector<std::uint32_t> others;
  for (std::uint32_t i = 0; i < m; ++i) {
    if (i != local_p && selected_[subset.members[i]]) others.push_back(i);
  }
  if (subset.sim_mode == Subset::SimMode::kUniform) {
    // Any selected member covers every member with 1.
    if (!others.empty()) return;
    for (std::uint32_t j = 0; j < m; ++j) lowered->push_back({j, 0.0f});
    return;
  }
  // A dense member's contribution: 1 on the diagonal, as MembershipAdd
  // raises it, else the stored similarity.
  for_each_attained([&](std::uint32_t j) {
    float value = 0.0f;
    for (std::uint32_t i : others) {
      const float c =
          i == j ? 1.0f : subset.dense_sim[static_cast<std::size_t>(i) * m + j];
      if (c > value) value = c;
      if (value == best[j]) return;  // another member attains it too
    }
    lowered->push_back({j, value});
  });
}

double ObjectiveEvaluator::RemovalLoss(PhotoId p) const {
  PHOCUS_CHECK(p < instance_->num_photos() && selected_[p],
               "photo is not selected");
  gain_evaluations_.fetch_add(1, std::memory_order_relaxed);
  double loss = 0.0;
  std::vector<LoweredSim> lowered;
  std::vector<float> without;
  for (const Membership& membership : instance_->memberships(p)) {
    LoweredWithout(membership.subset, membership.local_index, &lowered);
    // An unchanged slice contributes exactly 0 to the loss.
    if (lowered.empty()) continue;
    const Subset& subset = instance_->subset(membership.subset);
    const float* best =
        best_sim_.data() + instance_->member_offset(membership.subset);
    without.assign(best, best + subset.size());
    for (const LoweredSim& entry : lowered) {
      without[entry.local_index] = entry.value;
    }
    loss += subset.weight *
            (SubsetScore(membership.subset) -
             kernels::WeightedSum(subset.relevance.data(), without.data(),
                                  subset.size()));
  }
  return loss;
}

double ObjectiveEvaluator::Remove(PhotoId p,
                                  std::vector<Membership>* lowered_slots) {
  PHOCUS_CHECK(p < instance_->num_photos() && selected_[p],
               "photo is not selected");
  gain_evaluations_.fetch_add(1, std::memory_order_relaxed);
  double loss = 0.0;
  std::vector<LoweredSim> lowered;
  for (const Membership& membership : instance_->memberships(p)) {
    LoweredWithout(membership.subset, membership.local_index, &lowered);
    if (lowered.empty()) continue;
    // Same terms as RemovalLoss, so the realized loss is its bits.
    const Subset& subset = instance_->subset(membership.subset);
    float* best =
        best_sim_.data() + instance_->member_offset(membership.subset);
    const double before = SubsetScore(membership.subset);
    for (const LoweredSim& entry : lowered) {
      best[entry.local_index] = entry.value;
      if (lowered_slots != nullptr) {
        lowered_slots->push_back({membership.subset, entry.local_index});
      }
    }
    loss += subset.weight * (before - kernels::WeightedSum(
                                          subset.relevance.data(), best,
                                          subset.size()));
  }
  selected_[p] = false;
  --num_selected_;
  selected_cost_ -= instance_->cost(p);
  score_ -= loss;
  return loss;
}

double ObjectiveEvaluator::SubsetScore(SubsetId q) const {
  PHOCUS_CHECK(q < instance_->num_subsets(), "subset id out of range");
  const Subset& subset = instance_->subset(q);
  const float* best = best_sim_.data() + instance_->member_offset(q);
  return kernels::WeightedSum(subset.relevance.data(), best, subset.size());
}

double ObjectiveEvaluator::Evaluate(const ParInstance& instance,
                                    const std::vector<PhotoId>& selection) {
  return ObjectiveEvaluator(&instance, selection).score();
}

double ObjectiveEvaluator::MaxScore(const ParInstance& instance) {
  double total = 0.0;
  for (SubsetId q = 0; q < instance.num_subsets(); ++q) {
    const Subset& subset = instance.subset(q);
    double relevance_total = 0.0;
    for (double r : subset.relevance) relevance_total += r;
    total += subset.weight * relevance_total;
  }
  return total;
}

}  // namespace phocus
