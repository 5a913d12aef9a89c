#ifndef PHOCUS_CORE_OBJECTIVE_H_
#define PHOCUS_CORE_OBJECTIVE_H_

#include <atomic>
#include <cstddef>
#include <vector>

#include "core/instance.h"

/// \file objective.h
/// The PAR objective G(S) (§3.1) with incremental nearest-neighbor state.
///
/// The evaluator maintains, for every (subset, member) pair, the best
/// similarity any selected photo achieves for that member
/// (`best_sim[q][j] = SIM(q, p_j, NN(q, p_j, S))`, or 0 when S∩q = ∅).
/// Adding photo p touches only the subsets containing p, so a marginal-gain
/// probe costs O(Σ_{q∋p} |q|) dense / O(deg(p)) sparse — the property that
/// makes lazy greedy fast (§4.2). Removing p touches only the members whose
/// best similarity p attains: best_sim is a max over the selected members,
/// so every other member keeps its value, and an attained one takes the max
/// of the other selected members' contributions to it.
///
/// best_sim is stored as ONE flat arena (`total_members()` floats) indexed
/// by `member_offset(q) + local_j`, not a vector per subset: a gain probe
/// streams each subset's slice contiguously, construction is a single fill,
/// and copying the evaluator (branch-and-bound snapshots) is a single memcpy.

namespace phocus {

class ObjectiveEvaluator {
 public:
  /// The instance must outlive the evaluator. Construction eagerly builds
  /// the instance's membership index (see the EAGER-BUILD CONTRACT in
  /// instance.h), so evaluators may be probed concurrently afterwards.
  explicit ObjectiveEvaluator(const ParInstance* instance);
  /// The evaluator of `selection`, added in order (duplicates skipped).
  ObjectiveEvaluator(const ParInstance* instance,
                     const std::vector<PhotoId>& selection);

  /// Copyable (branch-and-bound snapshots evaluator state); the atomic
  /// evaluation counter is copied by value.
  ObjectiveEvaluator(const ObjectiveEvaluator& other);
  ObjectiveEvaluator& operator=(const ObjectiveEvaluator& other);
  /// Moves take the arena (local search adopts a probe lane's evaluator).
  ObjectiveEvaluator(ObjectiveEvaluator&& other) noexcept;
  ObjectiveEvaluator& operator=(ObjectiveEvaluator&& other) noexcept;

  /// Marginal gain G(S ∪ {p}) − G(S) without modifying state.
  double GainOf(PhotoId p) const;

  /// Adds p to the selection; returns the realized gain.
  double Add(PhotoId p);

  /// Removal loss G(S) − G(S ∖ {p}) of a selected photo, without modifying
  /// state. Counts one gain evaluation.
  double RemovalLoss(PhotoId p) const;

  /// Removes a selected photo; returns the realized loss (RemovalLoss's
  /// bits). Afterwards every GainOf and SubsetScore equals a fresh
  /// evaluator's on S ∖ {p} bit for bit (best-sims are maxima over floats,
  /// which ignore order). If `lowered` is given, appends the slots whose
  /// best-sim dropped: only a photo whose gain scan reads one of them can
  /// have a different GainOf than before the removal.
  double Remove(PhotoId p, std::vector<Membership>* lowered = nullptr);

  /// Subset q's best-sim slice (|q| floats, local member order).
  const float* BestSims(SubsetId q) const {
    return best_sim_.data() + instance_->member_offset(q);
  }

  /// Current G(S).
  double score() const { return score_; }

  bool IsSelected(PhotoId p) const { return selected_[p]; }
  const std::vector<bool>& selected() const { return selected_; }
  std::size_t num_selected() const { return num_selected_; }
  Cost selected_cost() const { return selected_cost_; }

  /// Number of GainOf/Add/RemovalLoss/Remove computations performed (the
  /// paper's "number of times it evaluates the gain" metric). Counted with
  /// relaxed atomics so concurrent const probes (parallel CELF rounds) are
  /// race-free.
  std::size_t gain_evaluations() const {
    return gain_evaluations_.load(std::memory_order_relaxed);
  }

  /// Per-subset score G(q, S) ∈ [0, 1] (unweighted by W) for the current
  /// selection: Σ_j R(q, p_j)·best_sim[q][j].
  double SubsetScore(SubsetId q) const;

  /// One-shot evaluation of an arbitrary selection.
  static double Evaluate(const ParInstance& instance,
                         const std::vector<PhotoId>& selection);

  /// The maximum attainable score: G(P) = Σ_q W(q) (every member covered by
  /// itself). Useful for "percent of total quality" reports (§5.3).
  static double MaxScore(const ParInstance& instance);

 private:
  /// A best-sim that drops when a member leaves: its new value.
  struct LoweredSim {
    std::uint32_t local_index;
    float value;
  };
  /// The members of subset q whose best-sim drops when the selected member
  /// at `local_p` leaves, with their new values; empty when no score in q
  /// changes.
  void LoweredWithout(SubsetId q, std::uint32_t local_p,
                      std::vector<LoweredSim>* lowered) const;

  const ParInstance* instance_;
  /// Flat best-sim arena: subset q's members occupy
  /// [member_offset(q), member_offset(q) + |q|).
  std::vector<float> best_sim_;
  std::vector<bool> selected_;
  std::size_t num_selected_ = 0;
  Cost selected_cost_ = 0;
  double score_ = 0.0;
  mutable std::atomic<std::size_t> gain_evaluations_{0};
};

}  // namespace phocus

#endif  // PHOCUS_CORE_OBJECTIVE_H_
