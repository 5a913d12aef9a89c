#ifndef PHOCUS_CORE_INSTANCE_H_
#define PHOCUS_CORE_INSTANCE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

/// \file instance.h
/// The PAR problem instance ⟨P, S0, Q, C, W, R, SIM, B⟩ (§3.1).
///
/// Photos are dense ids `0..n-1`. Each pre-defined subset stores its member
/// photo ids, their (normalized) relevance scores, and the contextualized
/// similarity among members, in one of three storage modes:
///   - kDense:   full |q|×|q| matrix (PHOcus-NS / small subsets),
///   - kSparse:  CSR neighbor lists (τ-sparsified, §4.3),
///   - kUniform: SIM ≡ 1 among all members (the Greedy-NR surrogate and the
///               hardness-reduction instances, where one pick covers all).
/// Self-similarity is always exactly 1 and is implicit (never stored in
/// sparse lists).
///
/// The sparse mode and the photo→membership index are stored as CSR arrays
/// (contiguous `offsets`/`indices`/`values`) rather than vector-of-vectors:
/// the solver's marginal-gain probe streams whole rows, and contiguous
/// storage turns every probe into a linear scan instead of a pointer chase.

namespace phocus {

using PhotoId = std::uint32_t;
using SubsetId = std::uint32_t;
using Cost = std::uint64_t;

/// One CSR row of a subset's sparse similarity list: `size` neighbor
/// (local index, similarity) entries laid out contiguously.
struct SparseSimRow {
  const std::uint32_t* indices = nullptr;
  const float* values = nullptr;
  std::uint32_t size = 0;
};

/// One pre-defined subset q ∈ Q with weight, relevance, and contextual SIM.
struct Subset {
  enum class SimMode { kDense, kSparse, kUniform };

  std::string name;
  double weight = 1.0;
  std::vector<PhotoId> members;
  /// Aligned with `members`; normalized to sum to 1 by
  /// ParInstance::NormalizeRelevance().
  std::vector<double> relevance;

  SimMode sim_mode = SimMode::kUniform;
  /// kDense: row-major |members|²; diagonal must be 1.
  std::vector<float> dense_sim;
  /// kSparse, CSR layout: row i (a local member index) holds the (other
  /// local index, sim) entries with sim > 0 at
  /// `sparse_indices/sparse_values[sparse_offsets[i] .. sparse_offsets[i+1])`.
  /// Self-pairs excluded; each row in ascending index order, so a lookup is
  /// a binary search. Mirrored bit for bit: entry (i, j) is stored exactly
  /// when (j, i) is, with the same value, so j's own row lists the members
  /// whose rows hold j, and a removal re-covers j from it. Rows from outside
  /// go through SetSparseRows(), which checks this; a writer that mirrors by
  /// construction (BuildInstance's sweep, SparsifyInstance: each pair's one
  /// value into both rows) may append rows in order, keeping
  /// `sparse_offsets` sized |members|+1.
  std::vector<std::uint32_t> sparse_offsets;
  std::vector<std::uint32_t> sparse_indices;
  std::vector<float> sparse_values;

  std::size_t size() const { return members.size(); }

  /// Converts per-row neighbor lists into the CSR arrays, sorting each row
  /// by index (rows may have been filled in any order). `rows` must have
  /// one entry per member and be mirrored bit for bit (throws CheckFailure
  /// otherwise).
  void SetSparseRows(
      const std::vector<std::vector<std::pair<std::uint32_t, float>>>& rows);

  /// Whether the CSR arrays are mirrored bit for bit: one O(entries) pass,
  /// which the plan path does not pay (see SetSparseRows).
  bool SparseRowsMirrored() const;

  /// CSR row view for local member index `i`. Requires kSparse with a
  /// finalized layout (`sparse_offsets.size() == size() + 1`).
  SparseSimRow sparse_row(std::uint32_t i) const {
    const std::uint32_t begin = sparse_offsets[i];
    return {sparse_indices.data() + begin, sparse_values.data() + begin,
            sparse_offsets[i + 1] - begin};
  }

  /// SIM between two members, by *local* index. Diagonal returns 1; an
  /// absent sparse entry returns 0 (a binary search of the ascending row).
  double Similarity(std::uint32_t local_a, std::uint32_t local_b) const;

  /// Number of stored (nonzero, off-diagonal) similarity entries; for dense
  /// mode counts nonzero off-diagonal cells, for uniform m(m-1).
  std::size_t CountSimEntries() const;
};

/// A photo's membership in one subset.
struct Membership {
  SubsetId subset = 0;
  std::uint32_t local_index = 0;  ///< position within Subset::members
};

/// Contiguous view over one photo's memberships (a CSR row of the
/// photo → membership index).
struct MembershipRange {
  const Membership* first = nullptr;
  const Membership* last = nullptr;

  const Membership* begin() const { return first; }
  const Membership* end() const { return last; }
  std::size_t size() const { return static_cast<std::size_t>(last - first); }
  bool empty() const { return first == last; }
  const Membership& operator[](std::size_t i) const { return first[i]; }
};

/// The full PAR input.
class ParInstance {
 public:
  ParInstance() = default;

  /// \param num_photos |P|
  /// \param costs per-photo byte cost C, size num_photos, all > 0
  /// \param budget B
  ParInstance(std::size_t num_photos, std::vector<Cost> costs, Cost budget);

  std::size_t num_photos() const { return costs_.size(); }
  Cost cost(PhotoId p) const { return costs_[p]; }
  const std::vector<Cost>& costs() const { return costs_; }
  Cost budget() const { return budget_; }
  void set_budget(Cost budget) { budget_ = budget; }

  /// Sum of all photo costs (the archive size).
  Cost TotalCost() const;

  /// Marks a photo as policy-required (a member of S0).
  void MarkRequired(PhotoId p);
  bool IsRequired(PhotoId p) const { return required_[p]; }
  std::vector<PhotoId> RequiredPhotos() const;
  Cost RequiredCost() const;

  /// Appends a subset; returns its id. Invalidates the membership index.
  SubsetId AddSubset(Subset subset);
  const Subset& subset(SubsetId q) const { return subsets_[q]; }
  Subset& mutable_subset(SubsetId q) { return subsets_[q]; }
  std::size_t num_subsets() const { return subsets_.size(); }

  /// Rescales every subset's relevance vector to sum to 1 (§3.1). Subsets
  /// whose relevance sums to 0 get uniform scores.
  void NormalizeRelevance();

  /// Builds the photo → memberships index and the per-subset member-offset
  /// prefix sums (the solver arena layout); called automatically by
  /// memberships() when stale.
  ///
  /// EAGER-BUILD CONTRACT: this method is NOT thread-safe against itself or
  /// against readers while it runs. Every solver entry point that may probe
  /// the instance from multiple threads builds the index eagerly up front —
  /// constructing one ObjectiveEvaluator does so, and the parallel CELF and
  /// local-search paths additionally assert membership_index_built() before
  /// fanning out. When sharing a const ParInstance across threads yourself,
  /// call this once before the fan-out; all later concurrent reads are safe
  /// because a valid index is never rebuilt.
  void BuildMembershipIndex() const;

  /// True once BuildMembershipIndex() has run (and no AddSubset since):
  /// the precondition for any concurrent probing of this instance.
  bool membership_index_built() const { return membership_index_valid_; }

  MembershipRange memberships(PhotoId p) const;

  /// Offset of subset q's first member slot in the flattened
  /// "one slot per (subset, member) pair" arena used by ObjectiveEvaluator.
  /// Requires the index to be built (see BuildMembershipIndex).
  std::size_t member_offset(SubsetId q) const { return member_offsets_[q]; }
  /// Total member slots across all subsets (the arena length).
  std::size_t total_members() const { return member_offsets_.back(); }

  /// Structural validation: relevance normalized, similarities in [0, 1],
  /// dense diagonals 1 and symmetric, sparse CSR well-formed with ascending
  /// rows (their mirroring is left to the writers, see `sparse_offsets`),
  /// required cost within budget. Throws CheckFailure with a precise message
  /// on violation.
  void Validate() const;

  /// Total stored similarity entries across subsets (sparsification metric).
  std::size_t CountSimEntries() const;

 private:
  std::vector<Cost> costs_;
  std::vector<bool> required_;
  std::vector<Subset> subsets_;
  Cost budget_ = 0;

  /// CSR photo → membership index: photo p's memberships live at
  /// membership_entries_[membership_offsets_[p] .. membership_offsets_[p+1]).
  mutable std::vector<std::uint32_t> membership_offsets_;
  mutable std::vector<Membership> membership_entries_;
  /// Prefix sums of subset sizes (num_subsets + 1 entries).
  mutable std::vector<std::size_t> member_offsets_;
  mutable bool membership_index_valid_ = false;
};

}  // namespace phocus

#endif  // PHOCUS_CORE_INSTANCE_H_
