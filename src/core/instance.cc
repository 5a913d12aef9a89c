#include "core/instance.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/logging.h"
#include "util/strings.h"

namespace phocus {

void Subset::SetSparseRows(
    const std::vector<std::vector<std::pair<std::uint32_t, float>>>& rows) {
  PHOCUS_CHECK(rows.size() == members.size(),
               "SetSparseRows needs one row per member");
  std::size_t total = 0;
  for (const auto& row : rows) total += row.size();
  sparse_offsets.clear();
  sparse_indices.clear();
  sparse_values.clear();
  sparse_offsets.reserve(rows.size() + 1);
  sparse_indices.reserve(total);
  sparse_values.reserve(total);
  sparse_offsets.push_back(0);
  std::vector<std::pair<std::uint32_t, float>> sorted;
  for (const auto& row : rows) {
    // Stored rows are in ascending index order (see sparse_row).
    sorted.assign(row.begin(), row.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [j, s] : sorted) {
      sparse_indices.push_back(j);
      sparse_values.push_back(s);
    }
    sparse_offsets.push_back(static_cast<std::uint32_t>(sparse_indices.size()));
  }
  PHOCUS_CHECK(SparseRowsMirrored(),
               "sparse rows must be mirrored: each (i, j) entry needs a "
               "(j, i) entry with the same value");
}

bool Subset::SparseRowsMirrored() const {
  // Rows are ascending, so visiting the rows in order meets the mirrors in
  // each row j in ascending order too: one cursor per row checks them all.
  const std::size_t m = members.size();
  if (sparse_offsets.size() != m + 1) return false;
  std::vector<std::uint32_t> cursor(sparse_offsets.begin(),
                                    sparse_offsets.end() - 1);
  for (std::uint32_t i = 0; i < m; ++i) {
    const SparseSimRow row = sparse_row(i);
    for (std::uint32_t k = 0; k < row.size; ++k) {
      const std::uint32_t j = row.indices[k];
      if (j >= m || cursor[j] == sparse_offsets[j + 1]) return false;
      const std::uint32_t at = cursor[j]++;
      if (sparse_indices[at] != i ||
          std::bit_cast<std::uint32_t>(sparse_values[at]) !=
              std::bit_cast<std::uint32_t>(row.values[k])) {
        return false;
      }
    }
  }
  for (std::uint32_t j = 0; j < m; ++j) {
    if (cursor[j] != sparse_offsets[j + 1]) return false;
  }
  return true;
}

double Subset::Similarity(std::uint32_t local_a, std::uint32_t local_b) const {
  PHOCUS_CHECK(local_a < members.size() && local_b < members.size(),
               "local index out of range");
  if (local_a == local_b) return 1.0;
  switch (sim_mode) {
    case SimMode::kUniform:
      return 1.0;
    case SimMode::kDense:
      return dense_sim[static_cast<std::size_t>(local_a) * members.size() + local_b];
    case SimMode::kSparse: {
      const SparseSimRow row = sparse_row(local_a);
      const std::uint32_t* end = row.indices + row.size;
      const std::uint32_t* it = std::lower_bound(row.indices, end, local_b);
      return it != end && *it == local_b ? row.values[it - row.indices] : 0.0;
    }
  }
  return 0.0;
}

std::size_t Subset::CountSimEntries() const {
  const std::size_t m = members.size();
  switch (sim_mode) {
    case SimMode::kUniform:
      return m * (m - 1);
    case SimMode::kDense: {
      std::size_t count = 0;
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < m; ++j) {
          if (i != j && dense_sim[i * m + j] > 0.0f) ++count;
        }
      }
      return count;
    }
    case SimMode::kSparse:
      return sparse_indices.size();
  }
  return 0;
}

ParInstance::ParInstance(std::size_t num_photos, std::vector<Cost> costs,
                         Cost budget)
    : costs_(std::move(costs)), required_(num_photos, false), budget_(budget) {
  PHOCUS_CHECK(costs_.size() == num_photos,
               "costs vector must have one entry per photo");
}

Cost ParInstance::TotalCost() const {
  Cost total = 0;
  for (Cost c : costs_) total += c;
  return total;
}

void ParInstance::MarkRequired(PhotoId p) {
  PHOCUS_CHECK(p < required_.size(), "photo id out of range");
  required_[p] = true;
}

std::vector<PhotoId> ParInstance::RequiredPhotos() const {
  std::vector<PhotoId> out;
  for (PhotoId p = 0; p < required_.size(); ++p) {
    if (required_[p]) out.push_back(p);
  }
  return out;
}

Cost ParInstance::RequiredCost() const {
  Cost total = 0;
  for (PhotoId p = 0; p < required_.size(); ++p) {
    if (required_[p]) total += costs_[p];
  }
  return total;
}

SubsetId ParInstance::AddSubset(Subset subset) {
  PHOCUS_CHECK(subset.members.size() == subset.relevance.size() ||
                   subset.relevance.empty(),
               "relevance must be empty or aligned with members");
  if (subset.relevance.empty()) {
    subset.relevance.assign(subset.members.size(),
                            subset.members.empty()
                                ? 0.0
                                : 1.0 / static_cast<double>(subset.members.size()));
  }
  for (PhotoId p : subset.members) {
    PHOCUS_CHECK(p < costs_.size(), "subset member photo id out of range");
  }
  if (subset.sim_mode == Subset::SimMode::kSparse &&
      subset.sparse_offsets.empty()) {
    // A sparse subset with no entries set: give it an all-empty CSR layout
    // so row views are valid.
    subset.sparse_offsets.assign(subset.members.size() + 1, 0);
  }
  subsets_.push_back(std::move(subset));
  membership_index_valid_ = false;
  return static_cast<SubsetId>(subsets_.size() - 1);
}

void ParInstance::NormalizeRelevance() {
  for (Subset& q : subsets_) {
    double total = 0.0;
    for (double r : q.relevance) total += r;
    if (total <= 0.0) {
      if (!q.relevance.empty()) {
        const double uniform = 1.0 / static_cast<double>(q.relevance.size());
        std::fill(q.relevance.begin(), q.relevance.end(), uniform);
      }
    } else {
      for (double& r : q.relevance) r /= total;
    }
  }
}

void ParInstance::BuildMembershipIndex() const {
  // Already-valid indexes must not be rebuilt: the thread-safety contract
  // (see instance.h) is "build once, then share", and evaluators constructed
  // concurrently after that point all land here.
  if (membership_index_valid_) return;

  // Pass 1: per-photo membership counts → CSR offsets; per-subset member
  // offsets (prefix sums of subset sizes) for the flat evaluator arena.
  membership_offsets_.assign(costs_.size() + 1, 0);
  member_offsets_.assign(subsets_.size() + 1, 0);
  std::size_t running = 0;
  for (SubsetId q = 0; q < subsets_.size(); ++q) {
    member_offsets_[q] = running;
    running += subsets_[q].members.size();
    for (PhotoId p : subsets_[q].members) ++membership_offsets_[p + 1];
  }
  member_offsets_[subsets_.size()] = running;
  for (std::size_t p = 1; p <= costs_.size(); ++p) {
    membership_offsets_[p] += membership_offsets_[p - 1];
  }

  // Pass 2: fill entries using a per-photo write cursor.
  membership_entries_.resize(running);
  std::vector<std::uint32_t> cursor(membership_offsets_.begin(),
                                    membership_offsets_.end() - 1);
  for (SubsetId q = 0; q < subsets_.size(); ++q) {
    const Subset& subset = subsets_[q];
    for (std::uint32_t i = 0; i < subset.members.size(); ++i) {
      membership_entries_[cursor[subset.members[i]]++] = {q, i};
    }
  }
  membership_index_valid_ = true;
}

MembershipRange ParInstance::memberships(PhotoId p) const {
  PHOCUS_CHECK(p < costs_.size(), "photo id out of range");
  if (!membership_index_valid_) BuildMembershipIndex();
  const Membership* base = membership_entries_.data();
  return {base + membership_offsets_[p], base + membership_offsets_[p + 1]};
}

void ParInstance::Validate() const {
  for (PhotoId p = 0; p < costs_.size(); ++p) {
    PHOCUS_CHECK(costs_[p] > 0,
                 StrFormat("photo %u has non-positive cost", p));
  }
  PHOCUS_CHECK(RequiredCost() <= budget_,
               "required photos S0 exceed the budget; instance infeasible");
  for (SubsetId qi = 0; qi < subsets_.size(); ++qi) {
    const Subset& q = subsets_[qi];
    PHOCUS_CHECK(q.weight > 0.0,
                 StrFormat("subset %u has non-positive weight", qi));
    PHOCUS_CHECK(q.members.size() == q.relevance.size(),
                 StrFormat("subset %u relevance misaligned", qi));
    // Members must be unique.
    std::vector<PhotoId> sorted = q.members;
    std::sort(sorted.begin(), sorted.end());
    PHOCUS_CHECK(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
                 StrFormat("subset %u has duplicate members", qi));
    double total = 0.0;
    for (double r : q.relevance) {
      PHOCUS_CHECK(r >= 0.0, StrFormat("subset %u has negative relevance", qi));
      total += r;
    }
    if (!q.members.empty()) {
      PHOCUS_CHECK(std::abs(total - 1.0) < 1e-6,
                   StrFormat("subset %u relevance sums to %.6f, not 1", qi, total));
    }
    const std::size_t m = q.members.size();
    switch (q.sim_mode) {
      case Subset::SimMode::kUniform:
        break;
      case Subset::SimMode::kDense: {
        PHOCUS_CHECK(q.dense_sim.size() == m * m,
                     StrFormat("subset %u dense sim has wrong size", qi));
        for (std::size_t i = 0; i < m; ++i) {
          PHOCUS_CHECK(std::abs(q.dense_sim[i * m + i] - 1.0f) < 1e-6f,
                       StrFormat("subset %u dense sim diagonal != 1", qi));
          for (std::size_t j = 0; j < m; ++j) {
            const float s = q.dense_sim[i * m + j];
            PHOCUS_CHECK(s >= 0.0f && s <= 1.0f + 1e-6f,
                         StrFormat("subset %u sim out of [0,1]", qi));
            PHOCUS_CHECK(std::abs(s - q.dense_sim[j * m + i]) < 1e-6f,
                         StrFormat("subset %u dense sim not symmetric", qi));
          }
        }
        break;
      }
      case Subset::SimMode::kSparse: {
        PHOCUS_CHECK(q.sparse_offsets.size() == m + 1,
                     StrFormat("subset %u sparse CSR offsets have wrong size", qi));
        PHOCUS_CHECK(q.sparse_offsets.front() == 0 &&
                         q.sparse_offsets.back() == q.sparse_indices.size() &&
                         q.sparse_indices.size() == q.sparse_values.size(),
                     StrFormat("subset %u sparse CSR arrays inconsistent", qi));
        for (std::size_t i = 0; i < m; ++i) {
          PHOCUS_CHECK(q.sparse_offsets[i] <= q.sparse_offsets[i + 1],
                       StrFormat("subset %u sparse CSR offsets not monotone", qi));
          const SparseSimRow row = q.sparse_row(static_cast<std::uint32_t>(i));
          for (std::uint32_t k = 0; k < row.size; ++k) {
            const std::uint32_t j = row.indices[k];
            const float s = row.values[k];
            PHOCUS_CHECK(j < m && j != i,
                         StrFormat("subset %u sparse sim bad neighbor", qi));
            PHOCUS_CHECK(k == 0 || row.indices[k - 1] < j,
                         StrFormat("subset %u sparse row not ascending", qi));
            PHOCUS_CHECK(s > 0.0f && s <= 1.0f + 1e-6f,
                         StrFormat("subset %u sparse sim out of (0,1]", qi));
          }
        }
        break;
      }
    }
  }
}

std::size_t ParInstance::CountSimEntries() const {
  std::size_t total = 0;
  for (const Subset& q : subsets_) total += q.CountSimEntries();
  return total;
}

}  // namespace phocus
