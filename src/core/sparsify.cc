#include "core/sparsify.h"

#include <algorithm>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/logging.h"

namespace phocus {

ParInstance SparsifyInstance(const ParInstance& instance, double tau,
                             SparsifyStats* stats) {
  PHOCUS_CHECK(tau >= 0.0 && tau <= 1.0, "tau must be in [0, 1]");
  telemetry::TraceSpan span("core.sparsify");
  span.SetAttribute("tau", tau);
  ParInstance out(instance.num_photos(), instance.costs(), instance.budget());
  for (PhotoId p = 0; p < instance.num_photos(); ++p) {
    if (instance.IsRequired(p)) out.MarkRequired(p);
  }
  std::size_t before = 0;
  std::size_t after = 0;
  for (SubsetId qi = 0; qi < instance.num_subsets(); ++qi) {
    const Subset& q = instance.subset(qi);
    before += q.CountSimEntries();
    Subset sparse;
    sparse.name = q.name;
    sparse.weight = q.weight;
    sparse.members = q.members;
    sparse.relevance = q.relevance;
    const std::size_t m = q.members.size();
    if (q.sim_mode == Subset::SimMode::kUniform) {
      // All off-diagonal sims are exactly 1 ≥ τ; nothing to drop.
      sparse.sim_mode = Subset::SimMode::kUniform;
      after += q.CountSimEntries();
      out.AddSubset(std::move(sparse));
      continue;
    }
    sparse.sim_mode = Subset::SimMode::kSparse;
    // Rows are produced in order, so the CSR arrays are built directly —
    // no intermediate row lists. Both ways keep the rows mirrored bit for
    // bit (see Subset::sparse_offsets).
    sparse.sparse_offsets.reserve(m + 1);
    sparse.sparse_offsets.push_back(0);
    if (q.sim_mode == Subset::SimMode::kDense) {
      // Validate lets (i, j) and (j, i) differ by 1e-6, so each unordered
      // pair takes its upper-triangle value in both rows.
      for (std::uint32_t i = 0; i < m; ++i) {
        for (std::uint32_t j = 0; j < m; ++j) {
          if (i == j) continue;
          const std::size_t upper =
              static_cast<std::size_t>(std::min(i, j)) * m + std::max(i, j);
          const float s = q.dense_sim[upper];
          if (s >= tau && s > 0.0f) {
            sparse.sparse_indices.push_back(j);
            sparse.sparse_values.push_back(s);
            ++after;
          }
        }
        sparse.sparse_offsets.push_back(
            static_cast<std::uint32_t>(sparse.sparse_indices.size()));
      }
    } else {  // already sparse: a pair's two entries stay or go together
      for (std::uint32_t i = 0; i < m; ++i) {
        const SparseSimRow row = q.sparse_row(i);
        for (std::uint32_t k = 0; k < row.size; ++k) {
          if (row.values[k] >= tau) {
            sparse.sparse_indices.push_back(row.indices[k]);
            sparse.sparse_values.push_back(row.values[k]);
            ++after;
          }
        }
        sparse.sparse_offsets.push_back(
            static_cast<std::uint32_t>(sparse.sparse_indices.size()));
      }
    }
    out.AddSubset(std::move(sparse));
  }
  if (stats != nullptr) {
    stats->entries_before = before;
    stats->entries_after = after;
  }
  auto& registry = telemetry::MetricsRegistry::Current();
  registry.GetCounter("sparsify.entries_before").Add(before);
  registry.GetCounter("sparsify.entries_after").Add(after);
  span.SetAttribute("entries_before", static_cast<std::uint64_t>(before));
  span.SetAttribute("entries_after", static_cast<std::uint64_t>(after));
  return out;
}

}  // namespace phocus
