#include "lsh/simhash_index.h"

#include <algorithm>
#include <unordered_set>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace phocus {

namespace {

/// Candidate-dedup shard count: enough shards to feed every worker a few
/// independent partitions. Shard count never affects the result set (pair
/// ownership is a pure function of the smaller id), only load balance.
std::size_t ResolveShards(int requested) {
  if (requested > 0) return static_cast<std::size_t>(requested);
  const std::size_t threads = ThreadPool::Global().num_threads();
  return std::min<std::size_t>(64, std::max<std::size_t>(1, threads * 2));
}

}  // namespace

SimHashIndex::SimHashIndex(std::size_t dimension,
                           const LshPairFinderOptions& options)
    : options_(options),
      rows_(0),
      hasher_(dimension, options.num_bits, options.seed) {
  PHOCUS_CHECK(options_.bands > 0 && options_.num_bits % options_.bands == 0,
               "bands must divide num_bits");
  rows_ = options_.num_bits / options_.bands;
  PHOCUS_CHECK(rows_ >= 1 && rows_ <= 64,
               "rows per band must fit in one 64-bit word");
  buckets_.resize(static_cast<std::size_t>(options_.bands));
}

std::uint64_t SimHashIndex::BandKey(const SimHashSignature& signature,
                                    int band) const {
  const int begin = band * rows_;
  std::uint64_t key = 0;
  for (int b = 0; b < rows_; ++b) {
    const int bit = begin + b;
    const std::uint64_t word = signature[static_cast<std::size_t>(bit) / 64];
    key |= ((word >> (static_cast<std::size_t>(bit) % 64)) & 1ULL)
           << static_cast<unsigned>(b);
  }
  return key;
}

void SimHashIndex::Add(const std::vector<Embedding>& vectors) {
  const std::size_t old_size = signatures_.size();
  PHOCUS_CHECK(vectors.size() >= old_size,
               "Add: vectors must extend the indexed set");
  const std::size_t added = vectors.size() - old_size;
  if (added == 0) return;
  telemetry::TraceSpan span("lsh.index_add");
  span.SetAttribute("added", static_cast<std::uint64_t>(added));
  span.SetAttribute("indexed", static_cast<std::uint64_t>(vectors.size()));

  signatures_.resize(vectors.size());
  // SignatureInto hashes straight into the preallocated slot — the fan-out
  // does no per-vector allocation beyond the slot's word resize.
  ThreadPool::Global().ParallelFor(added, [&](std::size_t k) {
    hasher_.SignatureInto(vectors[old_size + k], &signatures_[old_size + k]);
  });
  telemetry::MetricsRegistry::Current()
      .GetCounter("lsh.signatures_computed")
      .Add(added);

  PHOCUS_FAILPOINT("lsh.bucketize");
  // One iteration per band: each band table is touched by exactly one
  // index, so the fan-out is race-free. Ids enter in ascending order,
  // keeping every bucket sorted (PairsAbove relies on it).
  ThreadPool::Global().ParallelFor(
      buckets_.size(), [&](std::size_t band) {
        auto& table = buckets_[band];
        for (std::size_t i = old_size; i < vectors.size(); ++i) {
          table[BandKey(signatures_[i], static_cast<int>(band))].push_back(
              static_cast<std::uint32_t>(i));
        }
      });
}

std::vector<SimilarPair> SimHashIndex::PairsAbove(
    const std::vector<Embedding>& vectors, double tau,
    PairSearchStats* stats) const {
  telemetry::TraceSpan span("lsh.pairs_above");
  span.SetAttribute("bands", static_cast<std::uint64_t>(options_.bands));
  const std::size_t m = signatures_.size();
  PHOCUS_CHECK(vectors.size() == m,
               "PairsAbove: vectors must match the indexed set");
  std::vector<SimilarPair> pairs;
  if (m < 2) {
    if (stats != nullptr) *stats = {m, 0, 0, span.ElapsedSeconds()};
    return pairs;
  }

  // Same per-call histogram the serial reference emits: colliding buckets
  // only (singletons generate no candidates and would swamp it with noise).
  telemetry::Histogram& bucket_hist =
      telemetry::MetricsRegistry::Current().GetHistogram("lsh.bucket_size");
  for (const auto& table : buckets_) {
    for (const auto& [key, bucket] : table) {
      (void)key;
      if (bucket.size() >= 2) {
        bucket_hist.Record(static_cast<double>(bucket.size()));
      }
    }
  }

  PHOCUS_FAILPOINT("lsh.verify");
  const std::size_t shards = ResolveShards(options_.num_shards);
  struct ShardResult {
    std::vector<SimilarPair> pairs;
    std::size_t candidates = 0;
  };
  std::vector<ShardResult> shard_results(shards);
  // Every shard sweeps every colliding bucket but claims only the pairs it
  // owns (smaller id mod shards), deduplicating them across bands in its
  // private set. Enumeration order varies with the hash tables' history;
  // the owned candidate *set* — and hence `candidates` and the verified
  // pairs — does not.
  ThreadPool::Global().ParallelFor(shards, [&](std::size_t s) {
    ShardResult& out = shard_results[s];
    std::unordered_set<std::uint64_t> seen;
    for (const auto& table : buckets_) {
      for (const auto& [key, bucket] : table) {
        (void)key;
        if (bucket.size() < 2) continue;
        for (std::size_t b = 1; b < bucket.size(); ++b) {
          const std::uint32_t j = bucket[b];
          for (std::size_t a = 0; a < b; ++a) {
            const std::uint32_t i = bucket[a];
            if (i % shards != s) continue;
            const std::uint64_t pair_id =
                (static_cast<std::uint64_t>(i) << 32) | j;
            if (!seen.insert(pair_id).second) continue;
            ++out.candidates;
            const double sim = CosineSimilarity(vectors[i], vectors[j]);
            if (sim >= tau) {
              out.pairs.push_back({i, j, static_cast<float>(sim)});
            }
          }
        }
      }
    }
  });

  std::size_t candidates = 0;
  telemetry::Histogram& shard_hist =
      telemetry::MetricsRegistry::Current().GetHistogram(
          "lsh.shard_candidates");
  for (ShardResult& out : shard_results) {
    candidates += out.candidates;
    shard_hist.Record(static_cast<double>(out.candidates));
    pairs.insert(pairs.end(), out.pairs.begin(), out.pairs.end());
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const SimilarPair& x, const SimilarPair& y) {
              return x.first != y.first ? x.first < y.first
                                        : x.second < y.second;
            });
  if (stats != nullptr) {
    stats->vectors = m;
    stats->candidate_pairs = candidates;
    stats->output_pairs = pairs.size();
    stats->seconds = span.ElapsedSeconds();
  }
  internal::ReportPairSearch(span, m, candidates, pairs.size());
  return pairs;
}

}  // namespace phocus
