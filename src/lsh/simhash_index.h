#ifndef PHOCUS_LSH_SIMHASH_INDEX_H_
#define PHOCUS_LSH_SIMHASH_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "embedding/vector_ops.h"
#include "lsh/similar_pairs.h"
#include "lsh/simhash.h"

/// \file simhash_index.h
/// A persistent, incrementally extensible SimHash banding index — the
/// parallel engine behind `LshPairsAbove`.
///
/// The index retains one packed signature per vector plus, for every band,
/// a hash table from band key to the (ascending) list of vector ids that
/// share it. `Add` hashes only the vectors appended since the last call
/// (fanned across the global thread pool) and extends the band tables;
/// `PairsAbove` enumerates colliding-bucket candidates, deduplicates them
/// across bands in per-shard hash sets (a pair (i, j) is owned by shard
/// i % num_shards, so ownership — and therefore the deduplicated candidate
/// set — is independent of thread count and shard count), verifies each
/// candidate with exact cosine, and merges the shard outputs into one
/// (first, second)-sorted vector. The result is bit-identical to the
/// serial reference (`LshPairsAboveSerial`) for any PHOCUS_NUM_THREADS and
/// any shard count.

namespace phocus {

class SimHashIndex {
 public:
  /// \param dimension embedding dimension of every indexed vector
  /// \param options   banding layout; `bands` must divide `num_bits` and
  ///                  rows per band must fit one 64-bit word
  SimHashIndex(std::size_t dimension, const LshPairFinderOptions& options);

  /// Extends the index to cover `vectors`: the first `size()` entries must
  /// be the vectors already indexed (they are not re-read); entries
  /// [size(), vectors.size()) are hashed — in parallel — and inserted into
  /// the band tables. Growing an index one batch at a time yields exactly
  /// the same index as one bulk Add.
  void Add(const std::vector<Embedding>& vectors);

  /// All τ-similar pairs among the indexed vectors. `vectors` must be the
  /// full indexed set (signatures prune candidates; verification needs the
  /// exact embeddings).
  ///
  /// `stats->seconds` covers this call only (not Add); all other stat
  /// fields are deterministic across thread and shard counts.
  std::vector<SimilarPair> PairsAbove(const std::vector<Embedding>& vectors,
                                      double tau,
                                      PairSearchStats* stats = nullptr) const;

  std::size_t size() const { return signatures_.size(); }
  std::size_t dimension() const { return hasher_.dimension(); }
  const LshPairFinderOptions& options() const { return options_; }
  int rows_per_band() const { return rows_; }

 private:
  std::uint64_t BandKey(const SimHashSignature& signature, int band) const;

  LshPairFinderOptions options_;
  int rows_;
  SimHasher hasher_;
  std::vector<SimHashSignature> signatures_;
  /// buckets_[band]: band key -> ids sharing it, ascending (Add appends in
  /// id order, and batches only ever grow the id space).
  std::vector<std::unordered_map<std::uint64_t, std::vector<std::uint32_t>>>
      buckets_;
};

}  // namespace phocus

#endif  // PHOCUS_LSH_SIMHASH_INDEX_H_
