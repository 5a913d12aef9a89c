/// \file kernels_test.cc
/// Kernel-layer equivalence properties. The layer's contract is stronger
/// than "close": the scalar and AVX2 tables must agree *bit for bit* on
/// every kernel (that is what makes plan determinism hold across
/// PHOCUS_KERNELS values), so these tests compare exact doubles/floats —
/// no tolerances — across dimensions 1..257, unaligned buffer offsets,
/// zeros, denormals, and adversarial sign patterns.

#include "kernels/kernels.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "util/logging.h"
#include "util/rng.h"

namespace phocus {
namespace kernels {
namespace {

/// Both tables when the machine has AVX2, else just scalar (the equivalence
/// body then degenerates to a self-check, and the forcing tests still run).
std::vector<const KernelTable*> Tables() {
  std::vector<const KernelTable*> tables = {&ScalarTable()};
  if (const KernelTable* avx2 = Avx2Table()) tables.push_back(avx2);
  return tables;
}

bool HaveAvx2() { return Avx2Table() != nullptr; }

/// Fills with a mix of regular values, exact zeros, denormals, negatives,
/// and large-magnitude floats.
void FillAdversarial(float* out, std::size_t n, Rng& rng) {
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.NextBelow(8)) {
      case 0:
        out[i] = 0.0f;
        break;
      case 1:
        out[i] = std::numeric_limits<float>::denorm_min() *
                 static_cast<float>(1 + rng.NextBelow(7));
        break;
      case 2:
        out[i] = static_cast<float>(rng.Uniform(-1e6, 1e6));
        break;
      default:
        out[i] = static_cast<float>(rng.Normal());
        break;
    }
  }
}

/// The dims the properties sweep: every length 1..64 hits all tail shapes,
/// then a spread of larger sizes including the 8-multiples and primes.
std::vector<std::size_t> SweepDims() {
  std::vector<std::size_t> dims;
  for (std::size_t n = 1; n <= 64; ++n) dims.push_back(n);
  for (std::size_t n : {96, 127, 128, 129, 160, 255, 256, 257}) {
    dims.push_back(n);
  }
  return dims;
}

constexpr std::size_t kMaxOffset = 8;  // unaligned starts 0..7 floats in

TEST(KernelsEquivalence, DotNormDistanceBitIdentical) {
  if (!HaveAvx2()) GTEST_SKIP() << "no AVX2 on this machine";
  const KernelTable& scalar = ScalarTable();
  const KernelTable& avx2 = *Avx2Table();
  Rng rng(7);
  for (std::size_t n : SweepDims()) {
    for (std::size_t offset = 0; offset < kMaxOffset; ++offset) {
      std::vector<float> a(n + offset), b(n + offset);
      FillAdversarial(a.data(), a.size(), rng);
      FillAdversarial(b.data(), b.size(), rng);
      const float* pa = a.data() + offset;
      const float* pb = b.data() + offset;
      EXPECT_EQ(scalar.dot(pa, pb, n), avx2.dot(pa, pb, n))
          << "dot n=" << n << " offset=" << offset;
      EXPECT_EQ(scalar.squared_norm(pa, n), avx2.squared_norm(pa, n))
          << "squared_norm n=" << n << " offset=" << offset;
      EXPECT_EQ(scalar.squared_distance(pa, pb, n),
                avx2.squared_distance(pa, pb, n))
          << "squared_distance n=" << n << " offset=" << offset;
    }
  }
}

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(KernelsEquivalence, DotRowsBitIdentical) {
  // Row counts 0..9 cover no full 4-row pass, one, two, and every row
  // tail; the dims cover empty rows and every lane-tail shape.
  const KernelTable& scalar = ScalarTable();
  Rng rng(11);
  for (const KernelTable* table : Tables()) {
    for (std::size_t n : {0, 1, 7, 8, 9, 160, 161}) {
      for (std::size_t count = 0; count <= 9; ++count) {
        std::vector<float> a(n), rows(count * n);
        FillAdversarial(a.data(), n, rng);
        FillAdversarial(rows.data(), rows.size(), rng);
        // One sentinel past the end: the op writes exactly `count` outputs.
        std::vector<double> out(count + 1, -7.0);
        table->dot_rows(a.data(), rows.data(), count, n, out.data());
        for (std::size_t r = 0; r < count; ++r) {
          const float* row = rows.data() + r * n;
          EXPECT_EQ(Bits(scalar.dot(a.data(), row, n)), Bits(out[r]))
              << table->name << " n=" << n << " count=" << count
              << " r=" << r;
          EXPECT_EQ(Bits(table->dot(a.data(), row, n)), Bits(out[r]))
              << table->name << " n=" << n << " count=" << count
              << " r=" << r;
        }
        EXPECT_EQ(-7.0, out[count]) << table->name << " n=" << n;
      }
    }
  }
}

TEST(KernelsEquivalence, ScaleBitIdentical) {
  if (!HaveAvx2()) GTEST_SKIP() << "no AVX2 on this machine";
  const KernelTable& scalar = ScalarTable();
  const KernelTable& avx2 = *Avx2Table();
  Rng rng(11);
  for (std::size_t n : SweepDims()) {
    std::vector<float> src(n);
    FillAdversarial(src.data(), n, rng);
    const float s = static_cast<float>(rng.Normal());

    std::vector<float> a = src, b = src;
    scalar.scale_inplace(a.data(), n, s);
    avx2.scale_inplace(b.data(), n, s);
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), n * sizeof(float)))
        << "scale_inplace n=" << n;

    std::vector<float> out_a(n), out_b(n);
    scalar.scale_into(out_a.data(), src.data(), n, s);
    avx2.scale_into(out_b.data(), src.data(), n, s);
    EXPECT_EQ(0, std::memcmp(out_a.data(), out_b.data(), n * sizeof(float)))
        << "scale_into n=" << n;
  }
}

TEST(KernelsEquivalence, GainScansBitIdentical) {
  if (!HaveAvx2()) GTEST_SKIP() << "no AVX2 on this machine";
  const KernelTable& scalar = ScalarTable();
  const KernelTable& avx2 = *Avx2Table();
  Rng rng(13);
  for (std::size_t n : SweepDims()) {
    for (std::size_t offset = 0; offset < kMaxOffset; offset += 3) {
      std::vector<float> sim(n + offset), best(n + offset);
      std::vector<double> rel(n + offset);
      for (std::size_t i = 0; i < n + offset; ++i) {
        sim[i] = static_cast<float>(rng.UniformDouble());
        // Mix of ties (sim == best is not a gain), zeros, and regulars.
        best[i] = rng.NextBelow(4) == 0 ? sim[i]
                                        : static_cast<float>(rng.UniformDouble());
        if (rng.NextBelow(8) == 0) best[i] = 0.0f;
        rel[i] = rng.UniformDouble();
      }
      const float* ps = sim.data() + offset;
      const float* pb = best.data() + offset;
      const double* pr = rel.data() + offset;
      EXPECT_EQ(scalar.gain_scan(ps, pr, pb, n), avx2.gain_scan(ps, pr, pb, n))
          << "gain_scan n=" << n << " offset=" << offset;
      EXPECT_EQ(scalar.gain_scan_uniform(pr, pb, n),
                avx2.gain_scan_uniform(pr, pb, n))
          << "gain_scan_uniform n=" << n << " offset=" << offset;

      std::vector<float> best_a(best), best_b(best);
      EXPECT_EQ(
          scalar.gain_update(ps, pr, best_a.data() + offset, n),
          avx2.gain_update(ps, pr, best_b.data() + offset, n))
          << "gain_update n=" << n << " offset=" << offset;
      EXPECT_EQ(0, std::memcmp(best_a.data(), best_b.data(),
                               best_a.size() * sizeof(float)))
          << "gain_update best[] n=" << n << " offset=" << offset;

      best_a = best;
      best_b = best;
      EXPECT_EQ(scalar.gain_update_uniform(pr, best_a.data() + offset, n),
                avx2.gain_update_uniform(pr, best_b.data() + offset, n))
          << "gain_update_uniform n=" << n << " offset=" << offset;
      EXPECT_EQ(0, std::memcmp(best_a.data(), best_b.data(),
                               best_a.size() * sizeof(float)))
          << "gain_update_uniform best[] n=" << n << " offset=" << offset;
    }
  }
}

TEST(KernelsEquivalence, GainScanSparseBitIdentical) {
  if (!HaveAvx2()) GTEST_SKIP() << "no AVX2 on this machine";
  const KernelTable& scalar = ScalarTable();
  const KernelTable& avx2 = *Avx2Table();
  Rng rng(17);
  const std::size_t arena = 512;
  std::vector<float> best(arena);
  std::vector<double> rel(arena);
  for (std::size_t i = 0; i < arena; ++i) {
    best[i] = static_cast<float>(rng.UniformDouble());
    rel[i] = rng.UniformDouble();
  }
  for (std::size_t n : SweepDims()) {
    std::vector<std::uint32_t> idx(n);
    std::vector<float> val(n);
    for (std::size_t k = 0; k < n; ++k) {
      idx[k] = static_cast<std::uint32_t>(rng.NextBelow(arena));
      val[k] = static_cast<float>(rng.UniformDouble());
    }
    EXPECT_EQ(
        scalar.gain_scan_sparse(idx.data(), val.data(), n, rel.data(),
                                best.data()),
        avx2.gain_scan_sparse(idx.data(), val.data(), n, rel.data(),
                              best.data()))
        << "gain_scan_sparse n=" << n;
  }
}

TEST(KernelsEquivalence, WeightedSumBitIdentical) {
  if (!HaveAvx2()) GTEST_SKIP() << "no AVX2 on this machine";
  const KernelTable& scalar = ScalarTable();
  const KernelTable& avx2 = *Avx2Table();
  Rng rng(19);
  for (std::size_t n : SweepDims()) {
    std::vector<double> rel(n);
    std::vector<float> best(n);
    for (std::size_t i = 0; i < n; ++i) {
      rel[i] = rng.Normal();  // full-precision doubles: catches stray FMA
      best[i] = static_cast<float>(rng.UniformDouble());
    }
    EXPECT_EQ(scalar.weighted_sum(rel.data(), best.data(), n),
              avx2.weighted_sum(rel.data(), best.data(), n))
        << "weighted_sum n=" << n;
  }
}

TEST(KernelsEquivalence, SimHashSignatureWordsEqual) {
  if (!HaveAvx2()) GTEST_SKIP() << "no AVX2 on this machine";
  const KernelTable& scalar = ScalarTable();
  const KernelTable& avx2 = *Avx2Table();
  Rng rng(23);
  for (std::size_t dim : {1, 7, 8, 9, 31, 64, 127, 160, 257}) {
    // Bit counts around the word boundary and the 4-row batching boundary.
    for (std::size_t bits : {1, 3, 4, 5, 63, 64, 65, 128, 250, 256}) {
      std::vector<float> planes(bits * dim);
      std::vector<float> vec(dim);
      FillAdversarial(planes.data(), planes.size(), rng);
      FillAdversarial(vec.data(), dim, rng);
      const std::size_t words = (bits + 63) / 64;
      std::vector<std::uint64_t> sig_a(words, ~0ULL), sig_b(words, 0ULL);
      scalar.simhash_signature(planes.data(), bits, vec.data(), dim,
                               sig_a.data());
      avx2.simhash_signature(planes.data(), bits, vec.data(), dim,
                             sig_b.data());
      EXPECT_EQ(sig_a, sig_b) << "simhash dim=" << dim << " bits=" << bits;
    }
  }
}

TEST(KernelsEquivalence, DctAndQuantizeBitIdentical) {
  if (!HaveAvx2()) GTEST_SKIP() << "no AVX2 on this machine";
  const KernelTable& scalar = ScalarTable();
  const KernelTable& avx2 = *Avx2Table();
  Rng rng(29);
  for (int round = 0; round < 50; ++round) {
    float block[64], qtab[64];
    for (float& v : block) v = static_cast<float>(rng.Uniform(-128.0, 127.0));
    for (float& v : qtab) v = static_cast<float>(1 + rng.NextBelow(255));
    float dct_a[64], dct_b[64];
    scalar.dct8x8(block, dct_a);
    avx2.dct8x8(block, dct_b);
    EXPECT_EQ(0, std::memcmp(dct_a, dct_b, sizeof(dct_a))) << "dct " << round;

    std::int32_t out_a[64], out_b[64];
    scalar.quantize_block(dct_a, qtab, out_a);
    avx2.quantize_block(dct_a, qtab, out_b);
    EXPECT_EQ(0, std::memcmp(out_a, out_b, sizeof(out_a)))
        << "quantize " << round;
  }
}

TEST(KernelsEquivalence, QuantizeRoundsHalfAwayFromZeroExactly) {
  // The AVX2 trunc+frac emulation must match std::lround on the hard
  // cases: exact halves (both signs) and values one ulp below a half,
  // where the naive floor(|x| + 0.5f) trick rounds the wrong way.
  const float cases[] = {0.5f,   -0.5f,  1.5f,       -1.5f,  2.5f,
                         -2.5f,  0.49999997f, -0.49999997f, 1023.5f,
                         -1023.5f, 0.0f, -0.0f,      7.0f,   -7.0f};
  float dct[64] = {};
  float qtab[64];
  for (float& q : qtab) q = 1.0f;
  for (std::size_t i = 0; i < std::size(cases); ++i) dct[i] = cases[i];
  for (const KernelTable* table : Tables()) {
    std::int32_t out[64];
    table->quantize_block(dct, qtab, out);
    for (std::size_t i = 0; i < std::size(cases); ++i) {
      EXPECT_EQ(std::lround(cases[i]), out[i])
          << table->name << " case " << cases[i];
    }
  }
}

TEST(KernelsEquivalence, HammingExact) {
  Rng rng(31);
  for (std::size_t words : {1, 2, 3, 4, 7, 8}) {
    std::vector<std::uint64_t> a(words), b(words);
    for (std::size_t i = 0; i < words; ++i) {
      a[i] = rng.Next();
      b[i] = rng.Next();
    }
    int expected = 0;
    for (std::size_t i = 0; i < words; ++i) {
      expected += __builtin_popcountll(a[i] ^ b[i]);
    }
    for (const KernelTable* table : Tables()) {
      EXPECT_EQ(expected, table->hamming(a.data(), b.data(), words))
          << table->name << " words=" << words;
    }
  }
}

TEST(KernelsDispatch, ResolveTableHonorsForcing) {
  EXPECT_STREQ("scalar", ResolveTable("scalar").name);
  // Unset / empty pick the best available table.
  const char* best = HaveAvx2() ? "avx2" : "scalar";
  EXPECT_STREQ(best, ResolveTable(nullptr).name);
  EXPECT_STREQ(best, ResolveTable("").name);
  if (HaveAvx2()) {
    EXPECT_STREQ("avx2", ResolveTable("avx2").name);
  } else if (Avx2CompiledIn()) {
    // Compiled in but CPU lacks it: forcing must fail loudly, not silently
    // fall back to a table that would produce different plans than asked.
    EXPECT_THROW(ResolveTable("avx2"), CheckFailure);
  }
  EXPECT_THROW(ResolveTable("sse9"), CheckFailure);
  EXPECT_THROW(ResolveTable("AVX2"), CheckFailure);  // values are lowercase
}

TEST(KernelsDispatch, ActiveMatchesEnvironment) {
  const char* env = std::getenv("PHOCUS_KERNELS");
  if (env != nullptr && env[0] != '\0') {
    EXPECT_STREQ(env, ActiveIsaName());
  } else {
    EXPECT_STREQ(HaveAvx2() ? "avx2" : "scalar", ActiveIsaName());
  }
}

TEST(KernelsCounters, WrappersCountMachineIndependentUnits) {
  ResetOpCounts();
  SetOpCountingEnabled(true);
  std::vector<float> a(37, 0.5f), b(37, 0.25f);
  Dot(a.data(), b.data(), a.size());
  std::vector<double> rel(21, 1.0);
  std::vector<float> best(21, 0.0f);
  GainScanUniform(rel.data(), best.data(), rel.size());
  std::vector<float> planes(5 * 37, 1.0f);
  std::uint64_t sig[1];
  SimHashSignature(planes.data(), 5, a.data(), 37, sig);
  const OpCounts before_rows = SnapshotOpCounts();
  double out[5];
  DotRows(a.data(), planes.data(), 5, 37, out);
  // count·n, as five Dot calls would add.
  EXPECT_EQ(5u * 37u, SnapshotOpCounts().dot_elems - before_rows.dot_elems);
  SetOpCountingEnabled(false);
  // Counting disabled: these calls must not move any counter.
  Dot(a.data(), b.data(), a.size());
  DotRows(a.data(), planes.data(), 5, 37, out);

  const OpCounts counts = SnapshotOpCounts();
  EXPECT_EQ(37u + 5u * 37u, counts.dot_elems);
  EXPECT_EQ(21u, counts.gain_elems);
  EXPECT_EQ(5u * 37u, counts.simhash_macs);

  ResetOpCounts();
  EXPECT_EQ(0u, SnapshotOpCounts().dot_elems);
}

}  // namespace
}  // namespace kernels
}  // namespace phocus
