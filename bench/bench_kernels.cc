/// \file bench_kernels.cc
/// The kernel perf wall. Two modes:
///
///   bench_kernels [--bench-json=BENCH_kernels.json]
///       Times every kernel against both tables (scalar and, when the CPU
///       has it, AVX2) on a fixed fixture and reports per-op speedups.
///       Each op's wall is the fastest of kRepetitions timed loops.
///       Timing loops call the table function pointers directly, bypassing
///       the counting wrappers, so the numbers are pure kernel cost.
///
///   bench_kernels --kernels-smoke [--max-simhash-macs=N]
///       [--max-dot-elems=N] [--max-gain-elems=N] [--max-dct-blocks=N]
///       Replays the fixed fixture through the counting wrappers and
///       enforces the machine-independent operation counters against the
///       caps (exit 1 on breach). The counts depend only on the call
///       sequence — never on ISA, thread count, or machine speed — so the
///       `kernels_perf_smoke` ctest guards algorithmic-complexity
///       regressions that wall-clock smoke tests cannot see.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_support.h"
#include "kernels/kernels.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace phocus {
namespace {

// Fixture shape: embedding dimension matches the descriptor pipeline,
// signature width the LSH default sweep's largest setting, gain arenas a
// mid-sized subset. Changing any of these changes the checked-in
// work_per_call numbers — regenerate BENCH_kernels.json if you do.
constexpr std::size_t kDim = 160;
constexpr std::size_t kBits = 256;
constexpr std::size_t kDotRows = 64;  // the pair sweep's block; <= kBits
constexpr std::size_t kGainN = 4096;
constexpr std::size_t kArenaN = 8192;
constexpr std::size_t kHammingWords = 4;

struct Fixture {
  std::vector<float> vec_a, vec_b;          // kDim
  std::vector<float> planes;                // kBits × kDim
  std::vector<float> sim, best;             // kGainN (best over kArenaN)
  std::vector<double> rel;                  // kArenaN
  std::vector<std::uint32_t> idx;           // kGainN indices into kArenaN
  std::vector<float> dct_in;                // 64
  std::vector<float> qtab;                  // 64
  std::vector<std::uint64_t> sig_a, sig_b;  // kHammingWords
};

Fixture MakeFixture(std::uint64_t seed) {
  Rng rng(seed);
  Fixture f;
  f.vec_a.resize(kDim);
  f.vec_b.resize(kDim);
  for (float& v : f.vec_a) v = static_cast<float>(rng.Normal());
  for (float& v : f.vec_b) v = static_cast<float>(rng.Normal());
  f.planes.resize(kBits * kDim);
  for (float& v : f.planes) v = static_cast<float>(rng.Normal());
  f.sim.resize(kGainN);
  for (float& v : f.sim) v = static_cast<float>(rng.UniformDouble());
  f.best.resize(kArenaN);
  for (float& v : f.best) v = static_cast<float>(rng.Uniform(0.0, 0.5));
  f.rel.resize(kArenaN);
  for (double& v : f.rel) v = rng.UniformDouble();
  f.idx.resize(kGainN);
  for (std::uint32_t& v : f.idx) {
    v = static_cast<std::uint32_t>(rng.NextBelow(kArenaN));
  }
  f.dct_in.resize(64);
  for (float& v : f.dct_in) v = static_cast<float>(rng.Uniform(-128.0, 127.0));
  f.qtab.resize(64);
  for (float& v : f.qtab) v = static_cast<float>(1 + rng.NextBelow(120));
  f.sig_a.resize(kHammingWords);
  f.sig_b.resize(kHammingWords);
  for (std::uint64_t& v : f.sig_a) v = rng.Next();
  for (std::uint64_t& v : f.sig_b) v = rng.Next();
  return f;
}

double g_sink = 0.0;  // defeats dead-code elimination across timing loops

/// Timed loops per op; the fastest one is reported. A single loop let one
/// descheduling or frequency dip swing a ratio by ~2x between runs.
constexpr int kRepetitions = 5;

/// Times `body` for `calls` iterations, kRepetitions times, and queues one
/// kernel record. Returns the fastest loop's wall seconds.
template <typename Body>
double TimeOp(const std::string& op, const char* isa, std::size_t calls,
              std::size_t work_per_call, double scalar_wall, Body&& body) {
  double wall = 0.0;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    Stopwatch timer;
    for (std::size_t i = 0; i < calls; ++i) body();
    const double loop = timer.ElapsedSeconds();
    if (rep == 0 || loop < wall) wall = loop;
  }
  bench::KernelBenchRecord record;
  record.op = op;
  record.isa = isa;
  record.calls = calls;
  record.work_per_call = work_per_call;
  record.wall_seconds = wall;
  if (scalar_wall > 0.0 && wall > 0.0) {
    record.speedup_vs_scalar = scalar_wall / wall;
  }
  bench::RecordKernelBenchResult(record);
  const double per_call_ns = calls > 0 ? wall * 1e9 / calls : 0.0;
  std::printf("  %-22s %-7s %9.1f ns/call", op.c_str(), isa, per_call_ns);
  if (record.speedup_vs_scalar > 0.0) {
    std::printf("   %5.2fx vs scalar", record.speedup_vs_scalar);
  }
  std::printf("\n");
  return wall;
}

/// Runs the full micro-suite against one table; `scalar_walls` is empty for
/// the scalar pass and filled with its per-op walls, non-empty (consumed)
/// for the AVX2 pass. Returns the wall of each op in suite order.
std::vector<double> RunSuite(const kernels::KernelTable& table,
                             const Fixture& f,
                             const std::vector<double>& scalar_walls) {
  std::vector<double> walls;
  // The scalar wall of the op about to be timed (ops run in suite order).
  auto prior = [&] {
    return scalar_walls.empty() ? 0.0 : scalar_walls[walls.size()];
  };
  std::vector<float> best_copy = f.best;
  double dots[kDotRows];
  std::vector<std::uint64_t> sig(kBits / 64);
  float dct_out[64];
  std::int32_t quant_out[64];

  walls.push_back(TimeOp("dot", table.name, 200000, kDim, prior(), [&] {
    g_sink += table.dot(f.vec_a.data(), f.vec_b.data(), kDim);
  }));
  // One sweep block: a vector against kDotRows contiguous rows, as many
  // elements in all as the dot row above.
  walls.push_back(TimeOp("dot_rows", table.name, 200000 / kDotRows,
                         kDotRows * kDim, prior(), [&] {
                           table.dot_rows(f.vec_a.data(), f.planes.data(),
                                          kDotRows, kDim, dots);
                           g_sink += dots[kDotRows - 1];
                         }));
  walls.push_back(TimeOp(
      "simhash_signature", table.name, 2000, kBits * kDim, prior(), [&] {
        table.simhash_signature(f.planes.data(), kBits, f.vec_a.data(), kDim,
                                sig.data());
        g_sink += static_cast<double>(sig[0] & 1);
      }));
  walls.push_back(TimeOp("gain_scan", table.name, 20000, kGainN, prior(), [&] {
    g_sink += table.gain_scan(f.sim.data(), f.rel.data(), f.best.data(),
                              kGainN);
  }));
  walls.push_back(
      TimeOp("gain_scan_sparse", table.name, 20000, kGainN, prior(), [&] {
        g_sink += table.gain_scan_sparse(f.idx.data(), f.sim.data(), kGainN,
                                         f.rel.data(), f.best.data());
      }));
  walls.push_back(
      TimeOp("gain_update", table.name, 20000, kGainN, prior(), [&] {
        g_sink += table.gain_update(f.sim.data(), f.rel.data(),
                                    best_copy.data(), kGainN);
      }));
  walls.push_back(TimeOp("dct8x8", table.name, 200000, 1, prior(), [&] {
    table.dct8x8(f.dct_in.data(), dct_out);
    g_sink += dct_out[0];
  }));
  walls.push_back(
      TimeOp("quantize_block", table.name, 200000, 1, prior(), [&] {
        table.quantize_block(f.dct_in.data(), f.qtab.data(), quant_out);
        g_sink += quant_out[0];
      }));
  walls.push_back(
      TimeOp("hamming", table.name, 2000000, kHammingWords, prior(), [&] {
        g_sink += table.hamming(f.sig_a.data(), f.sig_b.data(), kHammingWords);
      }));
  return walls;
}

int RunBench() {
  bench::PrintHeader("bench_kernels",
                     "the kernel perf wall (docs/PERFORMANCE.md)");
  bench::SetBenchFixture("kernels_dim160_bits256_gain4096_seed99");
  const Fixture f = MakeFixture(99);

  std::printf("scalar table:\n");
  const std::vector<double> scalar_walls =
      RunSuite(kernels::ScalarTable(), f, {});

  const kernels::KernelTable* avx2 = kernels::Avx2Table();
  if (avx2 != nullptr) {
    std::printf("avx2 table:\n");
    RunSuite(*avx2, f, scalar_walls);
  } else {
    std::printf("avx2 table: unavailable on this machine (compiled_in=%d)\n",
                kernels::Avx2CompiledIn() ? 1 : 0);
  }
  std::printf("(sink %.6f)\n", g_sink);

  bench::ExportBenchJsonIfRequested("kernels");
  bench::ExportTelemetryIfRequested();
  return 0;
}

/// Replays a fixed call sequence through the counting wrappers and checks
/// the machine-independent counters against the caps.
int RunSmoke(std::uint64_t max_simhash_macs, std::uint64_t max_dot_elems,
             std::uint64_t max_gain_elems, std::uint64_t max_dct_blocks) {
  const Fixture f = MakeFixture(99);
  std::vector<float> best_copy = f.best;
  std::vector<std::uint64_t> sig(kBits / 64);
  float dct_out[64];
  std::int32_t quant_out[64];

  kernels::ResetOpCounts();
  kernels::SetOpCountingEnabled(true);
  Stopwatch timer;
  for (int i = 0; i < 100; ++i) {
    kernels::SimHashSignature(f.planes.data(), kBits, f.vec_a.data(), kDim,
                              sig.data());
    g_sink += kernels::Dot(f.vec_a.data(), f.vec_b.data(), kDim);
    g_sink += kernels::GainScan(f.sim.data(), f.rel.data(), f.best.data(),
                                kGainN);
    g_sink += kernels::GainScanSparse(f.idx.data(), f.sim.data(), kGainN,
                                      f.rel.data(), f.best.data());
    g_sink += kernels::GainUpdate(f.sim.data(), f.rel.data(), best_copy.data(),
                                  kGainN);
    kernels::ForwardDct8x8(f.dct_in.data(), dct_out);
    kernels::QuantizeBlock8x8(f.dct_in.data(), f.qtab.data(), quant_out);
    g_sink += kernels::Hamming(f.sig_a.data(), f.sig_b.data(), kHammingWords);
  }
  const double wall = timer.ElapsedSeconds();
  kernels::SetOpCountingEnabled(false);
  const kernels::OpCounts counts = kernels::SnapshotOpCounts();

  std::printf("kernels smoke (isa=%s): wall=%.3fs sink=%.4f\n",
              kernels::ActiveIsaName(), wall, g_sink);
  std::printf("  simhash_macs=%llu dot_elems=%llu gain_elems=%llu "
              "dct_blocks=%llu quant_blocks=%llu hamming_words=%llu\n",
              static_cast<unsigned long long>(counts.simhash_macs),
              static_cast<unsigned long long>(counts.dot_elems),
              static_cast<unsigned long long>(counts.gain_elems),
              static_cast<unsigned long long>(counts.dct_blocks),
              static_cast<unsigned long long>(counts.quant_blocks),
              static_cast<unsigned long long>(counts.hamming_words));

  bool ok = true;
  auto enforce = [&](const char* name, std::uint64_t got, std::uint64_t cap) {
    if (got == 0 || got > cap) {
      std::printf("FAIL: %s=%llu outside (0, %llu]\n", name,
                  static_cast<unsigned long long>(got),
                  static_cast<unsigned long long>(cap));
      ok = false;
    }
  };
  enforce("simhash_macs", counts.simhash_macs, max_simhash_macs);
  enforce("dot_elems", counts.dot_elems, max_dot_elems);
  enforce("gain_elems", counts.gain_elems, max_gain_elems);
  enforce("dct_blocks", counts.dct_blocks, max_dct_blocks);
  std::printf(ok ? "kernels smoke OK\n" : "kernels smoke FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace phocus

int main(int argc, char** argv) {
  phocus::bench::ParseBenchFlags(&argc, argv);
  bool smoke = false;
  // Caps default to the exact counts the fixed fixture produces; the ctest
  // registration passes them explicitly so a drive-by fixture change that
  // inflates the op counts fails loudly.
  std::uint64_t max_simhash_macs = 100ULL * 256 * 160;
  std::uint64_t max_dot_elems = 100ULL * 160;
  std::uint64_t max_gain_elems = 100ULL * 3 * 4096;
  std::uint64_t max_dct_blocks = 100;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto parse = [&](const char* prefix, std::uint64_t* out) {
      const std::size_t len = std::strlen(prefix);
      if (std::strncmp(arg, prefix, len) == 0) {
        *out = std::strtoull(arg + len, nullptr, 10);
        return true;
      }
      return false;
    };
    if (std::strcmp(arg, "--kernels-smoke") == 0) {
      smoke = true;
    } else if (parse("--max-simhash-macs=", &max_simhash_macs) ||
               parse("--max-dot-elems=", &max_dot_elems) ||
               parse("--max-gain-elems=", &max_gain_elems) ||
               parse("--max-dct-blocks=", &max_dct_blocks)) {
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      return 2;
    }
  }
  if (smoke) {
    return phocus::RunSmoke(max_simhash_macs, max_dot_elems, max_gain_elems,
                            max_dct_blocks);
  }
  return phocus::RunBench();
}
