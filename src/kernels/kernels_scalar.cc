#include "kernels/kernels.h"
#include "kernels/kernels_generic.h"
#include "kernels/table_impl.h"

/// \file kernels_scalar.cc
/// The portable kernel build: the generic blocked implementations bound
/// into a KernelTable. Compiled without ISA flags and (see CMakeLists.txt)
/// without auto-vectorization, so the perf wall's scalar baseline measures
/// genuine scalar throughput on every machine.

namespace phocus {
namespace kernels {
namespace {

void Dct8x8Scalar(const float* input, float* output) {
  const internal::DctTables& t = internal::GetDctTables();
  float temp[64];
  // Rows: temp[y][k] = alpha_k · Σ_n input[y][n] · cos[k][n].
  for (int y = 0; y < 8; ++y) {
    for (int k = 0; k < 8; ++k) {
      float acc = 0.0f;
      for (int n = 0; n < 8; ++n) acc += input[y * 8 + n] * t.cos_kn[k][n];
      temp[y * 8 + k] = t.alpha[k] * acc;
    }
  }
  // Columns: output[k][x] = alpha_k · Σ_n temp[n][x] · cos[k][n].
  for (int x = 0; x < 8; ++x) {
    for (int k = 0; k < 8; ++k) {
      float acc = 0.0f;
      for (int n = 0; n < 8; ++n) acc += temp[n * 8 + x] * t.cos_kn[k][n];
      output[k * 8 + x] = t.alpha[k] * acc;
    }
  }
}

}  // namespace

namespace internal {

const KernelTable& ScalarTableImpl() {
  static const KernelTable table = {
      "scalar",
      generic::DotImpl,
      generic::DotRowsImpl,
      generic::SquaredNormImpl,
      generic::SquaredDistanceImpl,
      generic::ScaleInPlaceImpl,
      generic::ScaleIntoImpl,
      generic::WeightedSumImpl,
      generic::GainScanImpl,
      generic::GainScanUniformImpl,
      generic::GainUpdateImpl,
      generic::GainUpdateUniformImpl,
      generic::GainScanSparseImpl,
      generic::SimHashSignatureImpl,
      Dct8x8Scalar,
      generic::QuantizeBlockImpl,
      generic::HammingImpl,
  };
  return table;
}

}  // namespace internal
}  // namespace kernels
}  // namespace phocus
