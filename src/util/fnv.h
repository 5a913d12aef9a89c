#ifndef PHOCUS_UTIL_FNV_H_
#define PHOCUS_UTIL_FNV_H_

#include <cstdint>
#include <string_view>

/// \file fnv.h
/// 64-bit FNV-1a, the one byte hash behind corpus fingerprints, WAL
/// checksums, plan-cache keys, vault object names and name-seeded RNG
/// streams.

namespace phocus {

/// The standard FNV-1a 64 offset basis.
inline constexpr std::uint64_t kFnv64Basis = 14695981039346656037ULL;

/// The standard basis with its last digit dropped. Scene styles (and through
/// them every generated corpus), vault object names on disk, failpoint RNG
/// streams and document term axes were all derived from it, so those call
/// sites keep it: their outputs are pinned by checksums, fixtures and
/// existing vaults. New code uses kFnv64Basis.
inline constexpr std::uint64_t kFnv64TruncatedBasis = 1469598103934665603ULL;

/// FNV-1a 64 over `bytes`, starting from `basis`.
inline std::uint64_t Fnv1a64(std::string_view bytes, std::uint64_t basis) {
  std::uint64_t hash = basis;
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace phocus

#endif  // PHOCUS_UTIL_FNV_H_
