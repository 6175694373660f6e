/// \file spmv_chunk.hpp
/// \brief The SpMV chunk geometry and raw x-load marker shared by the row
/// cursors (protected_csr/ell/sell.hpp) and the one SpMV pass driver
/// (protected_kernels.hpp).
#pragma once

#include <cstddef>
#include <type_traits>

namespace abft::detail {

/// x-load callable over a bare dense array (no vector scheme, no group
/// decode). The type is a marker as much as a closure: cursors test
/// kIsRawXLoad to know x needs no per-element transform, which is what
/// licenses the SIMD gather on the ELL slab-column fast path (a protected x
/// is read through a masking load that the gather kernel does not apply).
struct RawXLoad {
  const double* x;
  template <class C>
  [[nodiscard]] double operator()(C c) const noexcept {
    return x[static_cast<std::size_t>(c)];
  }
};

template <class XLoad>
inline constexpr bool kIsRawXLoad = std::is_same_v<std::remove_cvref_t<XLoad>, RawXLoad>;

/// Rows per work-sharing chunk of the SpMV pass driver (y codeword groups of
/// 1/2/4 entries divide it evenly). SELL-C-sigma's scatter step relies on
/// this granularity: a permutation confined to aligned kSpmvChunkRows-row
/// blocks keeps every finished row sum inside the chunk that computed it
/// (see ProtectedSell).
inline constexpr std::size_t kSpmvChunkRows = 64;

}  // namespace abft::detail
