/// \file spmv_chunk.hpp
/// \brief The SpMV chunk geometry shared by the row cursors
/// (protected_csr/sell.hpp) and the one SpMV pass driver
/// (protected_kernels.hpp).
#pragma once

#include <cstddef>

namespace abft::detail {

/// Rows per work-sharing chunk of the SpMV pass driver (y codeword groups of
/// 1/2/4 entries divide it evenly). SELL-C-sigma's scatter step relies on
/// this granularity: a permutation confined to aligned kSpmvChunkRows-row
/// blocks keeps every finished row sum inside the chunk that computed it
/// (see ProtectedSell).
inline constexpr std::size_t kSpmvChunkRows = 64;

}  // namespace abft::detail
