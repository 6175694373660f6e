/// \file simd.hpp
/// \brief Batch clean-codeword predicates for the per-element schemes, with a
/// runtime-dispatched AVX2 path (mirroring the CRC32C sw/hw dispatch in
/// crc32c.hpp).
///
/// The slab SpMV cursors touch whole unit-stride runs of (value, column)
/// element codewords. On fault-free data — the overwhelmingly common case —
/// the only thing a run of per-element SED/SECDED decodes produces is "all
/// clean", so the hot path collapses to one question: *is every codeword in
/// this run intact?* These predicates answer it over the whole run at once;
/// the caller falls back to the per-element decoder (identical records,
/// corrections and check accounting) only when a run reports dirty.
///
/// Two implementations sit behind each predicate:
///   - scalar: straight loop over the same codeword math the schemes use;
///   - vector: AVX2, four codewords per iteration, parity/syndrome reduction
///     by lane-wise shift-XOR folds (compiled with a target attribute, so the
///     library builds without -mavx2 and selects the kernel by CPUID).
/// Both compute the same predicate bit-for-bit, so which one runs is
/// unobservable in results, fault logs and check counts.
#pragma once

#include <cstddef>
#include <cstdint>

namespace abft::ecc {

/// Which batch-predicate implementation to use (mirrors CrcImpl).
enum class SimdImpl {
  auto_detect,  ///< vector when the CPU supports AVX2, else scalar
  scalar,       ///< force the scalar loops
  vector,       ///< force the AVX2 kernels (requires simd_avx2_available())
};

/// True when this build carries the AVX2 kernels and the CPU reports AVX2.
[[nodiscard]] bool simd_avx2_available() noexcept;

/// Select the implementation (vector silently degrades to scalar when AVX2
/// is unavailable, like set_crc32c_impl's hardware fallback).
void set_simd_impl(SimdImpl impl) noexcept;
[[nodiscard]] SimdImpl current_simd_impl() noexcept;

/// True iff every (values[i], cols[i]) element for i in [0, n) is a clean
/// schemes::ElemSed codeword at the given index width: the parity of the 64
/// value bits XOR the column word (stored parity bit included) is even.
[[nodiscard]] bool sed_elements_clean(const double* values, const std::uint32_t* cols,
                                      std::size_t n) noexcept;
[[nodiscard]] bool sed_elements_clean(const double* values, const std::uint64_t* cols,
                                      std::size_t n) noexcept;

/// True iff every (values[i], cols[i]) element for i in [0, n) is a clean
/// schemes::ElemSecded codeword at the given index width: the SECDED(96,88)
/// — respectively SECDED(128,120) — redundancy recomputed over the value bits
/// plus the masked column equals the byte stored in the column's top 8 bits.
[[nodiscard]] bool secded_elements_clean(const double* values,
                                         const std::uint32_t* cols,
                                         std::size_t n) noexcept;
[[nodiscard]] bool secded_elements_clean(const double* values,
                                         const std::uint64_t* cols,
                                         std::size_t n) noexcept;

}  // namespace abft::ecc
