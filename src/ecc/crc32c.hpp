/// \file crc32c.hpp
/// \brief CRC-32C (Castagnoli) with software (slicing-by-8) and hardware
/// (SSE4.2 `crc32` instruction) implementations, plus syndrome-based
/// single-bit correction for the recovery path.
///
/// The paper picks CRC32C because (a) its generator polynomial has a (x+1)
/// factor, so all odd-weight errors and all burst errors up to 32 bits are
/// detected, (b) its minimum Hamming distance is 6 for codewords between 178
/// and 5243 bits, allowing up to 5-bit detection (or 2EC3ED / 1EC4ED
/// operating points), and (c) modern Intel/ARMv8 CPUs compute it in hardware
/// (paper §IV). Error *correction* exploits the CRC's GF(2) linearity to
/// locate a single flipped bit in one pass over the buffer; it runs only in
/// the rare recovery path, never on the per-access check path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace abft::ecc {

/// Which CRC32C kernel to run.
enum class CrcImpl : std::uint8_t {
  auto_detect,  ///< hardware if the CPU supports SSE4.2, else software
  software,     ///< slicing-by-8 table kernel
  hardware,     ///< SSE4.2 crc32 instruction (falls back to software if absent)
};

/// True when this binary can execute the SSE4.2 crc32 instruction.
[[nodiscard]] bool crc32c_hw_available() noexcept;

/// CRC-32C of \p len bytes at \p data, software kernel.
/// Standard convention: initial value 0xFFFFFFFF, final XOR 0xFFFFFFFF;
/// \p seed is a previously returned checksum for streaming continuation.
[[nodiscard]] std::uint32_t crc32c_sw(const void* data, std::size_t len,
                                      std::uint32_t seed = 0) noexcept;

/// CRC-32C, hardware kernel (software fallback when SSE4.2 is unavailable).
[[nodiscard]] std::uint32_t crc32c_hw(const void* data, std::size_t len,
                                      std::uint32_t seed = 0) noexcept;

/// CRC-32C through the process-wide dispatch (see set_crc32c_impl()).
[[nodiscard]] std::uint32_t crc32c(const void* data, std::size_t len,
                                   std::uint32_t seed = 0) noexcept;

/// Run codec for 4-word CRC groups, the dense-vector CRC32C codeword layout:
/// each group is four consecutive doubles whose 64-bit patterns, with their
/// low bytes cleared, are the CRC-32C message, and whose low bytes hold the
/// checksum (byte e of the CRC in the low byte of double e).
///
/// crc32c_check_groups() checks \p ngroups (at most 64) consecutive groups at
/// \p storage and returns a mask whose bit g is set when group g's stored
/// checksum differs from its recomputed one. When \p masked is not null it
/// receives every double with its low byte cleared (storage is never
/// written). crc32c_encode_groups() writes \p ngroups groups of \p logical
/// values, low bytes cleared and checksum bytes filled in, to \p storage.
///
/// Both run through the same dispatch as crc32c(): one indirect call per run,
/// the hardware kernel interleaving four groups' crc32 chains.
[[nodiscard]] std::uint64_t crc32c_check_groups(const double* storage, std::size_t ngroups,
                                                double* masked) noexcept;
void crc32c_encode_groups(const double* logical, std::size_t ngroups,
                          double* storage) noexcept;

/// A run of up to 64 matrix-row codewords: each row's CRC-32C message is,
/// element by element, the 8 bytes of the value followed by the column index
/// masked with \p col_mask (4 or 8 bytes, little-endian) — the per-row
/// element codeword of schemes::ElemCrc32c. The rows are a block of
/// consecutive rows of a column-major slab: element e of row k sits at slot
/// k + e * stride of \p values / \p cols, every row \p width elements wide,
/// so slot e is contiguous across the rows. One row alone (\p nrows 1) is
/// any strided row, a CSR row at stride 1 included.
template <class Col>
struct CrcRowRun {
  const double* values = nullptr;
  const Col* cols = nullptr;
  Col col_mask = 0;
  std::size_t nrows = 0;  ///< rows in the run, at most 64
  std::size_t stride = 1;
  std::size_t width = 0;
};

/// Write the CRC-32C of each row of \p run to crcs[0, run.nrows). Runs
/// through the same dispatch as crc32c(): one indirect call per run; the
/// hardware kernel runs several rows' crc32 chains side by side, slot by
/// slot, the software kernel row by row with slicing-by-8 steps.
void crc32c_rows(const CrcRowRun<std::uint32_t>& run, std::uint32_t* crcs) noexcept;
void crc32c_rows(const CrcRowRun<std::uint64_t>& run, std::uint32_t* crcs) noexcept;

/// Select the kernel used by crc32c() and the group and row runs. Benchmarks
/// use this to compare the software and hardware paths on the same machine.
void set_crc32c_impl(CrcImpl impl) noexcept;

/// Kernel currently selected (after auto-detection).
[[nodiscard]] CrcImpl current_crc32c_impl() noexcept;

/// Streaming accumulator for codewords assembled from multiple pieces
/// (e.g. a CSR row: value bytes and column bytes interleaved).
class Crc32cAccumulator {
 public:
  void update(const void* data, std::size_t len) noexcept {
    crc_ = crc32c(data, len, crc_);
  }

  void update_u64(std::uint64_t word) noexcept { update(&word, sizeof word); }
  void update_u32(std::uint32_t word) noexcept { update(&word, sizeof word); }

  [[nodiscard]] std::uint32_t value() const noexcept { return crc_; }
  void reset() noexcept { crc_ = 0; }

 private:
  std::uint32_t crc_ = 0;
};

/// Result of a single-bit CRC correction attempt.
struct CrcCorrection {
  bool corrected = false;
  /// Bit offset of the repaired flip inside the data buffer, or -1 when the
  /// flip was inside the stored checksum itself (data untouched).
  std::ptrdiff_t flipped_bit = -1;
};

/// Attempt single-bit correction of \p buffer against \p stored_crc.
///
/// The CRC is linear over GF(2), so each candidate flip position has a fixed
/// error syndrome; the implementation folds all of them into one backward
/// sweep over the buffer (O(bits) table steps, one verifying recomputation)
/// instead of recomputing an O(len) checksum per candidate. Also recognises
/// the case where the flip hit the stored checksum rather than the data.
/// Returns corrected=false when no single flip explains the mismatch
/// (2+ flips); the buffer is modified only on success.
[[nodiscard]] CrcCorrection crc32c_correct_single_bit(std::span<std::uint8_t> buffer,
                                                      std::uint32_t stored_crc) noexcept;

}  // namespace abft::ecc
