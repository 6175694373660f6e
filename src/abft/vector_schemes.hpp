/// \file vector_schemes.hpp
/// \brief Protection schemes for dense double-precision vectors (paper §VI-B,
/// Fig. 3): the redundancy lives in the least-significant mantissa bits, so
/// no extra storage is needed.
///
/// Layouts (storage representation of each codeword group):
///   - SED       : 1 double,  parity of bits[1..63] stored in mantissa bit 0;
///   - SECDED64  : 1 double,  Hamming SECDED over bits[8..63] (56 data bits),
///                 7 redundancy bits in the low byte (bit 7 unused, zero);
///   - SECDED128 : 2 doubles, SECDED over 2 x 59 data bits, 8 redundancy bits
///                 split across the 5 low mantissa bits of each double;
///   - CRC32C    : 4 doubles, CRC-32C over the 4 masked 64-bit patterns,
///                 one checksum byte in the low byte of each double.
///
/// Reads always *mask* the redundancy bits to zero before the value is used
/// in computation — the paper's mechanism for bounding the noise the scheme
/// injects into the solution (§VI-B). Group schemes trade per-element
/// redundancy for less noise per element.
///
/// Run codec. Besides the per-group encode_group / decode_group, every
/// scheme codes a *run* of n <= kVecRunGroups consecutive groups in one call:
///   - decode_run(storage, logical, n) checks the n groups and never writes
///     storage. It returns a mask whose bit i is set when group i failed its
///     check. When \p logical is not null it receives every group's masked
///     values; a failed group's values there are unspecified.
///   - encode_run(logical, storage, n) is encode_group on each of the groups.
/// A caller passes each failed group to decode_group, which corrects it,
/// repairs storage in place and yields the outcome to record. Run decode plus
/// that per-failure decode gives exactly the bits, repairs and outcomes of
/// decode_group over every group; only the clean path is batched. VecCrc32c
/// runs both directions through one out-of-line CRC32C kernel
/// (ecc::crc32c_check_groups / crc32c_encode_groups, one dispatched call per
/// run); the other schemes loop over their groups (GroupLoopRuns).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/bits.hpp"
#include "common/fault_log.hpp"
#include "ecc/crc32c.hpp"
#include "ecc/hamming.hpp"
#include "ecc/parity.hpp"
#include "ecc/scheme.hpp"

namespace abft {

/// Most groups one decode_run call may cover (its result is a 64-bit mask).
inline constexpr std::size_t kVecRunGroups = 64;

/// The run codec as a plain loop over \p VS's group codec. decode_run checks
/// each group on a copy of its storage, so nothing is repaired here.
template <class VS>
struct GroupLoopRuns {
  [[nodiscard]] static std::uint64_t decode_run(const double* storage, double* logical,
                                                std::size_t n) noexcept {
    constexpr std::size_t G = VS::kGroup;
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      double copy[G], scratch[G];
      std::copy_n(storage + i * G, G, copy);
      if (VS::decode_group(copy, logical != nullptr ? logical + i * G : scratch) !=
          CheckOutcome::ok) {
        failed |= std::uint64_t{1} << i;
      }
    }
    return failed;
  }

  static void encode_run(const double* logical, double* storage, std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) {
      VS::encode_group(logical + i * VS::kGroup, storage + i * VS::kGroup);
    }
  }
};

/// No protection; baseline storage.
struct VecNone : GroupLoopRuns<VecNone> {
  static constexpr std::size_t kGroup = 1;
  static constexpr unsigned kRedundancyBitsPerElement = 0;
  static constexpr ecc::Scheme kScheme = ecc::Scheme::none;

  static void encode_group(const double* logical, double* storage) noexcept {
    storage[0] = logical[0];
  }

  [[nodiscard]] static CheckOutcome decode_group(double* storage, double* logical) noexcept {
    logical[0] = storage[0];
    return CheckOutcome::ok;
  }

  [[nodiscard]] static double mask(double v) noexcept { return v; }
};

/// SED: parity bit in the mantissa LSB (Fig. 3a). Detects any odd number of
/// flips in the 64-bit pattern; corrects nothing.
struct VecSed : GroupLoopRuns<VecSed> {
  static constexpr std::size_t kGroup = 1;
  static constexpr unsigned kRedundancyBitsPerElement = 1;
  static constexpr ecc::Scheme kScheme = ecc::Scheme::sed;

  static void encode_group(const double* logical, double* storage) noexcept {
    std::uint64_t b = double_to_bits(logical[0]) & ~std::uint64_t{1};
    b |= ecc::sed_parity_double(b);
    storage[0] = bits_to_double(b);
  }

  [[nodiscard]] static CheckOutcome decode_group(double* storage, double* logical) noexcept {
    const std::uint64_t b = double_to_bits(storage[0]);
    logical[0] = bits_to_double(b & ~std::uint64_t{1});
    // Stored LSB equals the parity of the remaining bits iff the total
    // parity of the word is even.
    return parity64(b) == 0 ? CheckOutcome::ok : CheckOutcome::uncorrectable;
  }

  [[nodiscard]] static double mask(double v) noexcept {
    return bits_to_double(double_to_bits(v) & ~std::uint64_t{1});
  }
};

/// SECDED over one double (Fig. 3b): 56 data bits, redundancy in the low byte.
struct VecSecded64 : GroupLoopRuns<VecSecded64> {
  static constexpr std::size_t kGroup = 1;
  static constexpr unsigned kRedundancyBitsPerElement = 8;
  static constexpr ecc::Scheme kScheme = ecc::Scheme::secded64;
  using Code = ecc::HammingSecded<56>;
  static_assert(Code::kRedundancyBits <= 8);

  static void encode_group(const double* logical, double* storage) noexcept {
    const std::uint64_t b = double_to_bits(logical[0]) & ~std::uint64_t{0xFF};
    const std::uint32_t red = Code::encode({b >> 8});
    storage[0] = bits_to_double(b | red);
  }

  [[nodiscard]] static CheckOutcome decode_group(double* storage, double* logical) noexcept {
    std::uint64_t b = double_to_bits(storage[0]);
    Code::data_t data{b >> 8};
    const std::uint32_t stored = static_cast<std::uint32_t>(b & 0x7F);
    const auto res = Code::check_and_correct(data, stored);
    if (res.outcome == CheckOutcome::corrected) {
      b = (data[0] << 8) | (b & 0x80) | res.fixed_redundancy;
      storage[0] = bits_to_double(b);
    }
    logical[0] = bits_to_double(b & ~std::uint64_t{0xFF});
    return res.outcome;
  }

  [[nodiscard]] static double mask(double v) noexcept {
    return bits_to_double(double_to_bits(v) & ~std::uint64_t{0xFF});
  }
};

/// SECDED over two doubles (Fig. 3c layout, 128-bit flavour): 2 x 59 data
/// bits, 8 redundancy bits split across the 5 low mantissa bits of each.
struct VecSecded128 : GroupLoopRuns<VecSecded128> {
  static constexpr std::size_t kGroup = 2;
  static constexpr unsigned kRedundancyBitsPerElement = 5;
  static constexpr ecc::Scheme kScheme = ecc::Scheme::secded128;
  using Code = ecc::HammingSecded<118>;
  static_assert(Code::kRedundancyBits <= 10);

  static constexpr std::uint64_t kDataMask = ~std::uint64_t{0x1F};

  static void encode_group(const double* logical, double* storage) noexcept {
    const std::uint64_t b0 = double_to_bits(logical[0]) & kDataMask;
    const std::uint64_t b1 = double_to_bits(logical[1]) & kDataMask;
    const std::uint32_t red = Code::encode(pack(b0, b1));
    storage[0] = bits_to_double(b0 | (red & 0x1F));
    storage[1] = bits_to_double(b1 | ((red >> 5) & 0x1F));
  }

  [[nodiscard]] static CheckOutcome decode_group(double* storage, double* logical) noexcept {
    std::uint64_t b0 = double_to_bits(storage[0]);
    std::uint64_t b1 = double_to_bits(storage[1]);
    Code::data_t data = pack(b0 & kDataMask, b1 & kDataMask);
    const std::uint32_t stored = static_cast<std::uint32_t>(
        (b0 & 0x1F) | ((b1 & 0x1F) << 5));
    const auto res = Code::check_and_correct(data, stored);
    if (res.outcome == CheckOutcome::corrected) {
      if (res.corrected_data_bit >= 0) {
        const unsigned d = static_cast<unsigned>(res.corrected_data_bit);
        if (d < 59) {
          b0 = flip_bit(b0, d + 5);
        } else {
          b1 = flip_bit(b1, (d - 59) + 5);
        }
      }
      b0 = (b0 & kDataMask) | (res.fixed_redundancy & 0x1F);
      b1 = (b1 & kDataMask) | ((res.fixed_redundancy >> 5) & 0x1F);
      storage[0] = bits_to_double(b0);
      storage[1] = bits_to_double(b1);
    }
    logical[0] = bits_to_double(b0 & kDataMask);
    logical[1] = bits_to_double(b1 & kDataMask);
    return res.outcome;
  }

  [[nodiscard]] static double mask(double v) noexcept {
    return bits_to_double(double_to_bits(v) & kDataMask);
  }

 private:
  /// Pack two 59-bit payloads (bits 5..63 of each double) into 118 bits.
  [[nodiscard]] static constexpr Code::data_t pack(std::uint64_t b0,
                                                   std::uint64_t b1) noexcept {
    const std::uint64_t p0 = b0 >> 5;  // 59 bits
    const std::uint64_t p1 = b1 >> 5;  // 59 bits
    return {p0 | (p1 << 59), p1 >> 5};
  }
};

/// CRC-32C over four doubles (Fig. 3c): checksum over the four masked 64-bit
/// patterns, one checksum byte stored in the low byte of each double.
/// Codeword size 256 bits — inside the 178..5243-bit window where CRC32C has
/// minimum Hamming distance 6, so single-bit flips are brute-force
/// correctable and up to 5 flips detectable.
struct VecCrc32c {
  static constexpr std::size_t kGroup = 4;
  static constexpr unsigned kRedundancyBitsPerElement = 8;
  static constexpr ecc::Scheme kScheme = ecc::Scheme::crc32c;
  static constexpr std::uint64_t kDataMask = ~std::uint64_t{0xFF};

  static void encode_group(const double* logical, double* storage) noexcept {
    encode_run(logical, storage, 1);
  }

  [[nodiscard]] static std::uint64_t decode_run(const double* storage, double* logical,
                                                std::size_t n) noexcept {
    return ecc::crc32c_check_groups(storage, n, logical);
  }

  static void encode_run(const double* logical, double* storage, std::size_t n) noexcept {
    ecc::crc32c_encode_groups(logical, n, storage);
  }

  [[nodiscard]] static CheckOutcome decode_group(double* storage, double* logical) noexcept {
    if (decode_run(storage, logical, 1) == 0) return CheckOutcome::ok;
    // Cold path: locate and repair the flip.
    std::uint64_t b[kGroup];
    std::uint32_t stored = 0;
    for (std::size_t e = 0; e < kGroup; ++e) {
      b[e] = double_to_bits(storage[e]);
      stored |= static_cast<std::uint32_t>(b[e] & 0xFF) << (8 * e);
    }
    std::uint64_t masked[kGroup];
    for (std::size_t e = 0; e < kGroup; ++e) masked[e] = b[e] & kDataMask;
    const CheckOutcome outcome = correct(masked, stored, group_crc(masked))
                                     ? CheckOutcome::corrected
                                     : CheckOutcome::uncorrectable;
    if (outcome == CheckOutcome::corrected) {
      // Re-encode: data may have changed, and a flip inside the stored
      // checksum bytes is repaired by rewriting them.
      const std::uint32_t crc = group_crc(masked);
      for (std::size_t e = 0; e < kGroup; ++e) {
        storage[e] = bits_to_double(masked[e] | ((crc >> (8 * e)) & 0xFF));
      }
    }
    for (std::size_t e = 0; e < kGroup; ++e) {
      logical[e] = bits_to_double(masked[e]);
    }
    return outcome;
  }

  [[nodiscard]] static double mask(double v) noexcept {
    return bits_to_double(double_to_bits(v) & kDataMask);
  }

 private:
  [[nodiscard]] static std::uint32_t group_crc(const std::uint64_t (&b)[kGroup]) noexcept {
    return ecc::crc32c(b, sizeof(b));
  }

  /// Brute-force single-flip correction (cold path; runs only on mismatch).
  [[nodiscard]] static bool correct(std::uint64_t (&masked)[kGroup], std::uint32_t stored,
                                    std::uint32_t actual) noexcept {
    // Flip inside the stored checksum bytes themselves.
    if (std::popcount(actual ^ stored) == 1) return true;
    // Flip inside the data bits (the masked low bytes are not data).
    for (std::size_t e = 0; e < kGroup; ++e) {
      for (unsigned bit = 8; bit < 64; ++bit) {
        masked[e] = flip_bit(masked[e], bit);
        if (group_crc(masked) == stored) return true;
        masked[e] = flip_bit(masked[e], bit);
      }
    }
    return false;
  }
};

}  // namespace abft
