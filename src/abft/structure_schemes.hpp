/// \file structure_schemes.hpp
/// \brief Protection schemes for *structural* index arrays, parameterized on
/// the index width (paper §VI-A1, Fig. 2; §V-B for the 64-bit extension).
///
/// A sparse format's structure is described by arrays of small unsigned
/// integers whose most-significant bits are free to hold redundancy:
///   - CSR: the row-pointer vector (offsets bounded by NNZ);
///   - ELL/SELL: slice widths, row lengths and the row permutation (bounded
///     by the padded width or nrows, which are tiny — every spare bit is
///     available).
/// The same grouped codecs protect either array; only the bound that the
/// caller must enforce against kValueMask differs per format.
///
/// At 32-bit width 4 spare bits per entry are reclaimed (28 usable value
/// bits); at 64-bit width a whole spare byte is available (56 usable bits),
/// so codewords need fewer entries per group:
///
///   scheme      32-bit group x bits      64-bit group x bits
///   ---------   ----------------------   ----------------------
///   SED         1 x 31 (parity bit 31)   1 x 63 (parity bit 63)
///   SECDED      2 x 28                   1 x 56
///   SECDED128   4 x 28                   2 x 56
///   CRC32C      8 x 28 (4 bits/entry)    4 x 56 (8 bits/entry)
///
/// All encode/decode logic lives once in the `schemes::Struct*` templates
/// below; group sizes and spare-bit counts are the only per-width differences
/// and are derived from the Index type. The CSR stack spells them with
/// row-pointer names (`RowSed`, `Row64Secded`, ...), aliases at the end of
/// this file. The caller-enforced bound for row pointers is NNZ <= kValueMask
/// (NNZ < 2^28 for the grouped 32-bit schemes, < 2^56 at 64-bit width).
///
/// decode_group() returns *masked* values (top bits zeroed); corrections are
/// written back into storage.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "common/bits.hpp"
#include "common/fault_log.hpp"
#include "ecc/crc32c.hpp"
#include "ecc/hamming.hpp"
#include "ecc/parity.hpp"
#include "ecc/scheme.hpp"

namespace abft::schemes {

namespace detail {

/// Spare (redundancy) bits reclaimed from the top of each structure entry by
/// the grouped schemes: a nibble at 32-bit width, a byte at 64-bit width
/// (paper Fig. 2b vs. §V-B).
template <class Index>
inline constexpr unsigned kStructSpareBits = sizeof(Index) == 4 ? 4 : 8;

}  // namespace detail

/// No protection (baseline).
template <class Index>
struct StructNone {
  using index_type = Index;
  static constexpr std::size_t kGroup = 1;
  static constexpr unsigned kValueBits = std::numeric_limits<Index>::digits;
  static constexpr Index kValueMask = ~Index{0};
  static constexpr ecc::Scheme kScheme = ecc::Scheme::none;

  static void encode_group(const Index* values, Index* storage) noexcept {
    storage[0] = values[0];
  }

  [[nodiscard]] static CheckOutcome decode_group(Index* storage, Index* values) noexcept {
    values[0] = storage[0];
    return CheckOutcome::ok;
  }
};

/// SED: parity in the top bit of each entry (Fig. 2a).
template <class Index>
struct StructSed {
  using index_type = Index;
  static constexpr std::size_t kGroup = 1;
  static constexpr unsigned kValueBits = std::numeric_limits<Index>::digits - 1;
  static constexpr Index kValueMask = static_cast<Index>(~Index{0} >> 1);
  static constexpr ecc::Scheme kScheme = ecc::Scheme::sed;

  static void encode_group(const Index* values, Index* storage) noexcept {
    const Index v = values[0] & kValueMask;
    storage[0] =
        static_cast<Index>(v | (static_cast<Index>(ecc::sed_parity_entry(v)) << kValueBits));
  }

  [[nodiscard]] static CheckOutcome decode_group(Index* storage, Index* values) noexcept {
    values[0] = storage[0] & kValueMask;
    return parity64(storage[0]) == 0 ? CheckOutcome::ok : CheckOutcome::uncorrectable;
  }
};

/// SECDED across a group of entries: the masked values are concatenated into
/// one extended-Hamming data word; the redundancy bits are split across the
/// group's spare top bits. Fig. 2b at 32-bit width (2 x 28 = 56 data bits);
/// at 64-bit width a *single* entry already fits 56 data bits + 8 redundancy
/// bits — an advantage of the wide-index layout (§V-B).
template <class Index, std::size_t Group>
struct StructSecdedGroup {
  using index_type = Index;
  static constexpr std::size_t kGroup = Group;
  static constexpr unsigned kSpareBits = detail::kStructSpareBits<Index>;
  static constexpr unsigned kValueBits = std::numeric_limits<Index>::digits - kSpareBits;
  static constexpr Index kValueMask = static_cast<Index>((Index{1} << kValueBits) - 1);
  static constexpr std::uint32_t kSpareMask = (1u << kSpareBits) - 1;
  using Code = ecc::HammingSecded<static_cast<unsigned>(Group) * kValueBits>;
  static_assert(Code::kRedundancyBits <= Group * kSpareBits,
                "redundancy must fit in the group's spare bits");
  static constexpr ecc::Scheme kScheme =
      Code::kDataBits <= 64 ? ecc::Scheme::secded64 : ecc::Scheme::secded128;

  static void encode_group(const Index* values, Index* storage) noexcept {
    Index v[kGroup];
    for (std::size_t e = 0; e < kGroup; ++e) v[e] = values[e] & kValueMask;
    const std::uint32_t red = Code::encode(pack(v));
    write_back(v, red, storage);
  }

  [[nodiscard]] static CheckOutcome decode_group(Index* storage, Index* values) noexcept {
    Index v[kGroup];
    std::uint32_t stored = 0;
    for (std::size_t e = 0; e < kGroup; ++e) {
      v[e] = storage[e] & kValueMask;
      stored |= (static_cast<std::uint32_t>(storage[e] >> kValueBits) & kSpareMask)
                << (kSpareBits * e);
    }
    typename Code::data_t data = pack(v);
    const auto res = Code::check_and_correct(data, stored & low_mask32(Code::kRedundancyBits));
    if (res.outcome == CheckOutcome::corrected) {
      unpack(data, v);
      write_back(v, res.fixed_redundancy, storage);
    }
    for (std::size_t e = 0; e < kGroup; ++e) values[e] = v[e];
    return res.outcome;
  }

 private:
  static void write_back(const Index (&v)[kGroup], std::uint32_t red,
                         Index* storage) noexcept {
    for (std::size_t e = 0; e < kGroup; ++e) {
      storage[e] = static_cast<Index>(
          v[e] | (static_cast<Index>((red >> (kSpareBits * e)) & kSpareMask)
                  << kValueBits));
    }
  }

  /// Concatenate the masked entries little-endian: entry e occupies data bits
  /// [kValueBits*e, kValueBits*(e+1)).
  [[nodiscard]] static constexpr typename Code::data_t pack(
      const Index (&v)[kGroup]) noexcept {
    typename Code::data_t data{};
    for (std::size_t e = 0; e < kGroup; ++e) {
      const std::size_t bit = kValueBits * e;
      data[bit / 64] |= static_cast<std::uint64_t>(v[e]) << (bit % 64);
      if (bit % 64 != 0 && bit % 64 + kValueBits > 64) {
        data[bit / 64 + 1] |= static_cast<std::uint64_t>(v[e]) >> (64 - bit % 64);
      }
    }
    return data;
  }

  static constexpr void unpack(const typename Code::data_t& data,
                               Index (&v)[kGroup]) noexcept {
    for (std::size_t e = 0; e < kGroup; ++e) {
      const std::size_t bit = kValueBits * e;
      std::uint64_t x = data[bit / 64] >> (bit % 64);
      if (bit % 64 != 0 && bit % 64 + kValueBits > 64) {
        x |= data[bit / 64 + 1] << (64 - bit % 64);
      }
      v[e] = static_cast<Index>(x) & kValueMask;
    }
  }
};

/// "SECDED64" point in the paper's trade-off: the smallest group whose
/// codeword fits one 64-bit-aligned data word.
template <class Index>
using StructSecded = StructSecdedGroup<Index, sizeof(Index) == 4 ? 2 : 1>;

/// "SECDED128": twice the data bits per codeword, amortizing redundancy.
template <class Index>
using StructSecded128 = StructSecdedGroup<Index, sizeof(Index) == 4 ? 4 : 2>;

/// CRC32C across a group of entries: the 32 checksum bits are split evenly
/// over the group's spare top bits (8 x 4 bits at 32-bit width, 4 x 8 bits
/// at 64-bit width). The checksum covers the masked entries; single-bit
/// flips are brute-force corrected.
template <class Index>
struct StructCrc32c {
  using index_type = Index;
  static constexpr std::size_t kGroup = sizeof(Index) == 4 ? 8 : 4;
  static constexpr unsigned kSpareBits = detail::kStructSpareBits<Index>;
  static_assert(kGroup * kSpareBits == 32, "checksum must exactly fill the spare bits");
  static constexpr unsigned kValueBits = std::numeric_limits<Index>::digits - kSpareBits;
  static constexpr Index kValueMask = static_cast<Index>((Index{1} << kValueBits) - 1);
  static constexpr std::uint32_t kSpareMask = (1u << kSpareBits) - 1;
  static constexpr ecc::Scheme kScheme = ecc::Scheme::crc32c;

  static void encode_group(const Index* values, Index* storage) noexcept {
    Index v[kGroup];
    for (std::size_t e = 0; e < kGroup; ++e) v[e] = values[e] & kValueMask;
    write_back(v, ecc::crc32c(v, sizeof(v)), storage);
  }

  [[nodiscard]] static CheckOutcome decode_group(Index* storage, Index* values) noexcept {
    Index v[kGroup];
    std::uint32_t stored = 0;
    for (std::size_t e = 0; e < kGroup; ++e) {
      v[e] = storage[e] & kValueMask;
      stored |= (static_cast<std::uint32_t>(storage[e] >> kValueBits) & kSpareMask)
                << (kSpareBits * e);
    }
    const std::uint32_t actual = ecc::crc32c(v, sizeof(v));
    CheckOutcome outcome = CheckOutcome::ok;
    if (actual != stored) {
      outcome = correct(v, stored, actual) ? CheckOutcome::corrected
                                           : CheckOutcome::uncorrectable;
      if (outcome == CheckOutcome::corrected) {
        write_back(v, ecc::crc32c(v, sizeof(v)), storage);
      }
    }
    for (std::size_t e = 0; e < kGroup; ++e) values[e] = v[e];
    return outcome;
  }

 private:
  static void write_back(const Index (&v)[kGroup], std::uint32_t crc,
                         Index* storage) noexcept {
    for (std::size_t e = 0; e < kGroup; ++e) {
      storage[e] = static_cast<Index>(
          v[e] | (static_cast<Index>((crc >> (kSpareBits * e)) & kSpareMask)
                  << kValueBits));
    }
  }

  /// Brute-force single-flip correction over the group's data bits (cold path).
  [[nodiscard]] static bool correct(Index (&v)[kGroup], std::uint32_t stored,
                                    std::uint32_t actual) noexcept {
    if (std::popcount(actual ^ stored) == 1) return true;  // flip in checksum storage
    for (std::size_t e = 0; e < kGroup; ++e) {
      for (unsigned bit = 0; bit < kValueBits; ++bit) {
        v[e] = static_cast<Index>(v[e] ^ (Index{1} << bit));
        if (ecc::crc32c(v, sizeof(v)) == stored) return true;
        v[e] = static_cast<Index>(v[e] ^ (Index{1} << bit));
      }
    }
    return false;
  }
};

/// Row-pointer spellings of the structure schemes (the CSR stack).
template <class Index>
using RowNone = StructNone<Index>;
template <class Index>
using RowSed = StructSed<Index>;
template <class Index>
using RowSecded = StructSecded<Index>;
template <class Index>
using RowSecded128 = StructSecded128<Index>;
template <class Index>
using RowCrc32c = StructCrc32c<Index>;

}  // namespace abft::schemes

namespace abft {

/// 32-bit aliases — the paper's main setting (4 spare bits per entry).
using RowNone = schemes::RowNone<std::uint32_t>;
using RowSed = schemes::RowSed<std::uint32_t>;
using RowSecded64 = schemes::RowSecded<std::uint32_t>;
using RowSecded128 = schemes::RowSecded128<std::uint32_t>;
using RowCrc32c = schemes::RowCrc32c<std::uint32_t>;

/// 64-bit aliases — the §V-B wide-index setting.
using Row64None = schemes::RowNone<std::uint64_t>;
using Row64Sed = schemes::RowSed<std::uint64_t>;
using Row64Secded = schemes::RowSecded<std::uint64_t>;
using Row64Secded128 = schemes::RowSecded128<std::uint64_t>;
using Row64Crc32c = schemes::RowCrc32c<std::uint64_t>;

}  // namespace abft
