/// \file element_schemes.hpp
/// \brief Protection schemes for CSR elements (paper §VI-A, Fig. 1; §V-B for
/// the 64-bit extension), parameterized on the column-index width.
///
/// A CSR element pairs the 64-bit double value v[k] with the column index
/// y[k] at the same position. With 32-bit indices this forms a 96-bit
/// structure, with 64-bit indices a 128-bit one. Redundancy is stored in the
/// unused top bits of the column index:
///
///   - SED    : parity in the column's top bit
///              (32-bit: <= 2^31-1 columns; 64-bit: <= 2^63-1);
///   - SECDED : extended Hamming over value + masked column, 8 redundancy
///              bits in the column's top byte — SECDED(96,88) at 32 bits
///              (<= 2^24-1 columns), SECDED(128,120) at 64 bits (< 2^56);
///   - CRC32C : one 32-bit checksum per *matrix row*, split 8 bits into the
///              top byte of the first four elements of the row — rows
///              therefore need >= 4 non-zeros (TeaLeaf's 5-point stencil
///              satisfies this; sparse::pad_rows_to_min_nnz() fixes up
///              general matrices).
///
/// All encode/decode logic lives once in the `schemes::` templates below;
/// the two index widths differ only in masks, shifts and the SECDED codeword
/// length, all derived from the Index type. `abft::ElemSed` etc. are the
/// 32-bit aliases, `abft::Elem64Sed` etc. the 64-bit ones.
///
/// Per-element schemes expose decode(); the row-granular CRC exposes
/// check_rows()/encode_rows() over runs of rows and encode_row()/decode_row()
/// for one. The containers dispatch with `if constexpr (Scheme::kRowGranular)`.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>

#include "abft/tile_geometry.hpp"
#include "common/bits.hpp"
#include "common/fault_log.hpp"
#include "ecc/crc32c.hpp"
#include "ecc/hamming.hpp"
#include "ecc/parity.hpp"
#include "ecc/scheme.hpp"

namespace abft::schemes {

template <class Index>
inline constexpr bool kValidIndex =
    std::is_same_v<Index, std::uint32_t> || std::is_same_v<Index, std::uint64_t>;

/// No protection (baseline).
template <class Index>
struct ElemNone {
  static_assert(kValidIndex<Index>);
  using index_type = Index;
  static constexpr bool kRowGranular = false;
  static constexpr bool kTileGranular = false;
  static constexpr unsigned kColBits = std::numeric_limits<Index>::digits;
  static constexpr Index kColMask = ~Index{0};
  static constexpr std::size_t kMinRowNnz = 0;
  static constexpr ecc::Scheme kScheme = ecc::Scheme::none;

  static void encode(double&, Index&) noexcept {}

  [[nodiscard]] static CheckOutcome decode(double& value, Index& col, double& v_out,
                                           Index& c_out) noexcept {
    v_out = value;
    c_out = col;
    return CheckOutcome::ok;
  }
};

/// SED over one (value, column) element (Fig. 1a): parity in the column's
/// top bit.
template <class Index>
struct ElemSed {
  static_assert(kValidIndex<Index>);
  using index_type = Index;
  static constexpr bool kRowGranular = false;
  static constexpr bool kTileGranular = false;
  static constexpr unsigned kColBits = std::numeric_limits<Index>::digits - 1;
  static constexpr Index kColMask = static_cast<Index>(~Index{0} >> 1);
  static constexpr std::size_t kMinRowNnz = 0;
  static constexpr ecc::Scheme kScheme = ecc::Scheme::sed;

  static void encode(double& value, Index& col) noexcept {
    const Index c = col & kColMask;
    const std::uint32_t p = ecc::sed_parity_element(double_to_bits(value), c);
    col = static_cast<Index>(c | (static_cast<Index>(p) << kColBits));
  }

  [[nodiscard]] static CheckOutcome decode(double& value, Index& col, double& v_out,
                                           Index& c_out) noexcept {
    v_out = value;
    c_out = col & kColMask;
    const std::uint32_t total = parity64(double_to_bits(value)) ^ parity64(col);
    return total == 0 ? CheckOutcome::ok : CheckOutcome::uncorrectable;
  }
};

/// SECDED over one element (Fig. 1b / §V-B): the 64 value bits plus the
/// masked column bits are the data word; the 8 redundancy bits live in the
/// column's top byte. SECDED(96,88) at 32-bit width, SECDED(128,120) at
/// 64-bit width — the "real" 128-bit element codeword.
template <class Index>
struct ElemSecded {
  static_assert(kValidIndex<Index>);
  using index_type = Index;
  static constexpr bool kRowGranular = false;
  static constexpr bool kTileGranular = false;
  static constexpr unsigned kColBits = std::numeric_limits<Index>::digits - 8;
  static constexpr Index kColMask = static_cast<Index>((Index{1} << kColBits) - 1);
  static constexpr std::size_t kMinRowNnz = 0;
  static constexpr ecc::Scheme kScheme = ecc::Scheme::secded64;
  using Code = ecc::HammingSecded<64 + kColBits>;
  static_assert(Code::kRedundancyBits == 8);

  static void encode(double& value, Index& col) noexcept {
    const Index c = col & kColMask;
    const std::uint32_t red =
        Code::encode({double_to_bits(value), static_cast<std::uint64_t>(c)});
    col = static_cast<Index>(c | (static_cast<Index>(red) << kColBits));
  }

  [[nodiscard]] static CheckOutcome decode(double& value, Index& col, double& v_out,
                                           Index& c_out) noexcept {
    typename Code::data_t data{double_to_bits(value),
                               static_cast<std::uint64_t>(col & kColMask)};
    const auto res =
        Code::check_and_correct(data, static_cast<std::uint32_t>(col >> kColBits));
    if (res.outcome == CheckOutcome::corrected) {
      value = bits_to_double(data[0]);
      col = static_cast<Index>((data[1] & kColMask) |
                               (static_cast<std::uint64_t>(res.fixed_redundancy)
                                << kColBits));
    }
    v_out = bits_to_double(data[0]);
    c_out = static_cast<Index>(data[1] & kColMask);
    return res.outcome;
  }
};

/// CRC32C over a whole CSR row (Fig. 1c): the checksum of the row's
/// (value, masked column) stream is split one byte into the top byte of each
/// of the first four elements' column indices.
///
/// Slab rows are checked and encoded in runs of up to 64 (ecc::crc32c_rows,
/// one dispatched call per run): a block of rows with a common width.
/// check_rows() only reports which rows fail; a failed row goes through
/// decode_row(), which repairs it. encode_row()/decode_row() are one-row
/// runs, which is how CSR rows go.
template <class Index>
struct ElemCrc32c {
  static_assert(kValidIndex<Index>);
  using index_type = Index;
  static constexpr bool kRowGranular = true;
  static constexpr bool kTileGranular = false;
  static constexpr unsigned kColBits = std::numeric_limits<Index>::digits - 8;
  static constexpr Index kColMask = static_cast<Index>((Index{1} << kColBits) - 1);
  static constexpr std::size_t kMinRowNnz = 4;
  static constexpr ecc::Scheme kScheme = ecc::Scheme::crc32c;

  /// Bytes of codeword per element (8 value bytes + the masked column).
  static constexpr std::size_t kBytesPerElement = 8 + sizeof(Index);
  /// Most rows one run holds (one bit each in the check mask).
  static constexpr std::size_t kMaxRunRows = 64;

  /// Check-only run over \p rows (at most 64) rows of a column-major slab
  /// block: row k's e-th slot lives at values[k + e*stride] /
  /// cols[k + e*stride], every row \p width slots wide. Bit k of the result
  /// is set when row k's stored checksum differs from the recomputed one.
  /// Nothing is written.
  [[nodiscard]] static std::uint64_t check_rows(const double* values, const Index* cols,
                                                std::size_t rows, std::size_t width,
                                                std::size_t stride) noexcept {
    const RowRun run{values, cols, kColMask, rows, stride, width};
    std::uint32_t crcs[kMaxRunRows];
    ecc::crc32c_rows(run, crcs);
    std::uint64_t bad = 0;
    for (std::size_t k = 0; k < rows; ++k) {
      bad |= static_cast<std::uint64_t>(crcs[k] != stored_crc(run, k)) << k;
    }
    return bad;
  }

  /// Encode the slab-block rows check_rows(values, cols, rows, width, stride)
  /// checks: mask every column and store each row's checksum bytes.
  static void encode_rows(double* values, Index* cols, std::size_t rows, std::size_t width,
                          std::size_t stride) noexcept {
    std::uint32_t crcs[kMaxRunRows];
    ecc::crc32c_rows({values, cols, kColMask, rows, stride, width}, crcs);
    for (std::size_t k = 0; k < rows; ++k) {
      for (std::size_t e = 0; e < width; ++e) {
        Index& c = cols[k + e * stride];
        c &= kColMask;
        if (e < 4) {
          c |= static_cast<Index>(static_cast<Index>((crcs[k] >> (8 * e)) & 0xFF) << kColBits);
        }
      }
    }
  }

  /// Encode one row of \p nnz elements whose e-th slot lives at
  /// values[e*stride] / cols[e*stride]. CSR rows are contiguous (stride 1);
  /// column-major ELL/SELL rows are strided by the slice height — the
  /// codeword layout is the same either way, so every format shares one CRC
  /// scheme.
  static void encode_row(double* values, Index* cols, std::size_t nnz,
                         std::size_t stride = 1) noexcept {
    encode_rows(values, cols, 1, nnz, stride);
  }

  /// Verify (and on mismatch brute-force correct) one row in place. Column
  /// reads after a clean decode must still be masked with kColMask.
  [[nodiscard]] static CheckOutcome decode_row(double* values, Index* cols,
                                               std::size_t nnz,
                                               std::size_t stride = 1) noexcept {
    const RowRun run{values, cols, kColMask, 1, stride, nnz};
    std::uint32_t actual;
    ecc::crc32c_rows(run, &actual);
    const std::uint32_t stored = stored_crc(run, 0);
    if (actual == stored) return CheckOutcome::ok;
    return correct_row(values, cols, nnz, stride, stored) ? CheckOutcome::corrected
                                                          : CheckOutcome::uncorrectable;
  }

 private:
  using RowRun = ecc::CrcRowRun<Index>;

  /// The checksum row \p k of \p run stores in its first four columns' top
  /// bytes (fewer on a row shorter than four).
  [[nodiscard]] static std::uint32_t stored_crc(const RowRun& run, std::size_t k) noexcept {
    const std::size_t n = std::min<std::size_t>(4, run.width);
    std::uint32_t stored = 0;
    for (std::size_t e = 0; e < n; ++e) {
      stored |= static_cast<std::uint32_t>(run.cols[k + e * run.stride] >> kColBits) << (8 * e);
    }
    return stored;
  }

  static void pack_row(const double* values, const Index* cols, std::size_t nnz,
                       std::size_t stride, std::uint8_t* buffer) noexcept {
    for (std::size_t e = 0; e < nnz; ++e) {
      const std::uint64_t vbits = double_to_bits(values[e * stride]);
      const Index c = cols[e * stride] & kColMask;
      std::memcpy(buffer + e * kBytesPerElement, &vbits, 8);
      std::memcpy(buffer + e * kBytesPerElement + 8, &c, sizeof(Index));
    }
  }

  /// Cold recovery path: assemble the row codeword into a heap buffer (a
  /// failed allocation reports uncorrectable) and try single-bit flips (plus
  /// the flip-in-stored-checksum case). noinline, like correct_tile.
  [[nodiscard]] __attribute__((noinline)) static bool correct_row(
      double* values, Index* cols, std::size_t nnz, std::size_t stride,
      std::uint32_t stored) noexcept {
    const std::size_t bytes = nnz * kBytesPerElement;
    const std::unique_ptr<std::uint8_t[]> buffer(new (std::nothrow) std::uint8_t[bytes]);
    if (buffer == nullptr) return false;
    pack_row(values, cols, nnz, stride, buffer.get());
    const auto res = ecc::crc32c_correct_single_bit({buffer.get(), bytes}, stored);
    if (!res.corrected) return false;

    if (res.flipped_bit < 0) {
      // The flip was in the stored checksum bytes: rewrite them from the
      // (intact) data.
      encode_row(values, cols, nnz, stride);
      return true;
    }
    // Write the repaired element back; its stored checksum byte, if any, is
    // unchanged.
    const std::size_t e = static_cast<std::size_t>(res.flipped_bit) / (8 * kBytesPerElement);
    std::uint64_t vbits = 0;
    Index c = 0;
    std::memcpy(&vbits, buffer.get() + e * kBytesPerElement, 8);
    std::memcpy(&c, buffer.get() + e * kBytesPerElement + 8, sizeof(Index));
    values[e * stride] = bits_to_double(vbits);
    cols[e * stride] = (cols[e * stride] & ~kColMask) | (c & kColMask);
    return true;
  }
};

/// CRC32C over fixed-size unit-stride *tiles* of the physical element slab.
///
/// The per-row codeword above follows the logical row; on ELL/SELL's
/// column-major slabs that walk is strided (stride = nrows for ELL, C for
/// SELL), so every integrity check pays a gather. This sibling layout cuts
/// the slab (padding slots included) into tiles of kTileSlots contiguous
/// (value, column) slots and checksums each tile as one codeword — the same
/// 4x8-bit interleaved CRC32C split into the top bytes of the tile's first
/// four column indices, the same spare-bit accounting, but every checksum
/// walk is a contiguous memcpy-speed scan.
///
/// Tile geometry over a slab of `total` slots is a runtime value
/// (abft::TileGeometry): tiles start at multiples of the configured tile
/// size (a power of two in [16, 256], default 64); a tail shorter than the
/// 4 checksum slots is folded into the previous tile (so the last tile
/// holds slots..slots+3 slots). Containers guarantee total >= 4 whenever
/// total > 0 (the same width >= 4 remedy the per-row CRC needs) and carry
/// the geometry their slab was encoded with.
///
/// This layout only exists for the slab formats: CSR rows are already
/// unit-stride, so ProtectedCsr rejects it with SchemeUnavailableError. The
/// per-element encode/decode below exist solely so format-blind dispatch
/// code instantiates; no container reaches them (ELL/SELL take the
/// kTileGranular paths, CSR refuses construction).
template <class Index>
struct ElemCrc32cTile {
  static_assert(kValidIndex<Index>);
  using index_type = Index;
  static constexpr bool kRowGranular = false;
  static constexpr bool kTileGranular = true;
  static constexpr unsigned kColBits = std::numeric_limits<Index>::digits - 8;
  static constexpr Index kColMask = static_cast<Index>((Index{1} << kColBits) - 1);
  /// Reused by the containers as the minimum slab/slice width, which also
  /// guarantees every non-empty slab has the >= 4 slots one checksum needs.
  static constexpr std::size_t kMinRowNnz = 4;
  static constexpr ecc::Scheme kScheme = ecc::Scheme::crc32c_tile;

  /// Default slots per tile. 64 slots keep the whole codeword (768 B at
  /// 32-bit indices) well inside CRC32C's HD=4 range, and a 64-slot slab
  /// column of an SpMV chunk maps onto 1-2 tiles. Other sizes trade stride
  /// for Hamming distance (see abft::TileGeometry and ecc::capability).
  static constexpr std::size_t kDefaultTileSlots = TileGeometry::kDefaultSlots;

  /// Largest tile any legal geometry can produce (a 256-slot tile with a
  /// merged 3-slot tail); bounds the stack buffers of the cold paths below.
  static constexpr std::size_t kMaxTileSlots =
      TileGeometry::kMaxSlots + TileGeometry::kSpareSlots - 1;

  /// Encode one tile of \p nslots contiguous slots in place: checksum the
  /// tile and split it one byte into the top byte of the first four slots'
  /// column indices (the per-row scheme's spare-bit accounting).
  static void encode_tile(double* values, Index* cols, std::size_t nslots) noexcept {
    for (std::size_t e = 0; e < nslots; ++e) cols[e] &= kColMask;
    const std::uint32_t crc = tile_crc(values, cols, nslots);
    for (std::size_t e = 0; e < 4 && e < nslots; ++e) {
      cols[e] |= static_cast<Index>(static_cast<Index>((crc >> (8 * e)) & 0xFF)
                                    << kColBits);
    }
  }

  /// Verify (and on mismatch brute-force correct) one tile in place. Column
  /// reads after a clean decode must still be masked with kColMask.
  [[nodiscard]] static CheckOutcome decode_tile(double* values, Index* cols,
                                                std::size_t nslots) noexcept {
    const std::uint32_t actual = tile_crc(values, cols, nslots);
    std::uint32_t stored = 0;
    for (std::size_t e = 0; e < 4 && e < nslots; ++e) {
      stored |= static_cast<std::uint32_t>(cols[e] >> kColBits) << (8 * e);
    }
    if (actual == stored) [[likely]] return CheckOutcome::ok;
    return correct_tile(values, cols, nslots, stored) ? CheckOutcome::corrected
                                                      : CheckOutcome::uncorrectable;
  }

  // Per-element surface for format-blind instantiation only (see above):
  // behaviourally a masked pass-through, never reached through a container.
  static void encode(double&, Index& col) noexcept { col &= kColMask; }

  [[nodiscard]] static CheckOutcome decode(double& value, Index& col, double& v_out,
                                           Index& c_out) noexcept {
    v_out = value;
    c_out = col & kColMask;
    return CheckOutcome::ok;
  }

 private:
  /// Tile codeword: the nslots raw value bytes followed by the nslots masked
  /// column indices. Unlike the per-row scheme there is no per-slot
  /// interleave to assemble — the value array is checksummed in place (one
  /// contiguous CRC pass over the tile's value bytes), and only the columns
  /// pass through a small masking buffer. The CRC's guarantees depend only on the
  /// codeword length, not the byte order, so the coverage matches an
  /// interleaved layout of the same slots.
  [[nodiscard]] static std::uint32_t tile_crc(const double* values, const Index* cols,
                                              std::size_t nslots) noexcept {
    const std::uint32_t crc_values = ecc::crc32c(values, nslots * 8);
    Index masked[kMaxTileSlots];
    for (std::size_t e = 0; e < nslots; ++e) masked[e] = cols[e] & kColMask;
    return ecc::crc32c(masked, nslots * sizeof(Index), crc_values);
  }

  /// Cold recovery path: assemble the tile codeword into one byte buffer,
  /// try every single-bit flip (plus the flip-in-stored-checksum case), and
  /// write the repaired slot back. noinline: this body must not count
  /// against the inlining budget of the hot check loops instantiated in the
  /// same translation unit (benches showed the extra unit growth deflating
  /// unrelated kernels).
  [[nodiscard]] __attribute__((noinline)) static bool correct_tile(
      double* values, Index* cols, std::size_t nslots, std::uint32_t stored) noexcept {
    alignas(alignof(Index)) std::uint8_t buffer[kMaxTileSlots * (8 + sizeof(Index))];
    std::memcpy(buffer, values, nslots * 8);
    Index* const col_part = reinterpret_cast<Index*>(buffer + nslots * 8);
    for (std::size_t e = 0; e < nslots; ++e) col_part[e] = cols[e] & kColMask;

    const auto res = ecc::crc32c_correct_single_bit(
        {buffer, nslots * (8 + sizeof(Index))}, stored);
    if (!res.corrected) return false;
    if (res.flipped_bit < 0) {
      // The flip was in the stored checksum bytes: rewrite them from the
      // (intact) data. Each word is stored once with its final value —
      // encode_tile's clear-then-recompute sequence would transiently break
      // the tile for a concurrent reader of a chunk-straddling tile,
      // violating the identical-write convention the tile verifier relies
      // on (see tile_check.hpp).
      const std::uint32_t crc = tile_crc(values, cols, nslots);
      for (std::size_t e = 0; e < 4 && e < nslots; ++e) {
        cols[e] = static_cast<Index>(
            (cols[e] & kColMask) |
            (static_cast<Index>((crc >> (8 * e)) & 0xFF) << kColBits));
      }
      return true;
    }
    const std::size_t bit = static_cast<std::size_t>(res.flipped_bit);
    if (bit < nslots * 64) {
      std::memcpy(&values[bit / 64], buffer + (bit / 64) * 8, 8);
    } else {
      const std::size_t e = (bit - nslots * 64) / (8 * sizeof(Index));
      cols[e] = static_cast<Index>((cols[e] & ~kColMask) | (col_part[e] & kColMask));
    }
    return true;
  }
};

}  // namespace abft::schemes

namespace abft {

/// 32-bit (96-bit element codeword) aliases — the paper's main setting.
using ElemNone = schemes::ElemNone<std::uint32_t>;
using ElemSed = schemes::ElemSed<std::uint32_t>;
using ElemSecded = schemes::ElemSecded<std::uint32_t>;
using ElemCrc32c = schemes::ElemCrc32c<std::uint32_t>;
using ElemCrc32cTile = schemes::ElemCrc32cTile<std::uint32_t>;

/// 64-bit (128-bit element codeword) aliases — the §V-B wide-index setting.
using Elem64None = schemes::ElemNone<std::uint64_t>;
using Elem64Sed = schemes::ElemSed<std::uint64_t>;
using Elem64Secded = schemes::ElemSecded<std::uint64_t>;
using Elem64Crc32c = schemes::ElemCrc32c<std::uint64_t>;

}  // namespace abft
