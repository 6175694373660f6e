/// \file scheme_matrix.hpp
/// \brief Shared encode/decode/fault test harness run over the full
/// (index width x scheme) matrix — and, one level up, over the protected
/// containers of every storage format.
///
/// Every protection scheme — element and structure, at 32- and 64-bit index
/// width — must satisfy the same contract: clean codewords round-trip,
/// single bit flips are detected (SED), corrected (SECDED, CRC32C) or missed
/// (None), and double flips are detected by any distance>=3 code. The typed
/// suites in test_element_schemes.cpp / test_row_schemes.cpp / test_csr64.cpp
/// / test_protected_ell.cpp instantiate these templates instead of
/// copy-pasting width- or format-specific assertions. The container-level
/// harness at the bottom runs the same contract through any protected matrix
/// exposing the format-uniform API (plain_type / from_plain / to_plain /
/// raw_values / raw_structure / verify_all).
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "abft/element_schemes.hpp"
#include "abft/protected_kernels.hpp"
#include "abft/protected_vector.hpp"
#include "abft/structure_schemes.hpp"
#include "abft/vector_schemes.hpp"
#include "common/bits.hpp"
#include "common/fault_log.hpp"
#include "common/rng.hpp"
#include "ecc/crc32c.hpp"
#include "ecc/scheme.hpp"
#include "faults/injector.hpp"
#include "sparse/csr.hpp"
#include "sparse/sell.hpp"

namespace abft::scheme_matrix {

/// Outcome a scheme must produce for a single bit flip anywhere in its
/// codeword *data* bits (redundancy-bit flips are handled per scheme below).
[[nodiscard]] constexpr CheckOutcome expected_single_flip(ecc::Scheme s) noexcept {
  switch (s) {
    case ecc::Scheme::none: return CheckOutcome::ok;  // undetected by design
    case ecc::Scheme::sed: return CheckOutcome::uncorrectable;  // detect-only
    case ecc::Scheme::secded64:
    case ecc::Scheme::secded128: return CheckOutcome::corrected;
    case ecc::Scheme::crc32c: return CheckOutcome::corrected;  // brute-force path
    case ecc::Scheme::crc32c_tile:
      return CheckOutcome::corrected;  // same brute-force path, tile codewords
  }
  return CheckOutcome::ok;
}

// ---------------------------------------------------------------------------
// Per-element schemes (ElemNone / ElemSed / ElemSecded at either width).
// ---------------------------------------------------------------------------

template <class ES>
void elem_round_trip(int reps = 200) {
  using Index = typename ES::index_type;
  Xoshiro256 rng(1);
  for (int rep = 0; rep < reps; ++rep) {
    double v = rng.uniform(-1e6, 1e6);
    Index c = static_cast<Index>(rng()) & ES::kColMask;
    const double v0 = v;
    const Index c0 = c;
    ES::encode(v, c);
    EXPECT_EQ(v, v0) << "element schemes must not alter the value";
    double vd;
    Index cd;
    EXPECT_EQ(ES::decode(v, c, vd, cd), CheckOutcome::ok);
    EXPECT_EQ(vd, v0);
    EXPECT_EQ(cd, c0);
  }
}

/// Flip every bit of the (value, column) pair in turn, including the
/// redundancy bits embedded in the column's top bits.
template <class ES>
void elem_single_flips() {
  using Index = typename ES::index_type;
  constexpr unsigned kIndexBits = std::numeric_limits<Index>::digits;
  constexpr bool kFlipsRecoverable =
      expected_single_flip(ES::kScheme) == CheckOutcome::corrected;
  Xoshiro256 rng(2);
  for (unsigned bit = 0; bit < 64 + kIndexBits; ++bit) {
    double v = rng.uniform(-10, 10);
    Index c = static_cast<Index>(rng()) & ES::kColMask;
    const double v0 = v;
    const Index c0 = c;
    ES::encode(v, c);
    const double v_enc = v;
    const Index c_enc = c;
    if (bit < 64) {
      v = bits_to_double(flip_bit(double_to_bits(v), bit));
    } else {
      c = static_cast<Index>(flip_bit(c, bit - 64));
    }
    double vd;
    Index cd;
    const auto outcome = ES::decode(v, c, vd, cd);
    if constexpr (ES::kScheme == ecc::Scheme::none) {
      // No redundancy: the flip is invisible; a column flip lands in the
      // decoded index unchanged.
      EXPECT_EQ(outcome, CheckOutcome::ok) << bit;
    } else {
      EXPECT_EQ(outcome, expected_single_flip(ES::kScheme)) << "bit " << bit;
    }
    if constexpr (kFlipsRecoverable) {
      EXPECT_EQ(vd, v0) << "bit " << bit;
      EXPECT_EQ(cd, c0) << "bit " << bit;
      EXPECT_EQ(double_to_bits(v), double_to_bits(v_enc))
          << "correction must write back, bit " << bit;
      EXPECT_EQ(c, c_enc) << "correction must write back, bit " << bit;
    }
  }
}

/// Two flips spread across value and column data bits: SED misses pairs in
/// the same parity domain only when both land inside it — here we flip one
/// value bit and one column bit, which SED *also* misses (even total parity)
/// while SECDED must flag the pair as uncorrectable.
template <class ES>
void elem_double_flips() {
  using Index = typename ES::index_type;
  Xoshiro256 rng(3);
  for (unsigned i = 0; i < 64; i += 7) {
    for (unsigned j = 0; j < ES::kColBits; j += 5) {
      double v = rng.uniform(-10, 10);
      Index c = static_cast<Index>(rng()) & ES::kColMask;
      ES::encode(v, c);
      v = bits_to_double(flip_bit(double_to_bits(v), i));
      c = static_cast<Index>(flip_bit(c, j));
      double vd;
      Index cd;
      const auto outcome = ES::decode(v, c, vd, cd);
      if constexpr (ES::kScheme == ecc::Scheme::secded64 ||
                    ES::kScheme == ecc::Scheme::secded128) {
        EXPECT_EQ(outcome, CheckOutcome::uncorrectable) << i << "," << j;
      } else {
        EXPECT_EQ(outcome, CheckOutcome::ok) << i << "," << j;  // missed
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Row-granular element scheme (ElemCrc32c at either width).
// ---------------------------------------------------------------------------

template <class ES>
struct CrcRow {
  std::vector<double> values;
  std::vector<typename ES::index_type> cols;
};

template <class ES>
CrcRow<ES> make_crc_row(std::size_t nnz, Xoshiro256& rng) {
  CrcRow<ES> row;
  for (std::size_t k = 0; k < nnz; ++k) {
    row.values.push_back(rng.uniform(-100, 100));
    row.cols.push_back(static_cast<typename ES::index_type>(rng()) & ES::kColMask);
  }
  return row;
}

template <class ES>
void crc_row_round_trip() {
  Xoshiro256 rng(4);
  for (std::size_t nnz : {std::size_t{4}, std::size_t{5}, std::size_t{8},
                          std::size_t{13}, std::size_t{64}, std::size_t{70}}) {
    auto row = make_crc_row<ES>(nnz, rng);
    const auto original = row;
    ES::encode_row(row.values.data(), row.cols.data(), nnz);
    EXPECT_EQ(ES::decode_row(row.values.data(), row.cols.data(), nnz), CheckOutcome::ok);
    for (std::size_t k = 0; k < nnz; ++k) {
      EXPECT_EQ(row.values[k], original.values[k]);
      EXPECT_EQ(row.cols[k] & ES::kColMask, original.cols[k]);
    }
  }
}

/// One flip anywhere in the row — value bits, column data bits, or the
/// checksum storage bytes — must be corrected and the full row restored.
template <class ES>
void crc_row_single_flips() {
  constexpr std::size_t kNnz = 5;  // TeaLeaf's 5-point row width
  constexpr unsigned kIndexBits = std::numeric_limits<typename ES::index_type>::digits;
  Xoshiro256 rng(5);
  for (std::size_t k = 0; k < kNnz; ++k) {
    for (unsigned bit = 0; bit < 64 + kIndexBits; bit += 3) {
      auto row = make_crc_row<ES>(kNnz, rng);
      ES::encode_row(row.values.data(), row.cols.data(), kNnz);
      const auto clean = row;
      if (bit < 64) {
        row.values[k] = bits_to_double(flip_bit(double_to_bits(row.values[k]), bit));
      } else {
        row.cols[k] = static_cast<typename ES::index_type>(flip_bit(row.cols[k], bit - 64));
      }
      // Top-byte bits of elements beyond the first four hold neither data
      // nor checksum; a flip there is invisible (and harmless — reads mask).
      const bool unused_spare = bit >= 64 + ES::kColBits && k >= 4;
      EXPECT_EQ(ES::decode_row(row.values.data(), row.cols.data(), kNnz),
                unused_spare ? CheckOutcome::ok : CheckOutcome::corrected)
          << "element " << k << " bit " << bit;
      if (unused_spare) continue;
      for (std::size_t e = 0; e < kNnz; ++e) {
        EXPECT_EQ(double_to_bits(row.values[e]), double_to_bits(clean.values[e]));
        EXPECT_EQ(row.cols[e], clean.cols[e]);
      }
    }
  }
}

template <class ES>
void crc_row_triple_flips_never_ok(int reps = 100) {
  constexpr std::size_t kNnz = 5;
  Xoshiro256 rng(6);
  for (int rep = 0; rep < reps; ++rep) {
    auto row = make_crc_row<ES>(kNnz, rng);
    ES::encode_row(row.values.data(), row.cols.data(), kNnz);
    for (int f = 0; f < 3; ++f) {
      const std::size_t k = rng.below(kNnz);
      row.values[k] =
          bits_to_double(flip_bit(double_to_bits(row.values[k]), rng.below(64)));
    }
    EXPECT_NE(ES::decode_row(row.values.data(), row.cols.data(), kNnz),
              CheckOutcome::ok)
        << rep;
  }
}

// ---------------------------------------------------------------------------
// Tile-granular element scheme (ElemCrc32cTile at either width): unit-stride
// tiles of a physical slab, short tails folded into the previous tile.
// ---------------------------------------------------------------------------

/// Tile geometry invariants plus a clean encode/decode round trip, over slab
/// sizes that hit every tail case (exact multiple, short tail that merges,
/// long tail that stands alone, sub-tile slabs) at the given runtime
/// geometry.
template <class ES>
void tile_round_trip(TileGeometry geom = {}) {
  Xoshiro256 rng(41);
  const std::size_t s = geom.slots();
  for (std::size_t total : {std::size_t{4}, std::size_t{5}, s - 1, s, s + 1,
                            s + 3, s + 4, 2 * s, 2 * s + 3, 3 * s + 8}) {
    const std::size_t ntiles = geom.num_tiles(total);
    std::size_t covered = 0;
    for (std::size_t t = 0; t < ntiles; ++t) {
      ASSERT_EQ(geom.tile_begin(t), covered) << "total " << total << " tile " << t;
      const std::size_t slots = geom.tile_slots(t, total);
      ASSERT_GE(slots, 4u) << "total " << total << " tile " << t;
      ASSERT_LE(slots, geom.max_tile_span()) << "total " << total << " tile " << t;
      for (std::size_t k = covered; k < covered + slots; ++k) {
        ASSERT_EQ(geom.tile_of(k, total), t) << "total " << total << " slot " << k;
      }
      covered += slots;
    }
    ASSERT_EQ(covered, total) << "tiles must partition the slab, total " << total;

    auto slab = make_crc_row<ES>(total, rng);
    const auto original = slab;
    for (std::size_t t = 0; t < ntiles; ++t) {
      ES::encode_tile(slab.values.data() + geom.tile_begin(t),
                      slab.cols.data() + geom.tile_begin(t),
                      geom.tile_slots(t, total));
    }
    for (std::size_t t = 0; t < ntiles; ++t) {
      EXPECT_EQ(ES::decode_tile(slab.values.data() + geom.tile_begin(t),
                                slab.cols.data() + geom.tile_begin(t),
                                geom.tile_slots(t, total)),
                CheckOutcome::ok)
          << "total " << total << " tile " << t;
    }
    for (std::size_t k = 0; k < total; ++k) {
      EXPECT_EQ(slab.values[k], original.values[k]) << k;
      EXPECT_EQ(slab.cols[k] & ES::kColMask, original.cols[k]) << k;
    }
  }
}

/// One flip anywhere in the slab — value bits, column data bits, or the
/// checksum bytes in a tile's first four slots — must be corrected and the
/// whole slab restored bit-exactly; flips in the unused spare top bytes of
/// slots 4+ of a tile are invisible (reads mask). The default slab size
/// (geometry + 3 slots) exercises a merged tail tile.
template <class ES>
void tile_single_flips(TileGeometry geom = {}, std::size_t total = 0,
                       unsigned bit_step = 3) {
  using Index = typename ES::index_type;
  constexpr unsigned kIndexBits = std::numeric_limits<Index>::digits;
  if (total == 0) total = geom.slots() + 3;
  const std::size_t ntiles = geom.num_tiles(total);
  Xoshiro256 rng(43);
  for (std::size_t k = 0; k < total; ++k) {
    for (unsigned bit = 0; bit < 64 + kIndexBits; bit += bit_step) {
      auto slab = make_crc_row<ES>(total, rng);
      for (std::size_t t = 0; t < ntiles; ++t) {
        ES::encode_tile(slab.values.data() + geom.tile_begin(t),
                        slab.cols.data() + geom.tile_begin(t),
                        geom.tile_slots(t, total));
      }
      const auto clean = slab;
      if (bit < 64) {
        slab.values[k] = bits_to_double(flip_bit(double_to_bits(slab.values[k]), bit));
      } else {
        slab.cols[k] = static_cast<Index>(flip_bit(slab.cols[k], bit - 64));
      }
      const std::size_t t = geom.tile_of(k, total);
      const std::size_t slot_in_tile = k - geom.tile_begin(t);
      const bool unused_spare = bit >= 64 + ES::kColBits && slot_in_tile >= 4;
      EXPECT_EQ(ES::decode_tile(slab.values.data() + geom.tile_begin(t),
                                slab.cols.data() + geom.tile_begin(t),
                                geom.tile_slots(t, total)),
                unused_spare ? CheckOutcome::ok : CheckOutcome::corrected)
          << "slot " << k << " bit " << bit;
      if (unused_spare) continue;
      for (std::size_t e = 0; e < total; ++e) {
        EXPECT_EQ(double_to_bits(slab.values[e]), double_to_bits(clean.values[e]))
            << "slot " << k << " bit " << bit << " at " << e;
        EXPECT_EQ(slab.cols[e], clean.cols[e]) << "slot " << k << " bit " << bit
                                               << " at " << e;
      }
    }
  }
}

/// Triple flips inside one tile must never pass as clean (HD >= 4 for the
/// tile codeword sizes in use, every runtime geometry included).
template <class ES>
void tile_triple_flips_never_ok(int reps = 100, TileGeometry geom = {}) {
  const std::size_t kTotal = geom.slots();
  Xoshiro256 rng(47);
  for (int rep = 0; rep < reps; ++rep) {
    auto slab = make_crc_row<ES>(kTotal, rng);
    ES::encode_tile(slab.values.data(), slab.cols.data(), kTotal);
    for (int f = 0; f < 3; ++f) {
      const std::size_t k = rng.below(kTotal);
      slab.values[k] =
          bits_to_double(flip_bit(double_to_bits(slab.values[k]), rng.below(64)));
    }
    EXPECT_NE(ES::decode_tile(slab.values.data(), slab.cols.data(), kTotal),
              CheckOutcome::ok)
        << rep;
  }
}

// ---------------------------------------------------------------------------
// Row-pointer schemes (all five, at either width).
// ---------------------------------------------------------------------------

/// Expected outcome of a single flip in storage entry \p e at bit \p bit.
/// Data-bit flips follow expected_single_flip(); flips in the embedded
/// redundancy are corrected by SECDED/CRC, detected by SED's parity bit, and
/// invisible when they land in a spare bit the code does not use (e.g. the
/// 8th redundancy slot of a 7-bit SECDED code).
template <class RS>
[[nodiscard]] constexpr CheckOutcome expected_row_flip(std::size_t e,
                                                       unsigned bit) noexcept {
  if constexpr (RS::kScheme == ecc::Scheme::none) {
    (void)e;
    (void)bit;
    return CheckOutcome::ok;
  } else if constexpr (RS::kScheme == ecc::Scheme::sed) {
    (void)e;
    (void)bit;
    return CheckOutcome::uncorrectable;  // value bits and the parity bit alike
  } else if constexpr (RS::kScheme == ecc::Scheme::crc32c) {
    (void)e;
    (void)bit;
    return CheckOutcome::corrected;  // every spare bit holds checksum
  } else {
    if (bit < RS::kValueBits) return CheckOutcome::corrected;
    const unsigned red = RS::kSpareBits * static_cast<unsigned>(e) + (bit - RS::kValueBits);
    return red < RS::Code::kRedundancyBits ? CheckOutcome::corrected : CheckOutcome::ok;
  }
}

template <class RS>
void row_round_trip(int reps = 100) {
  using Index = typename RS::index_type;
  Xoshiro256 rng(7);
  for (int rep = 0; rep < reps; ++rep) {
    Index vals[RS::kGroup], storage[RS::kGroup], decoded[RS::kGroup];
    for (auto& v : vals) v = static_cast<Index>(rng()) & RS::kValueMask;
    RS::encode_group(vals, storage);
    EXPECT_EQ(RS::decode_group(storage, decoded), CheckOutcome::ok);
    for (std::size_t e = 0; e < RS::kGroup; ++e) EXPECT_EQ(decoded[e], vals[e]);
  }
}

template <class RS>
void row_single_flips() {
  using Index = typename RS::index_type;
  constexpr unsigned kIndexBits = std::numeric_limits<Index>::digits;
  Xoshiro256 rng(8);
  for (std::size_t e = 0; e < RS::kGroup; ++e) {
    for (unsigned bit = 0; bit < kIndexBits; ++bit) {
      Index vals[RS::kGroup], storage[RS::kGroup], decoded[RS::kGroup];
      for (auto& v : vals) v = static_cast<Index>(rng()) & RS::kValueMask;
      RS::encode_group(vals, storage);
      Index clean[RS::kGroup];
      for (std::size_t i = 0; i < RS::kGroup; ++i) clean[i] = storage[i];
      storage[e] = static_cast<Index>(flip_bit(storage[e], bit));
      const auto outcome = RS::decode_group(storage, decoded);
      const auto expected = expected_row_flip<RS>(e, bit);
      EXPECT_EQ(outcome, expected) << "entry " << e << " bit " << bit;
      if (expected == CheckOutcome::corrected) {
        for (std::size_t i = 0; i < RS::kGroup; ++i) {
          EXPECT_EQ(storage[i], clean[i]) << "entry " << e << " bit " << bit;
          EXPECT_EQ(decoded[i], vals[i]) << "entry " << e << " bit " << bit;
        }
      }
    }
  }
}

template <class RS>
void row_double_flips() {
  using Index = typename RS::index_type;
  Xoshiro256 rng(9);
  for (std::size_t e1 = 0; e1 < RS::kGroup; ++e1) {
    for (unsigned b1 = 0; b1 + 1 < RS::kValueBits; b1 += 9) {
      const std::size_t e2 = (e1 + 1) % RS::kGroup;
      const unsigned b2 = b1 + 1;
      Index vals[RS::kGroup], storage[RS::kGroup], decoded[RS::kGroup];
      for (auto& v : vals) v = static_cast<Index>(rng()) & RS::kValueMask;
      RS::encode_group(vals, storage);
      storage[e1] = static_cast<Index>(flip_bit(storage[e1], b1));
      storage[e2] = static_cast<Index>(flip_bit(storage[e2], b2));
      const auto outcome = RS::decode_group(storage, decoded);
      if constexpr (RS::kScheme == ecc::Scheme::none ||
                    RS::kScheme == ecc::Scheme::sed) {
        // None misses; SED's per-entry parity misses even flip counts (the
        // group is a single entry, so both flips share one parity domain).
        EXPECT_EQ(outcome, CheckOutcome::ok) << e1 << ":" << b1;
      } else {
        EXPECT_EQ(outcome, CheckOutcome::uncorrectable) << e1 << ":" << b1;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Protected containers (format x scheme): the encode/verify/flip contract at
// the container level, generic over ProtectedCsr / ProtectedSell (which holds
// ELL too).
// ---------------------------------------------------------------------------

template <class Index>
void expect_matrices_equal(const sparse::Csr<Index>& got, const sparse::Csr<Index>& want) {
  EXPECT_EQ(got.row_ptr(), want.row_ptr());
  EXPECT_EQ(got.cols(), want.cols());
  EXPECT_EQ(got.values(), want.values());
}

template <class Index>
void expect_matrices_equal(const sparse::Sell<Index>& got,
                           const sparse::Sell<Index>& want) {
  EXPECT_EQ(got.slice_height(), want.slice_height());
  EXPECT_EQ(got.slice_widths(), want.slice_widths());
  EXPECT_EQ(got.perm(), want.perm());
  EXPECT_EQ(got.row_nnz(), want.row_nnz());
  EXPECT_EQ(got.cols(), want.cols());
  EXPECT_EQ(got.values(), want.values());
}

/// y = A x through the free spmv kernel over unprotected (VecNone) vectors.
template <class PM>
void spmv_unprotected(PM& a, const std::vector<double>& x, std::vector<double>& y,
                      CheckMode mode) {
  ProtectedVector<VecNone> px(x.size()), py(y.size());
  px.assign({x.data(), x.size()});
  py.assign({y.data(), y.size()});
  spmv(a, px, py, mode);
  py.extract({y.data(), y.size()});
}

/// Clean encode -> verify -> decode must reproduce the input exactly.
template <class PM>
void container_round_trip(const typename PM::plain_type& a) {
  auto p = PM::from_plain(a);
  EXPECT_EQ(p.verify_all(), 0u);
  expect_matrices_equal(p.to_plain(), a);
}

/// Random single-bit flips in the value array: correcting element schemes
/// must repair them all and restore the exact matrix; SED must flag them.
template <class PM>
void container_value_flips(const typename PM::plain_type& a, std::uint64_t seed = 17) {
  using ES = typename PM::elem_scheme;
  FaultLog log;
  auto p = PM::from_plain(a, &log, DuePolicy::record_only);
  faults::Injector injector(seed);
  auto vals = p.raw_values();
  injector.inject_single(
      {reinterpret_cast<std::uint8_t*>(vals.data()), vals.size_bytes()});

  const auto expected = expected_single_flip(ES::kScheme);
  const std::size_t failures = p.verify_all();
  if (expected == CheckOutcome::corrected) {
    EXPECT_EQ(failures, 0u);
    EXPECT_GE(log.corrected(), 1u);
    expect_matrices_equal(p.to_plain(), a);
  } else if (expected == CheckOutcome::uncorrectable) {
    EXPECT_GE(failures, 1u);
    EXPECT_GE(log.uncorrectable(), 1u);
  } else {
    EXPECT_EQ(log.corrected() + log.uncorrectable(), 0u);  // invisible by design
  }
}

/// Single-bit flips in the structural array (CSR row pointers / ELL row
/// widths), same contract keyed on the structure scheme.
template <class PM>
void container_structure_flips(const typename PM::plain_type& a, std::uint64_t seed = 23) {
  using SS = typename PM::struct_scheme;
  FaultLog log;
  auto p = PM::from_plain(a, &log, DuePolicy::record_only);
  faults::Injector injector(seed);
  auto st = p.raw_structure();
  injector.inject_single({reinterpret_cast<std::uint8_t*>(st.data()), st.size_bytes()});

  const auto expected = expected_single_flip(SS::kScheme);
  (void)p.verify_all();
  if (expected == CheckOutcome::corrected) {
    // SECDED redundancy slots beyond the code's bits are unused at some
    // widths; a flip there is invisible and harmless. Everything else must
    // be repaired in place.
    EXPECT_EQ(log.uncorrectable(), 0u);
    EXPECT_EQ(log.bounds_violations(), 0u);
    expect_matrices_equal(p.to_plain(), a);
  } else if (expected == CheckOutcome::uncorrectable) {
    EXPECT_GE(log.uncorrectable() + log.bounds_violations(), 1u);
  }
  // None: the flip may surface as a bounds hit or pass silently; the sweep
  // must simply not crash (range guards are the only defence, §VI-A2).
}

// ---------------------------------------------------------------------------
// Exhaustive fault sweeps: flip EVERY bit of a protected region in turn and
// assert the scheme's contract — no sampling. This is the proof the paper's
// full-protection claim reduces to: SED detects every single flip, SECDED
// and CRC32C correct every single flip (or land in an unused spare bit and
// change nothing), None reports nothing through the codecs.
// ---------------------------------------------------------------------------

/// Which protected array of a container a sweep targets.
enum class ContainerRegion { values, cols, structure };

[[nodiscard]] constexpr const char* to_string(ContainerRegion r) noexcept {
  switch (r) {
    case ContainerRegion::values: return "values";
    case ContainerRegion::cols: return "cols";
    case ContainerRegion::structure: return "structure";
  }
  return "?";
}

template <class PM>
[[nodiscard]] std::span<std::uint8_t> container_region_bytes(PM& p,
                                                             ContainerRegion which) {
  const auto bytes = [](auto span) {
    return std::span<std::uint8_t>{reinterpret_cast<std::uint8_t*>(span.data()),
                                   span.size_bytes()};
  };
  switch (which) {
    case ContainerRegion::values: return bytes(p.raw_values());
    case ContainerRegion::cols: return bytes(p.raw_cols());
    case ContainerRegion::structure: return bytes(p.raw_structure());
  }
  return {};
}

/// Flip every bit of one region of a freshly-encoded container, run the full
/// verification sweep, and assert the scheme contract per flip:
///   - correcting schemes (SECDED, CRC32C): no DUE, no bounds hit, and the
///     decoded matrix is exactly the original — whether the flip was
///     repaired or fell in a spare bit the code does not use;
///   - SED: at least one DUE (the parity covers every storage bit);
///   - None: the codecs report nothing (structural range guards may fire).
template <class PM>
void container_exhaustive_flip_sweep(const typename PM::plain_type& a,
                                     ContainerRegion which,
                                     std::size_t tile_slots = 0) {
  const ecc::Scheme scheme = which == ContainerRegion::structure
                                 ? PM::struct_scheme::kScheme
                                 : PM::elem_scheme::kScheme;
  const auto expected = expected_single_flip(scheme);
  std::size_t nbits = 0;
  {
    auto probe = PM::from_plain(a, nullptr, DuePolicy::throw_exception, tile_slots);
    nbits = container_region_bytes(probe, which).size() * 8;
  }
  ASSERT_GT(nbits, 0u);
  for (std::size_t bit = 0; bit < nbits; ++bit) {
    FaultLog log;
    auto p = PM::from_plain(a, &log, DuePolicy::record_only, tile_slots);
    faults::flip_bit(container_region_bytes(p, which), bit);
    const std::size_t failures = p.verify_all();
    if (expected == CheckOutcome::corrected) {
      ASSERT_EQ(failures, 0u) << to_string(which) << " bit " << bit;
      ASSERT_EQ(log.uncorrectable(), 0u) << to_string(which) << " bit " << bit;
      ASSERT_EQ(log.bounds_violations(), 0u) << to_string(which) << " bit " << bit;
      SCOPED_TRACE(std::string(to_string(which)) + " bit " + std::to_string(bit));
      expect_matrices_equal(p.to_plain(), a);
      if (::testing::Test::HasFailure()) return;  // stop at the first bad bit
    } else if (expected == CheckOutcome::uncorrectable) {
      ASSERT_GE(failures, 1u) << to_string(which) << " bit " << bit;
      ASSERT_GE(log.uncorrectable(), 1u) << to_string(which) << " bit " << bit;
    } else {
      ASSERT_EQ(log.corrected() + log.uncorrectable(), 0u)
          << to_string(which) << " bit " << bit;
    }
  }
}

/// Flip every bit of a protected dense vector's (padded) storage in turn.
/// Same contract as the container sweep, with "decoded matrix intact"
/// replaced by "extracted values intact".
template <class VS>
void vector_exhaustive_flip_sweep(std::size_t n = 13) {
  Xoshiro256 rng(29);
  std::vector<double> vals(n);
  for (auto& v : vals) v = rng.uniform(-100, 100);

  // Reference: the masked values a clean vector stores.
  std::vector<double> want(n);
  {
    ProtectedVector<VS> clean(n);
    clean.assign({vals.data(), vals.size()});
    clean.extract({want.data(), want.size()});
  }

  std::size_t nbits = 0;
  {
    ProtectedVector<VS> probe(n);
    nbits = probe.raw().size_bytes() * 8;
  }
  const auto expected = expected_single_flip(VS::kScheme);
  for (std::size_t bit = 0; bit < nbits; ++bit) {
    FaultLog log;
    ProtectedVector<VS> v(n, &log, DuePolicy::record_only);
    v.assign({vals.data(), vals.size()});
    auto raw = v.raw();
    faults::flip_bit({reinterpret_cast<std::uint8_t*>(raw.data()), raw.size_bytes()},
                     bit);
    const std::size_t failures = v.verify_all();
    if (expected == CheckOutcome::corrected) {
      ASSERT_EQ(failures, 0u) << "vector bit " << bit;
      ASSERT_EQ(log.uncorrectable(), 0u) << "vector bit " << bit;
      std::vector<double> got(n);
      v.extract({got.data(), got.size()});
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(double_to_bits(got[i]), double_to_bits(want[i]))
            << "vector bit " << bit << " element " << i;
      }
    } else if (expected == CheckOutcome::uncorrectable) {
      ASSERT_GE(failures, 1u) << "vector bit " << bit;
      ASSERT_GE(log.uncorrectable(), 1u) << "vector bit " << bit;
    } else {
      ASSERT_EQ(log.corrected() + log.uncorrectable(), 0u) << "vector bit " << bit;
    }
  }
}

/// Exhaustive double-flip sweep over one SECDED element codeword: every
/// distinct pair of storage bits must come back uncorrectable (the
/// distance-4 guarantee — every bit of the element storage is part of the
/// codeword for the SECDED element schemes).
template <class ES>
void elem_exhaustive_double_flips() {
  static_assert(ES::kScheme == ecc::Scheme::secded64 ||
                ES::kScheme == ecc::Scheme::secded128);
  using Index = typename ES::index_type;
  constexpr unsigned kBits = 64 + std::numeric_limits<Index>::digits;
  Xoshiro256 rng(31);
  const double v0 = rng.uniform(-10, 10);
  const Index c0 = static_cast<Index>(rng()) & ES::kColMask;
  for (unsigned b1 = 0; b1 < kBits; ++b1) {
    for (unsigned b2 = b1 + 1; b2 < kBits; ++b2) {
      double v = v0;
      Index c = c0;
      ES::encode(v, c);
      const auto flip = [&](unsigned bit) {
        if (bit < 64) {
          v = bits_to_double(flip_bit(double_to_bits(v), bit));
        } else {
          c = static_cast<Index>(flip_bit(c, bit - 64));
        }
      };
      flip(b1);
      flip(b2);
      double vd;
      Index cd;
      ASSERT_EQ(ES::decode(v, c, vd, cd), CheckOutcome::uncorrectable)
          << "bits " << b1 << "," << b2;
    }
  }
}

/// Exhaustive double-flip sweep over one SECDED structure codeword group.
/// Pairs with both bits inside the codeword are uncorrectable; a pair with
/// one bit in an unused spare slot degrades to a corrected single; a pair
/// entirely in unused spare bits is invisible.
template <class SS>
void struct_exhaustive_double_flips() {
  static_assert(SS::kScheme == ecc::Scheme::secded64 ||
                SS::kScheme == ecc::Scheme::secded128);
  using Index = typename SS::index_type;
  constexpr unsigned kIndexBits = std::numeric_limits<Index>::digits;
  constexpr unsigned kBits = SS::kGroup * kIndexBits;
  Xoshiro256 rng(37);
  Index vals[SS::kGroup];
  for (auto& v : vals) v = static_cast<Index>(rng()) & SS::kValueMask;
  const auto in_codeword = [](unsigned bit) {
    return expected_row_flip<SS>((bit / kIndexBits) % SS::kGroup, bit % kIndexBits) ==
           CheckOutcome::corrected;
  };
  for (unsigned b1 = 0; b1 < kBits; ++b1) {
    for (unsigned b2 = b1 + 1; b2 < kBits; ++b2) {
      Index storage[SS::kGroup], decoded[SS::kGroup];
      SS::encode_group(vals, storage);
      storage[b1 / kIndexBits] =
          static_cast<Index>(flip_bit(storage[b1 / kIndexBits], b1 % kIndexBits));
      storage[b2 / kIndexBits] =
          static_cast<Index>(flip_bit(storage[b2 / kIndexBits], b2 % kIndexBits));
      const auto outcome = SS::decode_group(storage, decoded);
      const unsigned covered =
          (in_codeword(b1) ? 1u : 0u) + (in_codeword(b2) ? 1u : 0u);
      const CheckOutcome expected = covered == 2   ? CheckOutcome::uncorrectable
                                    : covered == 1 ? CheckOutcome::corrected
                                                   : CheckOutcome::ok;
      ASSERT_EQ(outcome, expected) << "bits " << b1 << "," << b2;
    }
  }
}

// ---------------------------------------------------------------------------
// CRC32C double-flip sweeps: "detect, never miscorrect". A double-bit error
// must never come back as `corrected` (a miscorrection would silently write
// wrong data) nor as `ok` — with CRC32C's HD=4 at these codeword sizes every
// pair lands on `uncorrectable`. The row and small-tile codewords are swept
// at decode level (every distinct memory-bit pair through the real decoder);
// the full 64-slot tile is proved in syndrome space, where CRC affinity makes
// the 19M-pair check a set-membership problem instead of 19M decodes.
// ---------------------------------------------------------------------------

/// Every distinct bit pair of one per-row CRC32C codeword is uncorrectable.
/// nnz = 4 makes the codeword spare-free: all four column top bytes hold
/// checksum, so every memory bit is covered (384 bits at 32-bit indices,
/// 512 at 64-bit).
template <class ES>
void crc_row_exhaustive_double_flips() {
  using Index = typename ES::index_type;
  constexpr unsigned kElemBits = 64 + std::numeric_limits<Index>::digits;
  constexpr std::size_t kNnz = 4;
  Xoshiro256 rng(53);
  auto clean = make_crc_row<ES>(kNnz, rng);
  ES::encode_row(clean.values.data(), clean.cols.data(), kNnz);
  const auto flip = [](CrcRow<ES>& row, unsigned bit) {
    const std::size_t e = bit / kElemBits;
    const unsigned b = bit % kElemBits;
    if (b < 64) {
      row.values[e] = bits_to_double(flip_bit(double_to_bits(row.values[e]), b));
    } else {
      row.cols[e] = static_cast<Index>(flip_bit(row.cols[e], b - 64));
    }
  };
  constexpr unsigned kBits = kNnz * kElemBits;
  for (unsigned b1 = 0; b1 < kBits; ++b1) {
    for (unsigned b2 = b1 + 1; b2 < kBits; ++b2) {
      auto row = clean;
      flip(row, b1);
      flip(row, b2);
      ASSERT_EQ(ES::decode_row(row.values.data(), row.cols.data(), kNnz),
                CheckOutcome::uncorrectable)
          << "bits " << b1 << "," << b2;
    }
  }
}

/// Every distinct memory-bit pair of one small (sub-tile) CRC32C tile through
/// the real decoder. Slots 4+ carry unused spare top-byte bits, so the
/// contract mirrors the structure-scheme double sweep: both flips covered →
/// uncorrectable, one covered → corrected single with the slab restored
/// bit-exactly, both in spares → invisible.
template <class ES>
void tile_exhaustive_double_flips(std::size_t total = 8) {
  using Index = typename ES::index_type;
  const unsigned kElemBits = 64 + std::numeric_limits<Index>::digits;
  ASSERT_LE(total, TileGeometry::kMinSlots)
      << "sweep expects a single (sub-tile) slab at every runtime geometry";
  Xoshiro256 rng(59);
  auto clean = make_crc_row<ES>(total, rng);
  ES::encode_tile(clean.values.data(), clean.cols.data(), total);
  const auto flip = [&](CrcRow<ES>& slab, unsigned bit) {
    const std::size_t e = bit / kElemBits;
    const unsigned b = bit % kElemBits;
    if (b < 64) {
      slab.values[e] = bits_to_double(flip_bit(double_to_bits(slab.values[e]), b));
    } else {
      slab.cols[e] = static_cast<Index>(flip_bit(slab.cols[e], b - 64));
    }
  };
  const auto covered = [&](unsigned bit) {
    const std::size_t e = bit / kElemBits;
    const unsigned b = bit % kElemBits;
    return b < 64 + ES::kColBits || e < 4;
  };
  const unsigned kBits = static_cast<unsigned>(total) * kElemBits;
  for (unsigned b1 = 0; b1 < kBits; ++b1) {
    for (unsigned b2 = b1 + 1; b2 < kBits; ++b2) {
      auto slab = clean;
      flip(slab, b1);
      flip(slab, b2);
      const unsigned ncovered = (covered(b1) ? 1u : 0u) + (covered(b2) ? 1u : 0u);
      const CheckOutcome expected = ncovered == 2   ? CheckOutcome::uncorrectable
                                    : ncovered == 1 ? CheckOutcome::corrected
                                                    : CheckOutcome::ok;
      ASSERT_EQ(ES::decode_tile(slab.values.data(), slab.cols.data(), total),
                expected)
          << "bits " << b1 << "," << b2;
      if (ncovered != 1) continue;
      // The covered flip was repaired; the spare flip survives untouched in
      // a masked-out bit, so compare through the mask.
      for (std::size_t e = 0; e < total; ++e) {
        ASSERT_EQ(double_to_bits(slab.values[e]), double_to_bits(clean.values[e]))
            << "bits " << b1 << "," << b2 << " at " << e;
        ASSERT_EQ(slab.cols[e] & ES::kColMask, clean.cols[e] & ES::kColMask)
            << "bits " << b1 << "," << b2 << " at " << e;
      }
    }
  }
}

/// Syndrome-space proof that every double flip of a full-size CRC32C tile
/// codeword is uncorrectable. The CRC is affine over GF(2), so the syndrome
/// of any error set is the XOR of per-bit syndromes; a double flip escapes
/// detection iff two single-bit syndromes collide (syndrome 0) and
/// miscorrects iff a pair XOR lands on a third single-bit syndrome — both are
/// weight<=3 codewords, which HD=4 excludes. Verifying "all singles distinct,
/// no pair XOR is a single" over data bits plus the 32 stored checksum bits
/// therefore covers every pair without decoding ~19M corrupted tiles.
template <class ES>
void crc_tile_syndrome_space_double_flips(
    std::size_t slots = TileGeometry::kDefaultSlots) {
  using Index = typename ES::index_type;
  const std::size_t nbytes = slots * (8 + sizeof(Index));
  std::vector<std::uint8_t> buf(nbytes, 0);
  const std::uint32_t base = ecc::crc32c(buf.data(), nbytes);
  std::vector<std::uint32_t> singles;
  singles.reserve(nbytes * 8 + 32);
  for (std::size_t i = 0; i < nbytes; ++i) {
    for (unsigned b = 0; b < 8; ++b) {
      buf[i] = static_cast<std::uint8_t>(buf[i] ^ (1u << b));
      singles.push_back(ecc::crc32c(buf.data(), nbytes) ^ base);
      buf[i] = static_cast<std::uint8_t>(buf[i] ^ (1u << b));
    }
  }
  for (unsigned c = 0; c < 32; ++c) singles.push_back(std::uint32_t{1} << c);

  std::unordered_set<std::uint32_t> seen(singles.begin(), singles.end());
  ASSERT_EQ(seen.size(), singles.size())
      << "two single-bit syndromes collide: that pair would decode as clean";
  ASSERT_EQ(seen.count(0u), 0u) << "a single-bit flip is invisible to the CRC";
  for (std::size_t i = 0; i < singles.size(); ++i) {
    for (std::size_t j = i + 1; j < singles.size(); ++j) {
      ASSERT_EQ(seen.count(singles[i] ^ singles[j]), 0u)
          << "pair " << i << "," << j << " aliases a single-bit syndrome: "
          << "the decoder would miscorrect it";
    }
  }
}

}  // namespace abft::scheme_matrix
