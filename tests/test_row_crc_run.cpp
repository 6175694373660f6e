// Row-CRC run kernel (ecc::crc32c_rows behind schemes::ElemCrc32c's
// check_rows/encode_rows): on seeded random slab blocks, at both CRC32C
// kernels and both index widths, the failed-row mask of one check-only run
// must equal the per-row decode_row outcomes, and the run encode must write
// the bytes of an independent byte-packed reference. Ragged unit-stride CSR
// rows go through one-row runs (encode_row, decode_row) and are held to the
// same reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "abft/element_schemes.hpp"
#include "common/bits.hpp"
#include "common/rng.hpp"
#include "ecc/crc32c.hpp"

namespace {

using namespace abft;
using ecc::CrcImpl;

/// The CRC32C kernels to run every case under (hardware only when present).
std::vector<CrcImpl> impls() {
  std::vector<CrcImpl> out{CrcImpl::software};
  if (ecc::crc32c_hw_available()) out.push_back(CrcImpl::hardware);
  return out;
}

const char* impl_name(CrcImpl impl) { return impl == CrcImpl::hardware ? "hw" : "sw"; }

/// Restores the auto-detected kernel when a test leaves.
struct ImplGuard {
  ~ImplGuard() { ecc::set_crc32c_impl(CrcImpl::auto_detect); }
};

/// Storage for a run's rows: row k starts at starts[k] and has lens[k] slots,
/// strided by stride. A slab block has starts[k] = k and one common length
/// and is checked as one run; CSR rows (stride 1, any lengths) are checked
/// one row per run.
template <class Index>
struct Rows {
  std::vector<double> values;
  std::vector<Index> cols;
  std::vector<std::size_t> starts, lens;
  std::size_t stride = 1;
  bool slab = false;

  std::size_t slot(std::size_t k, std::size_t e) const { return starts[k] + e * stride; }
};

template <class Index>
Rows<Index> make_slab(std::size_t rows, std::size_t width, std::size_t stride) {
  Rows<Index> r;
  r.slab = true;
  r.stride = stride;
  r.values.resize(stride * width);
  r.cols.resize(stride * width);
  for (std::size_t k = 0; k < rows; ++k) {
    r.starts.push_back(k);
    r.lens.push_back(width);
  }
  return r;
}

template <class Index>
Rows<Index> make_csr(const std::vector<std::size_t>& lens, Xoshiro256& rng) {
  Rows<Index> r;
  std::size_t at = 0;
  for (const std::size_t len : lens) {
    at += rng.below(4);  // gaps between rows are never read
    r.starts.push_back(at);
    r.lens.push_back(len);
    at += len;
  }
  r.values.resize(at);
  r.cols.resize(at);
  return r;
}

/// Independent reference: the row's bytes packed (8 value bytes, then the
/// masked column) and checksummed with the byte-stream software kernel.
template <class ES, class Index>
std::uint32_t reference_crc(const Rows<Index>& r, std::size_t k) {
  std::vector<std::uint8_t> bytes;
  for (std::size_t e = 0; e < r.lens[k]; ++e) {
    const std::uint64_t v = double_to_bits(r.values[r.slot(k, e)]);
    const Index c = r.cols[r.slot(k, e)] & ES::kColMask;
    const auto* vp = reinterpret_cast<const std::uint8_t*>(&v);
    const auto* cp = reinterpret_cast<const std::uint8_t*>(&c);
    bytes.insert(bytes.end(), vp, vp + sizeof v);
    bytes.insert(bytes.end(), cp, cp + sizeof c);
  }
  return ecc::crc32c_sw(bytes.data(), bytes.size());
}

/// Fill every row with random values and columns and encode it with the
/// reference checksum.
template <class ES, class Index>
void fill_and_encode(Rows<Index>& r, Xoshiro256& rng) {
  for (std::size_t k = 0; k < r.starts.size(); ++k) {
    for (std::size_t e = 0; e < r.lens[k]; ++e) {
      r.values[r.slot(k, e)] = rng.uniform(-4, 4);
      r.cols[r.slot(k, e)] = static_cast<Index>(rng()) & ES::kColMask;
    }
    const std::uint32_t crc = reference_crc<ES>(r, k);
    for (std::size_t e = 0; e < 4 && e < r.lens[k]; ++e) {
      r.cols[r.slot(k, e)] |= static_cast<Index>(static_cast<Index>((crc >> (8 * e)) & 0xFF)
                                                 << ES::kColBits);
    }
  }
}

template <class ES, class Index>
std::uint64_t check_rows(const Rows<Index>& r) {
  if (r.slab) {
    return ES::check_rows(r.values.data(), r.cols.data(), r.starts.size(), r.lens[0],
                          r.stride);
  }
  std::uint64_t bad = 0;
  for (std::size_t k = 0; k < r.starts.size(); ++k) {
    bad |= ES::check_rows(r.values.data() + r.starts[k], r.cols.data() + r.starts[k], 1,
                          r.lens[k], 1)
           << k;
  }
  return bad;
}

template <class ES, class Index>
void encode_rows(Rows<Index>& r) {
  if (r.slab) {
    ES::encode_rows(r.values.data(), r.cols.data(), r.starts.size(), r.lens[0], r.stride);
  } else {
    for (std::size_t k = 0; k < r.starts.size(); ++k) {
      ES::encode_row(r.values.data() + r.starts[k], r.cols.data() + r.starts[k], r.lens[k]);
    }
  }
}

/// Number of flippable bits of row k: every value bit, every column bit
/// under the mask and every stored-checksum bit.
template <class ES, class Index>
std::size_t row_bits(const Rows<Index>& r, std::size_t k) {
  return r.lens[k] * (64 + ES::kColBits) + 8 * std::min<std::size_t>(4, r.lens[k]);
}

/// Flip bit \p b of row k in row_bits' numbering.
template <class ES, class Index>
void flip_row_bit(Rows<Index>& r, std::size_t k, std::size_t b) {
  const std::size_t value_bits = r.lens[k] * 64;
  const std::size_t col_bits = r.lens[k] * ES::kColBits;
  if (b < value_bits) {
    double& v = r.values[r.slot(k, b / 64)];
    v = bits_to_double(double_to_bits(v) ^ (std::uint64_t{1} << (b % 64)));
  } else if (b < value_bits + col_bits) {
    b -= value_bits;
    r.cols[r.slot(k, b / ES::kColBits)] ^= Index{1} << (b % ES::kColBits);
  } else {
    b -= value_bits + col_bits;
    r.cols[r.slot(k, b / 8)] ^= Index{1} << (ES::kColBits + b % 8);
  }
}

/// One seeded case: encode, compare the run encode with the reference,
/// corrupt a random subset of rows with one flip each, and require the run's
/// mask to equal both the corrupted set and the per-row decode_row outcomes
/// (which then repair the rows back to the clean encode).
template <class ES, class Index>
void run_case(Rows<Index> r, Xoshiro256& rng) {
  fill_and_encode<ES>(r, rng);
  const Rows<Index> clean = r;
  Rows<Index> encoded = r;
  encode_rows<ES>(encoded);
  ASSERT_EQ(encoded.cols, clean.cols) << "run encode differs from the reference";
  ASSERT_EQ(check_rows<ES>(r), 0u) << "clean rows reported failed";

  const std::size_t nrows = r.starts.size();
  std::uint64_t flipped = 0;
  for (std::size_t k = 0; k < nrows; ++k) {
    if (rng.below(3) != 0) continue;
    flip_row_bit<ES>(r, k, rng.below(row_bits<ES>(r, k)));
    flipped |= std::uint64_t{1} << k;
  }
  const std::uint64_t mask = check_rows<ES>(r);
  EXPECT_EQ(mask, flipped);
  for (std::size_t k = 0; k < nrows; ++k) {
    const auto outcome = ES::decode_row(r.values.data() + r.starts[k],
                                        r.cols.data() + r.starts[k], r.lens[k], r.stride);
    EXPECT_EQ(((mask >> k) & 1) != 0, outcome != CheckOutcome::ok) << "row " << k;
    EXPECT_NE(outcome, CheckOutcome::uncorrectable) << "row " << k;
  }
  EXPECT_EQ(r.cols, clean.cols);
  for (std::size_t i = 0; i < r.values.size(); ++i) {
    ASSERT_EQ(double_to_bits(r.values[i]), double_to_bits(clean.values[i])) << "slot " << i;
  }
}

/// Row counts and widths that reach every chain-group shape (8/4/2/1
/// chains) and cross 64 and 512 elements.
const std::size_t kRowCounts[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 63, 64};
const std::size_t kWidths[] = {4, 5, 7, 8, 31, 63, 64, 65, 100, 511, 512, 513, 600};

template <class ES>
void slab_cases(std::uint64_t seed) {
  using Index = typename ES::index_type;
  ImplGuard guard;
  for (const CrcImpl impl : impls()) {
    ecc::set_crc32c_impl(impl);
    std::uint64_t s = seed;
    for (const std::size_t rows : kRowCounts) {
      for (const std::size_t width : kWidths) {
        if (rows * width > 8192) continue;  // keep the case count cheap
        ++s;
        Xoshiro256 rng(s);
        // Stride C: the block's own height, or a taller slice (and ELL's
        // nrows) whose extra rows the run never reads.
        const std::size_t stride = rng.below(2) == 0 ? rows : rows + 1 + rng.below(40);
        SCOPED_TRACE("seed " + std::to_string(s) + " impl " + impl_name(impl) + " rows " +
                     std::to_string(rows) + " width " + std::to_string(width) + " stride " +
                     std::to_string(stride));
        run_case<ES>(make_slab<Index>(rows, width, stride), rng);
      }
    }
  }
}

template <class ES>
void csr_cases(std::uint64_t seed) {
  using Index = typename ES::index_type;
  ImplGuard guard;
  for (const CrcImpl impl : impls()) {
    ecc::set_crc32c_impl(impl);
    std::uint64_t s = seed;
    for (const std::size_t rows : kRowCounts) {
      for (const std::size_t max_len : {8u, 70u, 600u}) {
        ++s;
        Xoshiro256 rng(s);
        std::vector<std::size_t> lens(rows);
        for (auto& len : lens) len = 4 + rng.below(max_len - 3);
        SCOPED_TRACE("seed " + std::to_string(s) + " impl " + impl_name(impl) + " rows " +
                     std::to_string(rows) + " max_len " + std::to_string(max_len));
        run_case<ES>(make_csr<Index>(lens, rng), rng);
      }
    }
  }
}

TEST(RowCrcRun, SlabMaskMatchesDecodeRow32) {
  slab_cases<schemes::ElemCrc32c<std::uint32_t>>(1000);
}
TEST(RowCrcRun, SlabMaskMatchesDecodeRow64) {
  slab_cases<schemes::ElemCrc32c<std::uint64_t>>(2000);
}
TEST(RowCrcRun, CsrRowsMatchDecodeRow32) {
  csr_cases<schemes::ElemCrc32c<std::uint32_t>>(3000);
}
TEST(RowCrcRun, CsrRowsMatchDecodeRow64) {
  csr_cases<schemes::ElemCrc32c<std::uint64_t>>(4000);
}

/// Every value, column and stored-checksum bit of one sample row, flipped
/// alone, must set exactly that row's bit; every 16th flip is also repaired
/// through decode_row.
template <class ES>
void every_bit_of_a_row(Rows<typename ES::index_type> r, std::size_t sample, std::uint64_t seed) {
  ImplGuard guard;
  for (const CrcImpl impl : impls()) {
    ecc::set_crc32c_impl(impl);
    Xoshiro256 rng(seed);
    SCOPED_TRACE("seed " + std::to_string(seed) + " impl " + impl_name(impl));
    fill_and_encode<ES>(r, rng);
    const auto clean = r;
    for (std::size_t b = 0; b < row_bits<ES>(r, sample); ++b) {
      flip_row_bit<ES>(r, sample, b);
      ASSERT_EQ(check_rows<ES>(r), std::uint64_t{1} << sample) << "bit " << b;
      if (b % 16 == 0) {
        ASSERT_EQ(ES::decode_row(r.values.data() + r.starts[sample],
                                 r.cols.data() + r.starts[sample], r.lens[sample], r.stride),
                  CheckOutcome::corrected)
            << "bit " << b;
        ASSERT_EQ(r.cols, clean.cols) << "bit " << b;
        ASSERT_EQ(std::memcmp(r.values.data(), clean.values.data(),
                              r.values.size() * sizeof(double)),
                  0)
            << "bit " << b;
      } else {
        flip_row_bit<ES>(r, sample, b);
      }
    }
  }
}

TEST(RowCrcRun, EveryBitOfASlabRowSetsOnlyItsBit) {
  // C = 16 with a width past 64: the SELL shape of the service operator's
  // wide slices.
  every_bit_of_a_row<schemes::ElemCrc32c<std::uint32_t>>(
      make_slab<std::uint32_t>(16, 65, 16), 5, 5000);
  every_bit_of_a_row<schemes::ElemCrc32c<std::uint64_t>>(
      make_slab<std::uint64_t>(16, 65, 16), 13, 5001);
}

TEST(RowCrcRun, EveryBitOfACsrRowSetsOnlyItsBit) {
  Xoshiro256 gaps(5002);
  every_bit_of_a_row<schemes::ElemCrc32c<std::uint32_t>>(
      make_csr<std::uint32_t>({70, 4, 9, 100, 5, 66}, gaps), 3, 5003);
  every_bit_of_a_row<schemes::ElemCrc32c<std::uint64_t>>(
      make_csr<std::uint64_t>({70, 4, 9, 100, 5, 66}, gaps), 0, 5004);
}

}  // namespace
