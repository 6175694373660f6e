// sparse::Sell — the SELL-C-sigma container: CSR round trips (including
// adversarial row-length distributions through the CSR<->ELL<->SELL converter
// chain), permutation correctness, bit-identical SpMV against CSR, and
// structural validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sparse/csr.hpp"
#include "sparse/ell.hpp"
#include "sparse/generators.hpp"
#include "sparse/sell.hpp"

namespace {

using namespace abft;

/// Build a CSR matrix with the given per-row lengths: distinct ascending
/// random columns, random values. Lets the property tests dial in
/// adversarial distributions (empty rows, one dense row, all-equal rows).
sparse::CsrMatrix csr_from_row_lengths(std::size_t ncols,
                                       const std::vector<std::size_t>& lens,
                                       Xoshiro256& rng) {
  sparse::CsrMatrix out(lens.size(), ncols);
  auto& row_ptr = out.row_ptr();
  auto& cols = out.cols();
  auto& values = out.values();
  for (std::size_t r = 0; r < lens.size(); ++r) {
    row_ptr[r] = static_cast<std::uint32_t>(values.size());
    std::vector<std::uint32_t> picked;
    while (picked.size() < lens[r]) {
      const auto c = static_cast<std::uint32_t>(rng.below(ncols));
      if (std::find(picked.begin(), picked.end(), c) == picked.end()) {
        picked.push_back(c);
      }
    }
    std::sort(picked.begin(), picked.end());
    for (const auto c : picked) {
      cols.push_back(c);
      values.push_back(rng.uniform(-50, 50));
    }
  }
  row_ptr[lens.size()] = static_cast<std::uint32_t>(values.size());
  out.validate();
  return out;
}

void expect_csr_equal(const sparse::CsrMatrix& got, const sparse::CsrMatrix& want) {
  EXPECT_EQ(got.row_ptr(), want.row_ptr());
  EXPECT_EQ(got.cols(), want.cols());
  EXPECT_EQ(got.values(), want.values());
}

TEST(Sell, FromCsrRoundTripsStencilMatrix) {
  const auto a = sparse::laplacian_2d(13, 9);
  const auto s = sparse::SellMatrix::from_csr(a);
  EXPECT_EQ(s.nrows(), a.nrows());
  EXPECT_EQ(s.ncols(), a.ncols());
  EXPECT_EQ(s.nnz(), a.nnz());
  EXPECT_EQ(s.nslices(), (a.nrows() + s.slice_height() - 1) / s.slice_height());
  s.validate();
  expect_csr_equal(s.to_csr(), a);
}

TEST(Sell, SigmaSortingShrinksPaddingVersusEll) {
  // The 5-point Laplacian mixes row lengths 3/4/5; plain ELL pads everything
  // to 5, while sigma-sorted slices pad only to their own longest row.
  const auto a = sparse::laplacian_2d(32, 32);
  const auto e = sparse::EllMatrix::from_csr(a);
  const auto s = sparse::SellMatrix::from_csr(a);
  EXPECT_LT(s.slots(), e.nrows() * e.width());
  EXPECT_EQ(s.nnz(), e.nnz());
}

TEST(Sell, RoundTripsAdversarialRowLengthDistributions) {
  Xoshiro256 rng(5);
  const std::size_t n = 150;
  std::vector<std::vector<std::size_t>> distributions;
  // Empty rows scattered through random lengths.
  {
    std::vector<std::size_t> lens(n);
    for (auto& l : lens) l = rng.below(7);
    for (std::size_t r = 0; r < n; r += 11) lens[r] = 0;
    distributions.push_back(lens);
  }
  // One dense row in an otherwise sparse matrix.
  {
    std::vector<std::size_t> lens(n, 2);
    lens[n / 2] = n;
    distributions.push_back(lens);
  }
  // All-equal rows (no permutation movement at all).
  distributions.push_back(std::vector<std::size_t>(n, 4));
  // Strictly increasing lengths (maximum permutation movement per window).
  {
    std::vector<std::size_t> lens(n);
    for (std::size_t r = 0; r < n; ++r) lens[r] = r % 9;
    distributions.push_back(lens);
  }
  // All rows empty.
  distributions.push_back(std::vector<std::size_t>(n, 0));

  for (std::size_t d = 0; d < distributions.size(); ++d) {
    const auto a = csr_from_row_lengths(n, distributions[d], rng);
    for (const auto& [slice, window] :
         {std::pair<std::size_t, std::size_t>{1, 1}, {4, 8}, {7, 3}, {32, 64},
          {64, 64}, {256, 128}}) {
      const auto s = sparse::SellMatrix::from_csr(a, 0, slice, window);
      s.validate();
      SCOPED_TRACE("distribution " + std::to_string(d) + " C=" + std::to_string(slice) +
                   " sigma=" + std::to_string(window));
      expect_csr_equal(s.to_csr(), a);
    }
  }
}

TEST(Sell, RoundTripsThroughEllChain) {
  // CSR -> ELL -> CSR -> SELL -> CSR must be the identity: the converters
  // compose, so every pairwise conversion in the CSR<->ELL<->SELL triangle
  // is covered by the shared CSR interchange.
  Xoshiro256 rng(6);
  const auto a = sparse::random_spd(170, 6, /*seed=*/17);
  const auto via_ell = sparse::EllMatrix::from_csr(a).to_csr();
  expect_csr_equal(via_ell, a);
  const auto via_sell = sparse::SellMatrix::from_csr(via_ell).to_csr();
  expect_csr_equal(via_sell, a);
  const auto back_through_ell =
      sparse::EllMatrix::from_csr(sparse::SellMatrix::from_csr(a).to_csr()).to_csr();
  expect_csr_equal(back_through_ell, a);
}

TEST(Sell, PermutationIsInverseConsistentAndWindowSorted) {
  Xoshiro256 rng(7);
  std::vector<std::size_t> lens(130);
  for (auto& l : lens) l = rng.below(9);
  const auto a = csr_from_row_lengths(130, lens, rng);
  const std::size_t window = 16;
  const auto s = sparse::SellMatrix::from_csr(a, 0, 8, window);

  // perm is a bijection and the stored lengths match the original rows.
  std::vector<std::size_t> inv(s.nrows(), s.nrows());
  for (std::size_t i = 0; i < s.nrows(); ++i) {
    ASSERT_LT(s.perm()[i], s.nrows());
    ASSERT_EQ(inv[s.perm()[i]], s.nrows()) << "duplicate perm target";
    inv[s.perm()[i]] = i;
    EXPECT_EQ(s.row_nnz()[i], a.row_nnz(s.perm()[i])) << i;
  }
  for (std::size_t r = 0; r < s.nrows(); ++r) {
    ASSERT_LT(inv[r], s.nrows());
    EXPECT_EQ(s.perm()[inv[r]], r);
  }
  // Within every sort window the stored lengths are non-increasing and the
  // permutation never leaves the window.
  for (std::size_t w0 = 0; w0 < s.nrows(); w0 += window) {
    const std::size_t w1 = std::min(w0 + window, s.nrows());
    for (std::size_t i = w0; i < w1; ++i) {
      EXPECT_GE(s.perm()[i], w0);
      EXPECT_LT(s.perm()[i], w1);
      if (i > w0) {
        EXPECT_LE(s.row_nnz()[i], s.row_nnz()[i - 1]) << i;
      }
    }
  }
}

TEST(Sell, DefaultPermutationIsChunkLocal) {
  // The protected container requires the permutation to stay inside aligned
  // 64-row blocks; the default sort window must guarantee that.
  const auto a = sparse::random_spd(333, 5, /*seed=*/21);
  const auto s = sparse::SellMatrix::from_csr(a);
  for (std::size_t i = 0; i < s.nrows(); ++i) {
    EXPECT_EQ(i / 64, s.perm()[i] / 64) << i;
  }
}

TEST(Sell, MinWidthPadsSlicesNotRows) {
  const auto a = sparse::laplacian_2d(6, 6);
  const auto s = sparse::SellMatrix::from_csr(a, 8);
  for (std::size_t sl = 0; sl < s.nslices(); ++sl) EXPECT_GE(s.slice_width(sl), 8u);
  EXPECT_EQ(s.nnz(), a.nnz());  // padding slots are not non-zeros
  s.validate();
  expect_csr_equal(s.to_csr(), a);
}

TEST(Sell, SpmvBitIdenticalToCsr) {
  for (auto [nx, ny] : {std::pair<std::size_t, std::size_t>{16, 16}, {31, 5}}) {
    const auto a = sparse::laplacian_2d(nx, ny);
    const auto s = sparse::SellMatrix::from_csr(a);
    Xoshiro256 rng(9);
    std::vector<double> x(a.ncols()), y_csr(a.nrows()), y_sell(a.nrows());
    for (auto& v : x) v = rng.uniform(-3, 3);
    sparse::spmv(a, x.data(), y_csr.data());
    sparse::spmv(s, x.data(), y_sell.data());
    for (std::size_t i = 0; i < a.nrows(); ++i) {
      EXPECT_EQ(y_csr[i], y_sell[i]) << i;  // exact: same accumulation order per row
    }
  }
}

TEST(Sell, SpmvBitIdenticalToCsrOnIrregularMatrix) {
  Xoshiro256 rng(10);
  std::vector<std::size_t> lens(201);
  for (auto& l : lens) l = rng.below(11);
  lens[0] = 0;
  lens[200] = 150;
  const auto a = csr_from_row_lengths(201, lens, rng);
  for (const auto& [slice, window] :
       {std::pair<std::size_t, std::size_t>{32, 64}, {5, 20}, {1, 1}}) {
    const auto s = sparse::SellMatrix::from_csr(a, 0, slice, window);
    std::vector<double> x(a.ncols()), y_csr(a.nrows()), y_sell(a.nrows(), -7.0);
    for (auto& v : x) v = rng.uniform(-3, 3);
    sparse::spmv(a, x.data(), y_csr.data());
    sparse::spmv(s, x.data(), y_sell.data());
    for (std::size_t i = 0; i < a.nrows(); ++i) EXPECT_EQ(y_csr[i], y_sell[i]) << i;
  }
}

TEST(Sell, WideIndexConversionAgrees) {
  const auto a32 = sparse::laplacian_2d(9, 9);
  const auto s64 = sparse::Sell64Matrix::from_csr(sparse::Csr64Matrix::from_csr(a32));
  const auto s32 = sparse::SellMatrix::from_csr(a32);
  ASSERT_EQ(s64.slots(), s32.slots());
  ASSERT_EQ(s64.nslices(), s32.nslices());
  for (std::size_t k = 0; k < s32.values().size(); ++k) {
    EXPECT_EQ(s64.values()[k], s32.values()[k]);
    EXPECT_EQ(s64.cols()[k], static_cast<std::uint64_t>(s32.cols()[k]));
  }
  for (std::size_t i = 0; i < s32.nrows(); ++i) {
    EXPECT_EQ(s64.perm()[i], static_cast<std::uint64_t>(s32.perm()[i]));
  }
}

TEST(Sell, ValidateRejectsMalformedStructure) {
  const auto a = sparse::laplacian_2d(8, 8);
  auto s = sparse::SellMatrix::from_csr(a);
  s.row_nnz()[3] = 200;  // > slice width
  EXPECT_THROW(s.validate(), std::invalid_argument);

  auto s2 = sparse::SellMatrix::from_csr(a);
  s2.cols()[5] = 1000;  // >= ncols (64)
  EXPECT_THROW(s2.validate(), std::invalid_argument);

  auto s3 = sparse::SellMatrix::from_csr(a);
  s3.perm()[4] = s3.perm()[5];  // duplicate -> not a permutation
  EXPECT_THROW(s3.validate(), std::invalid_argument);

  auto s4 = sparse::SellMatrix::from_csr(a);
  s4.cols().pop_back();  // slab size mismatch
  EXPECT_THROW(s4.validate(), std::invalid_argument);

  auto s5 = sparse::SellMatrix::from_csr(a, 0, 16, 1);
  std::swap(s5.perm()[0], s5.perm()[1]);  // a permutation, but sort window 1
  EXPECT_THROW(s5.validate(), std::invalid_argument);
}

TEST(Sell, ConstructorRejectsBadShapes) {
  EXPECT_THROW(sparse::SellMatrix::from_csr(sparse::laplacian_2d(4, 4), 0, 0),
               std::invalid_argument);  // zero slice height
  const std::uint32_t widths[1] = {5};
  EXPECT_THROW(sparse::SellMatrix(100, 100, 32, {widths, 1}),
               std::invalid_argument);  // widths size != nslices
}

TEST(Sell, OneSliceOfAllRowsRoundTrips) {
  // C = nrows, sigma = 1 is ELLPACK: one slice far taller than any default
  // slice, the identity permutation and ELL's slab, slot for slot.
  const auto a = sparse::laplacian_2d(30, 30);  // 900 rows
  const auto s = sparse::SellMatrix::from_csr(a, 0, a.nrows(), 1);
  EXPECT_NO_THROW(s.validate());
  ASSERT_EQ(s.nslices(), 1u);
  EXPECT_EQ(s.slice_height(), a.nrows());
  for (std::size_t i = 0; i < a.nrows(); ++i) ASSERT_EQ(s.perm()[i], i);
  const auto e = sparse::EllMatrix::from_csr(a);
  EXPECT_EQ(s.values(), e.values());
  EXPECT_EQ(s.cols(), e.cols());
  const auto back = s.to_csr();
  EXPECT_EQ(back.row_ptr(), a.row_ptr());
  EXPECT_EQ(back.cols(), a.cols());
  EXPECT_EQ(back.values(), a.values());
}

TEST(Sell, AtLooksUpEntries) {
  const auto s = sparse::SellMatrix::from_csr(sparse::laplacian_2d(5, 5));
  EXPECT_EQ(s.at(12, 12), 4.0);   // interior diagonal
  EXPECT_EQ(s.at(12, 11), -1.0);  // west neighbour
  EXPECT_EQ(s.at(12, 0), 0.0);    // structural zero
}

}  // namespace
