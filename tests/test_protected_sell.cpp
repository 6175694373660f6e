// ProtectedSell — the SELL-C-sigma protected container through the
// format-generic stack: typed encode/decode/flip suites at both index widths
// (shared harness, tests/scheme_matrix.hpp), bit-identical SpMV equivalence
// against the CSR path (unprotected and protected vectors, every dispatchable
// scheme combination), permutation guard behaviour, and CG-on-SELL with
// injected faults, including the generic checkpoint-restart wrapper.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "abft/abft.hpp"
#include "common/rng.hpp"
#include "faults/injector.hpp"
#include "scheme_matrix.hpp"
#include "solvers/solvers.hpp"
#include "sparse/generators.hpp"
#include "sparse/transform.hpp"

namespace {

using namespace abft;

// ---------------------------------------------------------------------------
// Typed (width x element x structure) suite through the shared harness.
// ---------------------------------------------------------------------------

template <class Combo>
class ProtectedSellTest : public ::testing::Test {};

template <class I, class E, class S>
struct ComboSell {
  using Index = I;
  using ES = E;
  using SS = S;
  using PM = ProtectedSell<I, E, S>;
};

using CombosSell = ::testing::Types<
    // 32-bit width: uniform scheme rows of the matrix, plus mixed combos.
    ComboSell<std::uint32_t, schemes::ElemNone<std::uint32_t>,
              schemes::StructNone<std::uint32_t>>,
    ComboSell<std::uint32_t, schemes::ElemSed<std::uint32_t>,
              schemes::StructSed<std::uint32_t>>,
    ComboSell<std::uint32_t, schemes::ElemSecded<std::uint32_t>,
              schemes::StructSecded<std::uint32_t>>,
    ComboSell<std::uint32_t, schemes::ElemSecded<std::uint32_t>,
              schemes::StructSecded128<std::uint32_t>>,
    ComboSell<std::uint32_t, schemes::ElemCrc32c<std::uint32_t>,
              schemes::StructCrc32c<std::uint32_t>>,
    ComboSell<std::uint32_t, schemes::ElemCrc32c<std::uint32_t>,
              schemes::StructSecded<std::uint32_t>>,
    ComboSell<std::uint32_t, schemes::ElemCrc32cTile<std::uint32_t>,
              schemes::StructCrc32c<std::uint32_t>>,
    // 64-bit width.
    ComboSell<std::uint64_t, schemes::ElemNone<std::uint64_t>,
              schemes::StructNone<std::uint64_t>>,
    ComboSell<std::uint64_t, schemes::ElemSed<std::uint64_t>,
              schemes::StructSed<std::uint64_t>>,
    ComboSell<std::uint64_t, schemes::ElemSecded<std::uint64_t>,
              schemes::StructSecded<std::uint64_t>>,
    ComboSell<std::uint64_t, schemes::ElemSecded<std::uint64_t>,
              schemes::StructSecded128<std::uint64_t>>,
    ComboSell<std::uint64_t, schemes::ElemCrc32c<std::uint64_t>,
              schemes::StructCrc32c<std::uint64_t>>,
    ComboSell<std::uint64_t, schemes::ElemCrc32cTile<std::uint64_t>,
              schemes::StructSecded<std::uint64_t>>,
    ComboSell<std::uint64_t, schemes::ElemSecded<std::uint64_t>,
              schemes::StructCrc32c<std::uint64_t>>>;
TYPED_TEST_SUITE(ProtectedSellTest, CombosSell);

template <class Index, class ES>
sparse::Sell<Index> sell_matrix(std::size_t nx = 11, std::size_t ny = 9) {
  const auto a32 = sparse::laplacian_2d(nx, ny);
  if constexpr (std::is_same_v<Index, std::uint32_t>) {
    return sparse::Sell<Index>::from_csr(a32, ES::kMinRowNnz);
  } else {
    return sparse::Sell<Index>::from_csr(sparse::Csr<Index>::from_csr(a32),
                                         ES::kMinRowNnz);
  }
}

TYPED_TEST(ProtectedSellTest, RoundTripPreservesMatrix) {
  scheme_matrix::container_round_trip<typename TypeParam::PM>(
      sell_matrix<typename TypeParam::Index, typename TypeParam::ES>());
}

TYPED_TEST(ProtectedSellTest, SingleValueFlipFollowsSchemeContract) {
  const auto a = sell_matrix<typename TypeParam::Index, typename TypeParam::ES>();
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    scheme_matrix::container_value_flips<typename TypeParam::PM>(a, seed);
  }
}

TYPED_TEST(ProtectedSellTest, SingleStructureFlipFollowsSchemeContract) {
  const auto a = sell_matrix<typename TypeParam::Index, typename TypeParam::ES>();
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    scheme_matrix::container_structure_flips<typename TypeParam::PM>(a, seed);
  }
}

TYPED_TEST(ProtectedSellTest, SpmvMatchesBaselineInBothModes) {
  using PM = typename TypeParam::PM;
  const auto a = sell_matrix<typename TypeParam::Index, typename TypeParam::ES>();
  auto p = PM::from_plain(a);
  Xoshiro256 rng(6);
  std::vector<double> x(a.ncols()), yref(a.nrows()), y(a.nrows());
  for (auto& v : x) v = rng.uniform(-2, 2);
  sparse::spmv(a, x.data(), yref.data());
  for (CheckMode mode : {CheckMode::full, CheckMode::bounds_only}) {
    scheme_matrix::spmv_unprotected(p, x, y, mode);
    for (std::size_t i = 0; i < a.nrows(); ++i) EXPECT_EQ(y[i], yref[i]) << i;
  }
}

TYPED_TEST(ProtectedSellTest, RowAccessorsDecodeStructureAndElements) {
  using PM = typename TypeParam::PM;
  const auto a = sell_matrix<typename TypeParam::Index, typename TypeParam::ES>(5, 4);
  auto p = PM::from_plain(a);
  // Accessors take *original* row indices; compare against the stored slots
  // through the permutation.
  std::vector<std::size_t> inv(a.nrows());
  for (std::size_t i = 0; i < a.nrows(); ++i) inv[a.perm()[i]] = i;
  for (std::size_t r = 0; r < a.nrows(); ++r) {
    const std::size_t pos = inv[r];
    ASSERT_EQ(p.row_nnz_at(r), a.row_nnz()[pos]) << r;
    for (std::size_t j = 0; j < a.row_nnz()[pos]; ++j) {
      const auto el = p.element_in_row(r, j);
      EXPECT_EQ(el.value, a.values()[a.slot(pos, j)]);
      EXPECT_EQ(el.col, a.cols()[a.slot(pos, j)]);
    }
  }
}

// ---------------------------------------------------------------------------
// Fault response and construction guards.
// ---------------------------------------------------------------------------

TEST(ProtectedSellFaults, BoundsGuardCatchesCorruptColumnInSkipMode) {
  using ES = schemes::ElemSed<std::uint32_t>;
  const auto a = sell_matrix<std::uint32_t, ES>();
  FaultLog log;
  auto p = ProtectedSell<std::uint32_t, ES, schemes::StructSed<std::uint32_t>>::from_sell(
      a, &log, DuePolicy::record_only);
  p.raw_cols()[7] = ES::kColMask;  // masked value still >= ncols
  std::vector<double> x(a.ncols(), 1.0), y(a.nrows());
  scheme_matrix::spmv_unprotected(p, x, y, CheckMode::bounds_only);
  EXPECT_GE(log.bounds_violations(), 1u);
  EXPECT_EQ(log.uncorrectable(), 0u);
}

TEST(ProtectedSellFaults, BoundsGuardCatchesCorruptRowLengthInSkipMode) {
  using ES = schemes::ElemNone<std::uint32_t>;
  using SS = schemes::StructNone<std::uint32_t>;
  const auto a = sell_matrix<std::uint32_t, ES>();
  FaultLog log;
  auto p = ProtectedSell<std::uint32_t, ES, SS>::from_sell(a, &log, DuePolicy::record_only);
  // Corrupt the stored length of the row holding original row 3.
  std::size_t pos = 0;
  for (std::size_t i = 0; i < a.nrows(); ++i) {
    if (a.perm()[i] == 3) pos = i;
  }
  p.raw_structure()[p.row_len_offset() + pos] = 1000;  // way beyond any slice width
  std::vector<double> x(a.ncols(), 1.0), y(a.nrows());
  scheme_matrix::spmv_unprotected(p, x, y, CheckMode::bounds_only);
  EXPECT_GE(log.bounds_violations(), 1u);
  EXPECT_EQ(y[3], 0.0);  // the guarded row yields zero instead of a segfault
}

TEST(ProtectedSellFaults, CorruptPermutationIsBoundsGuarded) {
  // A permutation entry corrupted beyond the chunk (or the matrix) must be
  // dropped with a bounds violation — the displaced output row reads 0, and
  // no out-of-range y write ever happens.
  using ES = schemes::ElemNone<std::uint32_t>;
  using SS = schemes::StructNone<std::uint32_t>;
  const auto a = sell_matrix<std::uint32_t, ES>();
  FaultLog log;
  auto p = ProtectedSell<std::uint32_t, ES, SS>::from_sell(a, &log, DuePolicy::record_only);
  const std::uint32_t victim = p.raw_structure()[p.perm_offset() + 5];
  p.raw_structure()[p.perm_offset() + 5] = 1 << 20;  // far outside the matrix
  std::vector<double> x(a.ncols(), 1.0), y(a.nrows(), -3.0);
  scheme_matrix::spmv_unprotected(p, x, y, CheckMode::bounds_only);
  EXPECT_GE(log.bounds_violations(), 1u);
  EXPECT_EQ(y[victim], 0.0);  // its sum was dropped, not misdirected

  // The slow-path accessors spot the inverse-permutation mismatch too.
  EXPECT_EQ(p.row_nnz_at(victim), 0u);
  EXPECT_THROW((void)p.element_in_row(victim, 0), BoundsViolation);
}

TEST(ProtectedSellFaults, CorruptSliceWidthIsBoundsGuarded) {
  using ES = schemes::ElemNone<std::uint32_t>;
  using SS = schemes::StructNone<std::uint32_t>;
  const auto a = sell_matrix<std::uint32_t, ES>();
  FaultLog log;
  auto p = ProtectedSell<std::uint32_t, ES, SS>::from_sell(a, &log, DuePolicy::record_only);
  p.raw_structure()[0] = 5000;  // beyond the slab
  std::vector<double> x(a.ncols(), 1.0), y(a.nrows());
  scheme_matrix::spmv_unprotected(p, x, y, CheckMode::bounds_only);
  EXPECT_GE(log.bounds_violations(), 1u);
  // The clamp keeps the true width, so the results are still exact.
  std::vector<double> yref(a.nrows());
  sparse::spmv(a, x.data(), yref.data());
  for (std::size_t i = 0; i < a.nrows(); ++i) EXPECT_EQ(y[i], yref[i]) << i;
  // to_sell must emit a structurally valid matrix despite the corruption.
  EXPECT_NO_THROW(p.to_sell().validate());
}

TEST(ProtectedSellFaults, WidthLimitEnforcedForPerRowCrc) {
  // A slice narrower than the 4 checksum slots must be rejected with a hint.
  const auto a = sparse::laplacian_2d(6, 6);
  const auto narrow = sparse::SellMatrix::from_csr(a);  // widths 3..5
  using PM = ProtectedSell<std::uint32_t, schemes::ElemCrc32c<std::uint32_t>,
                           schemes::StructNone<std::uint32_t>>;
  EXPECT_THROW((void)PM::from_sell(narrow), std::invalid_argument);
  // from_csr with min_width is the documented remedy.
  const auto fixed = sparse::SellMatrix::from_csr(a, 4);
  EXPECT_NO_THROW((void)PM::from_sell(fixed));
}

TEST(ProtectedSellFaults, NonChunkLocalPermutationIsRejected) {
  // A sort window that crosses the 64-row SpMV chunks would scatter row sums
  // into foreign y codeword groups; from_sell must reject it loudly. Rows
  // with strictly cycling lengths guarantee the 128-row window actually
  // moves rows across the 64-row boundary.
  sparse::CsrMatrix a(128, 128);
  auto& row_ptr = a.row_ptr();
  auto& cols = a.cols();
  auto& values = a.values();
  Xoshiro256 rng(3);
  for (std::size_t r = 0; r < 128; ++r) {
    row_ptr[r] = static_cast<std::uint32_t>(values.size());
    const std::size_t len = 1 + (r % 5);
    for (std::size_t j = 0; j < len; ++j) {
      cols.push_back(static_cast<std::uint32_t>((r + j * 13) % 128));
      values.push_back(rng.uniform(-1, 1));
    }
    std::sort(cols.end() - static_cast<std::ptrdiff_t>(len), cols.end());
    cols.erase(std::unique(cols.end() - static_cast<std::ptrdiff_t>(len), cols.end()),
               cols.end());
    values.resize(cols.size());
  }
  row_ptr[128] = static_cast<std::uint32_t>(values.size());
  a.validate();

  const auto bad = sparse::SellMatrix::from_csr(a, 0, 32, 128);
  using PM = ProtectedSell<std::uint32_t, schemes::ElemNone<std::uint32_t>,
                           schemes::StructNone<std::uint32_t>>;
  try {
    (void)PM::from_sell(bad);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("sort window"), std::string::npos) << e.what();
  }
  // The default window is accepted.
  EXPECT_NO_THROW((void)PM::from_sell(sparse::SellMatrix::from_csr(a)));
}

// ---------------------------------------------------------------------------
// Full dispatch matrix: protected SELL SpMV must run end-to-end under every
// applicable (width x element x structure x vector) combination and produce
// storage bit-identical to the CSR path on the same stencil matrix.
// ---------------------------------------------------------------------------

TEST(ProtectedSellDispatch, SpmvMatchesCsrAcrossFullSchemeMatrix) {
  const auto a32 = sparse::laplacian_2d(12, 10);
  Xoshiro256 rng(12);
  std::vector<double> x0(a32.ncols());
  for (auto& v : x0) v = rng.uniform(-2, 2);

  const auto run = [&](MatrixFormat fmt, IndexWidth width, const SchemeTriple& t) {
    return dispatch_protection(
        fmt, width, t,
        [&]<class Fmt, class Index, class ES, class SS, class VS>() {
          using PM = typename Fmt::template protected_matrix<Index, ES, SS>;
          const auto a = Fmt::template make_plain<Index, ES>(a32);
          auto pa = PM::from_plain(a);
          ProtectedVector<VS> x(a.ncols()), y(a.nrows());
          x.assign({x0.data(), x0.size()});
          spmv(pa, x, y);
          return std::vector<double>(y.raw().begin(), y.raw().end());
        });
  };

  for (auto width : {IndexWidth::i32, IndexWidth::i64}) {
    for (auto es : ecc::kAllSchemes) {
      if (width == IndexWidth::i32 && es == ecc::Scheme::secded128) continue;
      for (auto ss : ecc::kAllSchemes) {
        for (auto vs : ecc::kAllSchemes) {
          const SchemeTriple t(es, ss, vs);
          // crc32c-tile has no CSR layout; the per-row CRC is the CSR
          // reference (the decoded operator — and therefore y — is
          // identical, only the codeword layout differs).
          const SchemeTriple t_csr(
              es == ecc::Scheme::crc32c_tile ? ecc::Scheme::crc32c : es, ss, vs);
          const auto y_csr = run(MatrixFormat::csr, width, t_csr);
          const auto y_sell = run(MatrixFormat::sell, width, t);
          ASSERT_EQ(y_csr.size(), y_sell.size());
          for (std::size_t i = 0; i < y_csr.size(); ++i) {
            // Same row sums, same vector encoding: the protected storage of
            // y must agree bit for bit between the two formats.
            ASSERT_EQ(y_csr[i], y_sell[i])
                << "width=" << to_string(width) << " es=" << ecc::to_string(es)
                << " ss=" << ecc::to_string(ss) << " vs=" << ecc::to_string(vs)
                << " i=" << i;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Solvers over the SELL stack.
// ---------------------------------------------------------------------------

template <class ES, class SS, class VS>
std::pair<sparse::SellMatrix, aligned_vector<double>> ones_problem_sell(std::size_t nx,
                                                                        std::size_t ny) {
  auto a = sparse::SellMatrix::from_csr(sparse::laplacian_2d(nx, ny), ES::kMinRowNnz);
  aligned_vector<double> ones(a.nrows(), 1.0), rhs(a.nrows(), 0.0);
  sparse::spmv(a, ones.data(), rhs.data());
  return {std::move(a), std::move(rhs)};
}

TEST(ProtectedSellSolve, CgConvergesAndRepairsInjectedFlips) {
  using ES = schemes::ElemSecded<std::uint32_t>;
  using SS = schemes::StructSecded<std::uint32_t>;
  const auto [a, rhs] = ones_problem_sell<ES, SS, VecSecded64>(24, 24);
  const std::size_t n = a.nrows();

  FaultLog log;
  auto pa = ProtectedSell<std::uint32_t, ES, SS>::from_sell(a, &log, DuePolicy::record_only);
  ProtectedVector<VecSecded64> b(n, &log, DuePolicy::record_only);
  ProtectedVector<VecSecded64> u(n, &log, DuePolicy::record_only);
  b.assign({rhs.data(), n});

  faults::Injector injector(11);
  auto vals = pa.raw_values();
  injector.inject_single(
      {reinterpret_cast<std::uint8_t*>(vals.data()), vals.size_bytes()});
  auto st = pa.raw_structure();
  injector.inject_single({reinterpret_cast<std::uint8_t*>(st.data()), st.size_bytes()});

  solvers::SolveOptions opts;
  opts.tolerance = 1e-11;
  const auto res = solvers::cg_solve(pa, b, u, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_GE(log.corrected(), 1u);
  EXPECT_EQ(log.uncorrectable(), 0u);

  std::vector<double> got(n, 0.0);
  u.extract({got.data(), n});
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(got[i], 1.0, 1e-7);
}

TEST(ProtectedSellSolve, PcgAndJacobiRunOnSell) {
  using ES = schemes::ElemSed<std::uint32_t>;
  using SS = schemes::StructSed<std::uint32_t>;
  const auto [a, rhs] = ones_problem_sell<ES, SS, VecSed>(12, 12);
  const std::size_t n = a.nrows();
  auto pa = ProtectedSell<std::uint32_t, ES, SS>::from_sell(a);
  ProtectedVector<VecSed> b(n), u(n);
  b.assign({rhs.data(), n});

  solvers::SolveOptions opts;
  opts.tolerance = 1e-9;
  const auto pcg = solvers::pcg_jacobi_solve(pa, b, u, opts);
  EXPECT_TRUE(pcg.converged);

  ProtectedVector<VecSed> u2(n);
  opts.max_iterations = 20000;
  const auto jac = solvers::jacobi_solve(pa, b, u2, opts);
  EXPECT_TRUE(jac.converged);
}

TEST(ProtectedSellSolve, GenericRestartRecoversFromDueOnSell) {
  // SED detects but cannot correct -> DUE -> solve_with_restart re-encodes
  // from the pristine SELL checkpoint and retries; the generic wrapper also
  // exercises a non-CG solver (chebyshev).
  using ES = schemes::ElemSed<std::uint32_t>;
  using SS = schemes::StructSed<std::uint32_t>;
  using Matrix = ProtectedSell<std::uint32_t, ES, SS>;
  const auto [a, rhs] = ones_problem_sell<ES, SS, VecSed>(16, 16);
  const std::size_t n = a.nrows();
  FaultLog log;
  auto pa = Matrix::from_sell(a, &log);
  ProtectedVector<VecSed> b(n, &log), u(n, &log);
  b.assign({rhs.data(), n});

  auto values = pa.raw_values();
  faults::flip_bit({reinterpret_cast<std::uint8_t*>(values.data()), values.size_bytes()},
                   512);
  solvers::SolveOptions opts;
  opts.tolerance = 1e-10;
  opts.max_iterations = 4000;
  const auto res = solvers::solve_with_restart(
      [&opts](Matrix& m, ProtectedVector<VecSed>& bb, ProtectedVector<VecSed>& uu) {
        return solvers::chebyshev_solve(m, bb, uu, opts);
      },
      a, pa, b, u);
  EXPECT_FALSE(res.gave_up);
  EXPECT_EQ(res.restarts, 1u);
  EXPECT_TRUE(res.solve.converged);

  aligned_vector<double> got(n);
  u.extract(got);
  for (double g : got) EXPECT_NEAR(g, 1.0, 1e-5);
}

}  // namespace
