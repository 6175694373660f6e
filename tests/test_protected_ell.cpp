// ProtectedEll — the ELLPACK protected container through the format-generic
// stack: typed encode/decode/flip suites at both index widths (shared
// harness, tests/scheme_matrix.hpp), bit-identical SpMV equivalence against
// the CSR path (unprotected and protected vectors, every dispatchable scheme
// combination), and CG-on-ELL with injected faults, including the generic
// checkpoint-restart wrapper.
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
class ProtectedEllTest : public ::testing::Test {};

template <class I, class E, class S>
struct ComboEll {
  using Index = I;
  using ES = E;
  using SS = S;
  using PM = ProtectedEll<I, E, S>;
};

using CombosEll = ::testing::Types<
    // 32-bit width: uniform scheme rows of the matrix, plus mixed combos.
    ComboEll<std::uint32_t, schemes::ElemNone<std::uint32_t>,
             schemes::StructNone<std::uint32_t>>,
    ComboEll<std::uint32_t, schemes::ElemSed<std::uint32_t>,
             schemes::StructSed<std::uint32_t>>,
    ComboEll<std::uint32_t, schemes::ElemSecded<std::uint32_t>,
             schemes::StructSecded<std::uint32_t>>,
    ComboEll<std::uint32_t, schemes::ElemSecded<std::uint32_t>,
             schemes::StructSecded128<std::uint32_t>>,
    ComboEll<std::uint32_t, schemes::ElemCrc32c<std::uint32_t>,
             schemes::StructCrc32c<std::uint32_t>>,
    ComboEll<std::uint32_t, schemes::ElemCrc32c<std::uint32_t>,
             schemes::StructSecded<std::uint32_t>>,
    ComboEll<std::uint32_t, schemes::ElemCrc32cTile<std::uint32_t>,
             schemes::StructCrc32c<std::uint32_t>>,
    // 64-bit width.
    ComboEll<std::uint64_t, schemes::ElemNone<std::uint64_t>,
             schemes::StructNone<std::uint64_t>>,
    ComboEll<std::uint64_t, schemes::ElemSed<std::uint64_t>,
             schemes::StructSed<std::uint64_t>>,
    ComboEll<std::uint64_t, schemes::ElemSecded<std::uint64_t>,
             schemes::StructSecded<std::uint64_t>>,
    ComboEll<std::uint64_t, schemes::ElemSecded<std::uint64_t>,
             schemes::StructSecded128<std::uint64_t>>,
    ComboEll<std::uint64_t, schemes::ElemCrc32c<std::uint64_t>,
             schemes::StructCrc32c<std::uint64_t>>,
    ComboEll<std::uint64_t, schemes::ElemCrc32cTile<std::uint64_t>,
             schemes::StructSecded<std::uint64_t>>,
    ComboEll<std::uint64_t, schemes::ElemSecded<std::uint64_t>,
             schemes::StructCrc32c<std::uint64_t>>>;
TYPED_TEST_SUITE(ProtectedEllTest, CombosEll);

template <class Index, class ES>
sparse::Ell<Index> ell_matrix(std::size_t nx = 11, std::size_t ny = 9) {
  const auto a32 = sparse::laplacian_2d(nx, ny);
  if constexpr (std::is_same_v<Index, std::uint32_t>) {
    return sparse::Ell<Index>::from_csr(a32, ES::kMinRowNnz);
  } else {
    return sparse::Ell<Index>::from_csr(sparse::Csr<Index>::from_csr(a32),
                                        ES::kMinRowNnz);
  }
}

TYPED_TEST(ProtectedEllTest, RoundTripPreservesMatrix) {
  scheme_matrix::container_round_trip<typename TypeParam::PM>(
      ell_matrix<typename TypeParam::Index, typename TypeParam::ES>());
}

TYPED_TEST(ProtectedEllTest, SingleValueFlipFollowsSchemeContract) {
  const auto a = ell_matrix<typename TypeParam::Index, typename TypeParam::ES>();
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    scheme_matrix::container_value_flips<typename TypeParam::PM>(a, seed);
  }
}

TYPED_TEST(ProtectedEllTest, SingleStructureFlipFollowsSchemeContract) {
  const auto a = ell_matrix<typename TypeParam::Index, typename TypeParam::ES>();
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    scheme_matrix::container_structure_flips<typename TypeParam::PM>(a, seed);
  }
}

TYPED_TEST(ProtectedEllTest, SpmvMatchesBaselineInBothModes) {
  using PM = typename TypeParam::PM;
  const auto a = ell_matrix<typename TypeParam::Index, typename TypeParam::ES>();
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

TYPED_TEST(ProtectedEllTest, RowAccessorsDecodeStructureAndElements) {
  using PM = typename TypeParam::PM;
  const auto a = ell_matrix<typename TypeParam::Index, typename TypeParam::ES>(5, 4);
  auto p = PM::from_plain(a);
  for (std::size_t r = 0; r < a.nrows(); ++r) {
    ASSERT_EQ(p.row_nnz_at(r), a.row_nnz()[r]) << r;
    for (std::size_t j = 0; j < a.row_nnz()[r]; ++j) {
      const auto el = p.element_in_row(r, j);
      EXPECT_EQ(el.value, a.values()[j * a.nrows() + r]);
      EXPECT_EQ(el.col, a.cols()[j * a.nrows() + r]);
    }
  }
}

// ---------------------------------------------------------------------------
// Fault response.
// ---------------------------------------------------------------------------

TEST(ProtectedEllFaults, BoundsGuardCatchesCorruptColumnInSkipMode) {
  using ES = schemes::ElemSed<std::uint32_t>;
  const auto a = ell_matrix<std::uint32_t, ES>();
  FaultLog log;
  auto p = ProtectedEll<std::uint32_t, ES, schemes::StructSed<std::uint32_t>>::from_ell(
      a, &log, DuePolicy::record_only);
  p.raw_cols()[7] = ES::kColMask;  // masked value still >= ncols
  std::vector<double> x(a.ncols(), 1.0), y(a.nrows());
  scheme_matrix::spmv_unprotected(p, x, y, CheckMode::bounds_only);
  EXPECT_GE(log.bounds_violations(), 1u);
  EXPECT_EQ(log.uncorrectable(), 0u);
}

TEST(ProtectedEllFaults, BoundsGuardCatchesCorruptRowWidthInSkipMode) {
  using ES = schemes::ElemNone<std::uint32_t>;
  using SS = schemes::StructNone<std::uint32_t>;
  const auto a = ell_matrix<std::uint32_t, ES>();
  FaultLog log;
  auto p = ProtectedEll<std::uint32_t, ES, SS>::from_ell(a, &log, DuePolicy::record_only);
  p.raw_row_nnz()[3] = 1000;  // way beyond the slab width
  std::vector<double> x(a.ncols(), 1.0), y(a.nrows());
  scheme_matrix::spmv_unprotected(p, x, y, CheckMode::bounds_only);
  EXPECT_GE(log.bounds_violations(), 1u);
  EXPECT_EQ(y[3], 0.0);  // the guarded row yields zero instead of a segfault
}

TEST(ProtectedEllFaults, CorruptRowWidthIsBoundsGuardedInRowAccessors) {
  // A width that survives corrupted beyond the slab width must read as an
  // empty row (logged bounds violation), not drive element_in_row past the
  // slabs; out-of-slab slots raise BoundsViolation for the recovery path.
  using ES = schemes::ElemNone<std::uint32_t>;
  using SS = schemes::StructNone<std::uint32_t>;
  const auto a = ell_matrix<std::uint32_t, ES>();
  FaultLog log;
  auto p = ProtectedEll<std::uint32_t, ES, SS>::from_ell(a, &log, DuePolicy::record_only);
  p.raw_row_nnz()[3] = 1000;  // way beyond the slab width
  EXPECT_EQ(p.row_nnz_at(3), 0u);
  EXPECT_GE(log.bounds_violations(), 1u);
  EXPECT_THROW((void)p.element_in_row(3, 999), BoundsViolation);
  // to_ell must emit a structurally valid matrix despite the corruption.
  EXPECT_NO_THROW(p.to_ell().validate());
}

TEST(ProtectedEllFaults, WidthLimitEnforcedForPerRowCrc) {
  // A slab narrower than the 4 checksum slots must be rejected with a hint.
  sparse::EllMatrix narrow(4, 4, 2);
  for (std::size_t r = 0; r < 4; ++r) {
    narrow.row_nnz()[r] = 1;
    narrow.values()[r] = 1.0;
    narrow.cols()[r] = static_cast<std::uint32_t>(r);
    narrow.cols()[4 + r] = static_cast<std::uint32_t>(r);
  }
  using PM = ProtectedEll<std::uint32_t, schemes::ElemCrc32c<std::uint32_t>,
                          schemes::StructNone<std::uint32_t>>;
  EXPECT_THROW((void)PM::from_ell(narrow), std::invalid_argument);
  // from_csr with min_width is the documented remedy.
  const auto fixed = sparse::EllMatrix::from_csr(narrow.to_csr(), 4);
  EXPECT_NO_THROW((void)PM::from_ell(fixed));
}

// ---------------------------------------------------------------------------
// Full dispatch matrix: protected ELL SpMV must run end-to-end under every
// applicable (width x element x structure x vector) combination and produce
// storage bit-identical to the CSR path on the same stencil matrix.
// ---------------------------------------------------------------------------

TEST(ProtectedEllDispatch, SpmvMatchesCsrAcrossFullSchemeMatrix) {
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
          const auto y_ell = run(MatrixFormat::ell, width, t);
          ASSERT_EQ(y_csr.size(), y_ell.size());
          for (std::size_t i = 0; i < y_csr.size(); ++i) {
            // Same row sums, same vector encoding: the protected storage of
            // y must agree bit for bit between the two formats.
            ASSERT_EQ(y_csr[i], y_ell[i])
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
// Solvers over the ELL stack.
// ---------------------------------------------------------------------------

template <class ES, class SS, class VS>
std::pair<sparse::EllMatrix, aligned_vector<double>> ones_problem_ell(std::size_t nx,
                                                                      std::size_t ny) {
  auto a = sparse::EllMatrix::from_csr(sparse::laplacian_2d(nx, ny), ES::kMinRowNnz);
  aligned_vector<double> ones(a.nrows(), 1.0), rhs(a.nrows(), 0.0);
  sparse::spmv(a, ones.data(), rhs.data());
  return {std::move(a), std::move(rhs)};
}

TEST(ProtectedEllSolve, CgConvergesAndRepairsInjectedFlips) {
  using ES = schemes::ElemSecded<std::uint32_t>;
  using SS = schemes::StructSecded<std::uint32_t>;
  const auto [a, rhs] = ones_problem_ell<ES, SS, VecSecded64>(24, 24);
  const std::size_t n = a.nrows();

  FaultLog log;
  auto pa = ProtectedEll<std::uint32_t, ES, SS>::from_ell(a, &log, DuePolicy::record_only);
  ProtectedVector<VecSecded64> b(n, &log, DuePolicy::record_only);
  ProtectedVector<VecSecded64> u(n, &log, DuePolicy::record_only);
  b.assign({rhs.data(), n});

  faults::Injector injector(11);
  auto vals = pa.raw_values();
  injector.inject_single(
      {reinterpret_cast<std::uint8_t*>(vals.data()), vals.size_bytes()});
  auto widths = pa.raw_row_nnz();
  injector.inject_single(
      {reinterpret_cast<std::uint8_t*>(widths.data()), widths.size_bytes()});

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

TEST(ProtectedEllSolve, PcgAndJacobiRunOnEll) {
  using ES = schemes::ElemSed<std::uint32_t>;
  using SS = schemes::StructSed<std::uint32_t>;
  const auto [a, rhs] = ones_problem_ell<ES, SS, VecSed>(12, 12);
  const std::size_t n = a.nrows();
  auto pa = ProtectedEll<std::uint32_t, ES, SS>::from_ell(a);
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

TEST(ProtectedEllSolve, GenericRestartRecoversFromDueOnEll) {
  // SED detects but cannot correct -> DUE -> solve_with_restart re-encodes
  // from the pristine ELL checkpoint and retries; the generic wrapper also
  // exercises a non-CG solver (chebyshev).
  using ES = schemes::ElemSed<std::uint32_t>;
  using SS = schemes::StructSed<std::uint32_t>;
  using Matrix = ProtectedEll<std::uint32_t, ES, SS>;
  const auto [a, rhs] = ones_problem_ell<ES, SS, VecSed>(16, 16);
  const std::size_t n = a.nrows();
  FaultLog log;
  auto pa = Matrix::from_ell(a, &log);
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
