// 64-bit-index protection (paper §V-B's "easily extended" scenario) through
// the *unified* width-parameterized stack: the same ProtectedCsr container,
// protected kernels and solvers that serve the 32-bit path, instantiated at
// Index = uint64_t. Scheme-level bit sweeps live in the shared harness
// (tests/scheme_matrix.hpp via test_element_schemes / test_row_schemes).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "abft/protected_csr.hpp"
#include "abft/protected_kernels.hpp"
#include "abft/protected_vector.hpp"
#include "common/rng.hpp"
#include "faults/injector.hpp"
#include "scheme_matrix.hpp"
#include "solvers/cg.hpp"
#include "sparse/csr.hpp"
#include "sparse/generators.hpp"
#include "sparse/transform.hpp"

namespace {

using namespace abft;

// ---------------------------------------------------------------------------
// Container round trips + SpMV over the (element x row) scheme combinations.
// ---------------------------------------------------------------------------

template <class Combo>
class ProtectedCsr64Test : public ::testing::Test {};

template <class E, class R>
struct Combo64 {
  using ES = E;
  using RS = R;
};

using Combos64 =
    ::testing::Types<Combo64<Elem64None, Row64None>, Combo64<Elem64Sed, Row64Sed>,
                     Combo64<Elem64Secded, Row64Secded>,
                     Combo64<Elem64Secded, Row64Secded128>,
                     Combo64<Elem64Crc32c, Row64Crc32c>,
                     Combo64<Elem64Secded, Row64Crc32c>>;
TYPED_TEST_SUITE(ProtectedCsr64Test, Combos64);

template <class ES>
sparse::Csr64Matrix matrix64() {
  auto a = sparse::laplacian_2d(11, 9);
  if constexpr (ES::kMinRowNnz > 1) a = sparse::pad_rows_to_min_nnz(a, ES::kMinRowNnz);
  return sparse::Csr64Matrix::from_csr(a);
}

TYPED_TEST(ProtectedCsr64Test, RoundTripPreservesMatrix) {
  using ES = typename TypeParam::ES;
  using RS = typename TypeParam::RS;
  const auto a = matrix64<ES>();
  auto p = ProtectedCsr<std::uint64_t, ES, RS>::from_csr(a);
  auto back = p.to_csr();
  EXPECT_EQ(back.row_ptr(), a.row_ptr());
  EXPECT_EQ(back.cols(), a.cols());
  EXPECT_EQ(back.values(), a.values());
  EXPECT_EQ(p.verify_all(), 0u);
}

TYPED_TEST(ProtectedCsr64Test, SpmvMatchesBaselineInBothModes) {
  using ES = typename TypeParam::ES;
  using RS = typename TypeParam::RS;
  const auto a = matrix64<ES>();
  auto p = ProtectedCsr<std::uint64_t, ES, RS>::from_csr(a);
  Xoshiro256 rng(6);
  std::vector<double> x(a.ncols()), yref(a.nrows()), y(a.nrows());
  for (auto& v : x) v = rng.uniform(-2, 2);
  sparse::spmv(a, x.data(), yref.data());
  for (CheckMode mode : {CheckMode::full, CheckMode::bounds_only}) {
    scheme_matrix::spmv_unprotected(p, x, y, mode);
    for (std::size_t i = 0; i < a.nrows(); ++i) EXPECT_EQ(y[i], yref[i]);
  }
}

// ---------------------------------------------------------------------------
// The shared protected kernels + CG solver over a 64-bit matrix — the same
// templates the 32-bit path uses, no width-specific kernel code involved.
// ---------------------------------------------------------------------------

TEST(ProtectedCsr64Kernels, SharedSpmvKernelMatchesBaseline) {
  const auto a = matrix64<Elem64Secded>();
  auto p = ProtectedCsr<std::uint64_t, Elem64Secded, Row64Secded>::from_csr(a);
  Xoshiro256 rng(7);
  // Pre-mask x so the reference sees exactly what the protected vector
  // stores; the result vector's own mantissa-LSB redundancy costs at most a
  // few ULPs per entry.
  std::vector<double> xref(a.ncols()), yref(a.nrows());
  for (auto& v : xref) v = VecSecded64::mask(rng.uniform(-2, 2));
  sparse::spmv(a, xref.data(), yref.data());

  ProtectedVector<VecSecded64> x(a.ncols()), y(a.nrows());
  x.assign({xref.data(), xref.size()});
  spmv(p, x, y);  // abft::spmv — the one kernel template, both widths
  for (std::size_t i = 0; i < a.nrows(); ++i) {
    EXPECT_NEAR(y.load(i), yref[i], 1e-12) << i;
  }
}

TEST(ProtectedCsr64Kernels, SharedCgSolverConvergesAndRepairsFlip) {
  auto a32 = sparse::laplacian_2d(24, 24);
  const auto a = sparse::Csr64Matrix::from_csr(a32);
  const std::size_t n = a.nrows();
  std::vector<double> ones(n, 1.0), rhs(n, 0.0);
  sparse::spmv(a, ones.data(), rhs.data());

  FaultLog log;
  auto pa = ProtectedCsr<std::uint64_t, Elem64Secded, Row64Secded>::from_csr(
      a, &log, DuePolicy::record_only);
  ProtectedVector<VecSecded64> b(n, &log, DuePolicy::record_only);
  ProtectedVector<VecSecded64> u(n, &log, DuePolicy::record_only);
  b.assign({rhs.data(), n});

  faults::Injector injector(11);
  auto vals = pa.raw_values();
  injector.inject_single(
      {reinterpret_cast<std::uint8_t*>(vals.data()), vals.size_bytes()});

  solvers::SolveOptions opts;
  opts.tolerance = 1e-11;
  const auto res = solvers::cg_solve(pa, b, u, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_GE(log.corrected(), 1u);

  std::vector<double> got(n, 0.0);
  u.extract({got.data(), n});
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(got[i], 1.0, 1e-7);
}

// ---------------------------------------------------------------------------
// Fault response and range limits.
// ---------------------------------------------------------------------------

TEST(ProtectedCsr64Faults, SecdedRepairsRandomFlips) {
  const auto a = matrix64<Elem64Secded>();
  FaultLog log;
  auto p = ProtectedCsr<std::uint64_t, Elem64Secded, Row64Secded>::from_csr(
      a, &log, DuePolicy::record_only);
  faults::Injector injector(7);
  auto vals = p.raw_values();
  injector.inject_multi({reinterpret_cast<std::uint8_t*>(vals.data()), vals.size_bytes()},
                        5);
  EXPECT_EQ(p.verify_all(), 0u);
  EXPECT_GE(log.corrected(), 1u);
  auto back = p.to_csr();
  EXPECT_EQ(back.values(), a.values());
}

TEST(ProtectedCsr64Faults, BoundsGuardInSkipMode) {
  const auto a = matrix64<Elem64Sed>();
  FaultLog log;
  auto p = ProtectedCsr<std::uint64_t, Elem64Sed, Row64Sed>::from_csr(
      a, &log, DuePolicy::record_only);
  p.raw_cols()[4] = Elem64Sed::kColMask;  // masked value still >= ncols
  std::vector<double> x(a.ncols(), 1.0), y(a.nrows());
  scheme_matrix::spmv_unprotected(p, x, y, CheckMode::bounds_only);
  EXPECT_GE(log.bounds_violations(), 1u);
  EXPECT_EQ(log.uncorrectable(), 0u);
}

TEST(ProtectedCsr64Limits, EnforcesSchemeRanges) {
  // A matrix "column" index beyond 2^56 must be rejected by SECDED/CRC.
  sparse::Csr64Matrix wide(1, std::uint64_t{1} << 57);
  wide.row_ptr() = {0, 1};
  wide.cols() = {(std::uint64_t{1} << 57) - 1};
  wide.values() = {1.0};
  EXPECT_THROW((ProtectedCsr<std::uint64_t, Elem64Secded, Row64None>::from_csr(wide)),
               std::invalid_argument);
  EXPECT_NO_THROW((ProtectedCsr<std::uint64_t, Elem64Sed, Row64None>::from_csr(wide)));
}

// The two widths must agree: protecting the widened copy of a matrix and
// decoding it back yields exactly the widened original.
TEST(ProtectedCsr64Consistency, WidenedMatrixRoundTripsAcrossWidths) {
  auto a32 = sparse::laplacian_2d(9, 7);
  auto p32 = ProtectedCsr<std::uint32_t, ElemSecded, RowSecded64>::from_csr(a32);
  auto p64 = ProtectedCsr<std::uint64_t, Elem64Secded, Row64Secded>::from_csr(
      sparse::Csr64Matrix::from_csr(a32));
  const auto back32 = p32.to_csr();
  const auto back64 = p64.to_csr();
  ASSERT_EQ(back32.nnz(), back64.nnz());
  for (std::size_t k = 0; k < back32.nnz(); ++k) {
    EXPECT_EQ(back32.values()[k], back64.values()[k]);
    EXPECT_EQ(static_cast<std::uint64_t>(back32.cols()[k]), back64.cols()[k]);
  }
}

}  // namespace
