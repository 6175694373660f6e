// Protected kernels vs raw reference kernels: SpMV across all scheme
// combinations and check modes, BLAS-1 ops across vector schemes, error
// propagation out of the OpenMP regions (paper §VI-C), and the SpMV/SpMM
// x contract (verify every group once per pass, then read masked storage),
// and the BLAS-1 kernels' bits and fault logs under both CRC32C kernels.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <string>
#include <type_traits>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "abft/abft.hpp"
#include "common/rng.hpp"
#include "faults/injector.hpp"
#include "sparse/ell.hpp"
#include "sparse/generators.hpp"
#include "sparse/sell.hpp"
#include "sparse/transform.hpp"
#include "sparse/vector_ops.hpp"

namespace {

using namespace abft;

constexpr double kTol = 1e-12;

/// Masking the mantissa LSBs perturbs values; reference comparisons must
/// allow the scheme's relative noise bound (paper §VI-B).
template <class VS>
double noise_bound(double magnitude, std::size_t terms) {
  const double rel = std::ldexp(1.0, static_cast<int>(VS::kRedundancyBitsPerElement) - 52);
  return magnitude * rel * static_cast<double>(terms) * 4.0 + kTol;
}

template <class Combo>
class SpmvTest : public ::testing::Test {};

template <class E, class R, class V>
struct Combo {
  using ES = E;
  using RS = R;
  using VS = V;
};

using SpmvCombos = ::testing::Types<
    Combo<ElemNone, RowNone, VecNone>, Combo<ElemSed, RowSed, VecSed>,
    Combo<ElemSecded, RowSecded64, VecSecded64>,
    Combo<ElemSecded, RowSecded128, VecSecded128>,
    Combo<ElemCrc32c, RowCrc32c, VecCrc32c>, Combo<ElemSed, RowNone, VecNone>,
    Combo<ElemNone, RowSecded64, VecNone>, Combo<ElemNone, RowNone, VecCrc32c>,
    Combo<ElemCrc32c, RowSed, VecSecded64>>;
TYPED_TEST_SUITE(SpmvTest, SpmvCombos);

TYPED_TEST(SpmvTest, MatchesRawSpmvOnLaplacian) {
  using ES = typename TypeParam::ES;
  using RS = typename TypeParam::RS;
  using VS = typename TypeParam::VS;

  auto a = sparse::laplacian_2d(13, 11);
  if constexpr (ES::kMinRowNnz > 1) a = sparse::pad_rows_to_min_nnz(a, ES::kMinRowNnz);
  const std::size_t n = a.nrows();

  Xoshiro256 rng(1);
  std::vector<double> xraw(n);
  for (auto& v : xraw) v = VS::mask(rng.uniform(-3, 3));
  std::vector<double> yref(n, 0.0);
  sparse::spmv(a, xraw.data(), yref.data());

  auto pa = ProtectedCsr<std::uint32_t, ES, RS>::from_csr(a);
  ProtectedVector<VS> x(n), y(n);
  x.assign({xraw.data(), n});

  for (CheckMode mode : {CheckMode::full, CheckMode::bounds_only}) {
    spmv(pa, x, y, mode);
    std::vector<double> got(n, 0.0);
    y.extract(got);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(got[i], yref[i], noise_bound<VS>(20.0, 5)) << i;
    }
  }
}

TYPED_TEST(SpmvTest, MatchesRawSpmvOnRandomSpd) {
  using ES = typename TypeParam::ES;
  using RS = typename TypeParam::RS;
  using VS = typename TypeParam::VS;

  auto a = sparse::random_spd(150, 6, 99);
  if constexpr (ES::kMinRowNnz > 1) a = sparse::pad_rows_to_min_nnz(a, ES::kMinRowNnz);
  const std::size_t n = a.nrows();

  Xoshiro256 rng(2);
  std::vector<double> xraw(n);
  for (auto& v : xraw) v = VS::mask(rng.uniform(-1, 1));
  std::vector<double> yref(n, 0.0);
  sparse::spmv(a, xraw.data(), yref.data());

  auto pa = ProtectedCsr<std::uint32_t, ES, RS>::from_csr(a);
  ProtectedVector<VS> x(n), y(n);
  x.assign({xraw.data(), n});
  spmv(pa, x, y);
  std::vector<double> got(n, 0.0);
  y.extract(got);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(got[i], yref[i], noise_bound<VS>(10.0, 16)) << i;
  }
}

// ---------------------------------------------------------------------------
// BLAS-1 kernels across vector schemes.
// ---------------------------------------------------------------------------

template <class VS>
class Blas1Test : public ::testing::Test {};

using VecSchemes = ::testing::Types<VecNone, VecSed, VecSecded64, VecSecded128, VecCrc32c>;
TYPED_TEST_SUITE(Blas1Test, VecSchemes);

template <class VS>
struct Fixture {
  std::size_t n;
  std::vector<double> araw, braw;
  ProtectedVector<VS> a, b;

  explicit Fixture(std::size_t size, std::uint64_t seed) : n(size), a(size), b(size) {
    Xoshiro256 rng(seed);
    araw.resize(n);
    braw.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      araw[i] = VS::mask(rng.uniform(-5, 5));
      braw[i] = VS::mask(rng.uniform(-5, 5));
    }
    a.assign({araw.data(), n});
    b.assign({braw.data(), n});
  }
};

TYPED_TEST(Blas1Test, DotMatchesReference) {
  for (std::size_t n : {1u, 5u, 64u, 257u}) {
    Fixture<TypeParam> f(n, n);
    const double expected = sparse::dot(f.araw.data(), f.braw.data(), n);
    EXPECT_NEAR(dot(f.a, f.b), expected, noise_bound<TypeParam>(25.0 * n, n));
  }
}

TYPED_TEST(Blas1Test, AxpyMatchesReference) {
  Fixture<TypeParam> f(130, 3);
  sparse::axpy(2.5, f.araw.data(), f.braw.data(), f.n);
  axpy(2.5, f.a, f.b);
  std::vector<double> got(f.n);
  f.b.extract(got);
  for (std::size_t i = 0; i < f.n; ++i) {
    EXPECT_NEAR(got[i], f.braw[i], noise_bound<TypeParam>(20.0, 2)) << i;
  }
}

TYPED_TEST(Blas1Test, XpbyMatchesReference) {
  Fixture<TypeParam> f(97, 4);
  sparse::xpby(f.araw.data(), -0.75, f.braw.data(), f.n);
  xpby(f.a, -0.75, f.b);
  std::vector<double> got(f.n);
  f.b.extract(got);
  for (std::size_t i = 0; i < f.n; ++i) {
    EXPECT_NEAR(got[i], f.braw[i], noise_bound<TypeParam>(10.0, 2)) << i;
  }
}

TYPED_TEST(Blas1Test, AxpbyMatchesReference) {
  Fixture<TypeParam> f(97, 5);
  for (std::size_t i = 0; i < f.n; ++i) f.braw[i] = 1.5 * f.araw[i] - 2.0 * f.braw[i];
  axpby(1.5, f.a, -2.0, f.b);
  std::vector<double> got(f.n);
  f.b.extract(got);
  for (std::size_t i = 0; i < f.n; ++i) {
    EXPECT_NEAR(got[i], f.braw[i], noise_bound<TypeParam>(20.0, 3)) << i;
  }
}

TYPED_TEST(Blas1Test, SubMatchesReference) {
  Fixture<TypeParam> f(64, 6);
  ProtectedVector<TypeParam> r(f.n);
  sub(f.a, f.b, r);
  std::vector<double> got(f.n);
  r.extract(got);
  for (std::size_t i = 0; i < f.n; ++i) {
    EXPECT_NEAR(got[i], f.araw[i] - f.braw[i], noise_bound<TypeParam>(10.0, 2)) << i;
  }
}

TYPED_TEST(Blas1Test, PointwiseFmaMatchesReference) {
  Fixture<TypeParam> f(50, 7);
  ProtectedVector<TypeParam> y(f.n);
  fill(y, 1.0);
  pointwise_fma(f.a, f.b, y);
  std::vector<double> got(f.n);
  y.extract(got);
  for (std::size_t i = 0; i < f.n; ++i) {
    const double expected = TypeParam::mask(1.0) + f.araw[i] * f.braw[i];
    EXPECT_NEAR(got[i], expected, noise_bound<TypeParam>(30.0, 3)) << i;
  }
}

TYPED_TEST(Blas1Test, CopyAndFill) {
  Fixture<TypeParam> f(41, 8);
  ProtectedVector<TypeParam> dst(f.n);
  copy(f.a, dst);
  std::vector<double> got(f.n);
  dst.extract(got);
  for (std::size_t i = 0; i < f.n; ++i) EXPECT_EQ(got[i], f.araw[i]);

  fill(dst, 3.5);
  dst.extract(got);
  for (std::size_t i = 0; i < f.n; ++i) EXPECT_EQ(got[i], TypeParam::mask(3.5));
  // Padding must stay zero so dot products over padded groups are exact.
  EXPECT_EQ(dst.verify_all(), 0u);
  EXPECT_NEAR(dot(dst, dst),
              f.n * TypeParam::mask(3.5) * TypeParam::mask(3.5), 1e-9);
}

TYPED_TEST(Blas1Test, NormMatchesReference) {
  Fixture<TypeParam> f(123, 9);
  const double expected = sparse::norm2(f.araw.data(), f.n);
  EXPECT_NEAR(norm2(f.a), expected, noise_bound<TypeParam>(expected, f.n));
}

// ---------------------------------------------------------------------------
// Per-operand fault attribution (regression: the BLAS-1 kernels used to fold
// every operand's decode outcomes into one capture committed to a single
// container — corruption detected in `b` was logged under `a` and policed by
// `a`'s DuePolicy).
// ---------------------------------------------------------------------------

/// Flip one storage bit of \p v (inside the first element's value bits, so
/// every scheme with any redundancy sees it).
template <class VS>
void corrupt_vector(ProtectedVector<VS>& v, std::size_t bit = 13) {
  auto raw = v.raw();
  faults::flip_bit({reinterpret_cast<std::uint8_t*>(raw.data()), raw.size_bytes()}, bit);
}

TEST(KernelFaultAttribution, DotLogsCorruptionInTheOperandThatCarriesIt) {
  const std::size_t n = 40;
  FaultLog log_a, log_b;
  ProtectedVector<VecSed> a(n, &log_a, DuePolicy::record_only);
  ProtectedVector<VecSed> b(n, &log_b, DuePolicy::record_only);
  fill(a, 1.0);
  fill(b, 2.0);
  corrupt_vector(b);
  (void)dot(a, b);
  // The fault lives in b; a's log must stay clean — and both logs account
  // their own decodes.
  EXPECT_EQ(log_a.uncorrectable(), 0u);
  EXPECT_GE(log_b.uncorrectable(), 1u);
  EXPECT_GE(log_a.checks(), n);
  EXPECT_GE(log_b.checks(), n);
}

// Regression: dot(x, x) (and so norm2(x)) checked x twice, logging one fault
// twice and charging 2 * groups() checks.
TEST(KernelFaultAttribution, SelfDotChecksAndLogsOnce) {
  const auto self_dot_log = [](auto scheme_tag, std::size_t bit) {
    using VS = decltype(scheme_tag);
    const std::size_t n = 1000;
    FaultLog log;
    ProtectedVector<VS> x(n, &log, DuePolicy::record_only);
    fill(x, 1.25);
    corrupt_vector(x, bit);
    (void)norm2(x);
    EXPECT_EQ(log.uncorrectable(), 1u);
    EXPECT_EQ(log.checks(), x.groups());
  };
  self_dot_log(VecSed{}, 13);
  // Two flips in one CRC32C group: detected, not corrected.
  const auto crc_two_flips = [] {
    const std::size_t n = 1000;
    FaultLog log;
    ProtectedVector<VecCrc32c> x(n, &log, DuePolicy::record_only);
    fill(x, 1.25);
    corrupt_vector(x, 13);
    corrupt_vector(x, 64 + 29);
    (void)dot(x, x);
    EXPECT_EQ(log.uncorrectable(), 1u);
    EXPECT_EQ(log.checks(), x.groups());
  };
  crc_two_flips();
}

TEST(KernelFaultAttribution, AxpyAndSubAndFmaAttributePerOperand) {
  const std::size_t n = 33;
  {
    FaultLog log_x, log_y;
    ProtectedVector<VecSed> x(n, &log_x, DuePolicy::record_only);
    ProtectedVector<VecSed> y(n, &log_y, DuePolicy::record_only);
    fill(x, 1.0);
    fill(y, 2.0);
    corrupt_vector(x);
    axpy(0.5, x, y);
    EXPECT_GE(log_x.uncorrectable(), 1u);
    EXPECT_EQ(log_y.uncorrectable(), 0u);
  }
  {
    FaultLog log_a, log_b, log_r;
    ProtectedVector<VecSed> a(n, &log_a, DuePolicy::record_only);
    ProtectedVector<VecSed> b(n, &log_b, DuePolicy::record_only);
    ProtectedVector<VecSed> r(n, &log_r, DuePolicy::record_only);
    fill(a, 1.0);
    fill(b, 2.0);
    corrupt_vector(b);
    sub(a, b, r);
    EXPECT_EQ(log_a.uncorrectable(), 0u);
    EXPECT_GE(log_b.uncorrectable(), 1u);
    // r is written whole-group without a prior read: nothing to attribute.
    EXPECT_EQ(log_r.uncorrectable(), 0u);
  }
  {
    FaultLog log_s, log_x, log_y;
    ProtectedVector<VecSed> s(n, &log_s, DuePolicy::record_only);
    ProtectedVector<VecSed> x(n, &log_x, DuePolicy::record_only);
    ProtectedVector<VecSed> y(n, &log_y, DuePolicy::record_only);
    fill(s, 1.0);
    fill(x, 2.0);
    fill(y, 3.0);
    corrupt_vector(y);
    pointwise_fma(s, x, y);
    EXPECT_EQ(log_s.uncorrectable(), 0u);
    EXPECT_EQ(log_x.uncorrectable(), 0u);
    EXPECT_GE(log_y.uncorrectable(), 1u);
  }
}

TEST(KernelFaultAttribution, DuePolicyOfTheCorruptOperandApplies) {
  const std::size_t n = 24;
  // a records only, b throws: a fault in a must NOT throw, a fault in b must.
  FaultLog log_a, log_b;
  {
    ProtectedVector<VecSed> a(n, &log_a, DuePolicy::record_only);
    ProtectedVector<VecSed> b(n, &log_b, DuePolicy::throw_exception);
    fill(a, 1.0);
    fill(b, 2.0);
    corrupt_vector(a);
    EXPECT_NO_THROW((void)dot(a, b));
    EXPECT_GE(log_a.uncorrectable(), 1u);
  }
  {
    ProtectedVector<VecSed> a(n, &log_a, DuePolicy::record_only);
    ProtectedVector<VecSed> b(n, &log_b, DuePolicy::throw_exception);
    fill(a, 1.0);
    fill(b, 2.0);
    corrupt_vector(b);
    log_a.clear();
    log_b.clear();
    EXPECT_THROW((void)dot(a, b), UncorrectableError);
    // The throwing operand must not swallow the other operand's accounting:
    // every log is updated before any policy raises.
    EXPECT_GE(log_a.checks(), n);
    EXPECT_GE(log_b.uncorrectable(), 1u);
  }
}

TEST(KernelFaultAttribution, SpmvAttributesXVectorFaultsToXNotTheMatrix) {
  auto a = sparse::laplacian_2d(12, 12);
  FaultLog log_m, log_x, log_y;
  auto pa = ProtectedCsr<std::uint32_t, ElemSecded, RowSecded64>::from_csr(
      a, &log_m, DuePolicy::record_only);
  ProtectedVector<VecSed> x(a.ncols(), &log_x, DuePolicy::record_only);
  ProtectedVector<VecSed> y(a.nrows(), &log_y, DuePolicy::record_only);
  fill(x, 1.0);
  corrupt_vector(x);
  spmv(pa, x, y);
  EXPECT_GE(log_x.uncorrectable(), 1u);
  EXPECT_EQ(log_m.uncorrectable(), 0u);
  EXPECT_EQ(log_m.corrected(), 0u);
  // y is only encoded, never decoded, during SpMV — nothing to attribute.
  EXPECT_EQ(log_y.uncorrectable(), 0u);
  EXPECT_EQ(log_y.checks(), 0u);
}

// ---------------------------------------------------------------------------
// Error propagation out of parallel kernels.
// ---------------------------------------------------------------------------

TEST(KernelFaults, SpmvThrowsOnSedDetection) {
  auto a = sparse::laplacian_2d(20, 20);
  auto pa = ProtectedCsr<std::uint32_t, ElemSed, RowSed>::from_csr(a);
  ProtectedVector<VecSed> x(a.ncols()), y(a.nrows());
  fill(x, 1.0);
  auto values = pa.raw_values();
  faults::flip_bit({reinterpret_cast<std::uint8_t*>(values.data()), values.size_bytes()},
                   777);
  EXPECT_THROW(spmv(pa, x, y), UncorrectableError);
}

TEST(KernelFaults, SpmvCorrectsSecdedFlipAndContinues) {
  auto a = sparse::laplacian_2d(20, 20);
  FaultLog log;
  auto pa = ProtectedCsr<std::uint32_t, ElemSecded, RowSecded64>::from_csr(a, &log);
  ProtectedVector<VecSecded64> x(a.ncols(), &log), y(a.nrows(), &log);
  fill(x, 1.0);
  auto values = pa.raw_values();
  faults::flip_bit({reinterpret_cast<std::uint8_t*>(values.data()), values.size_bytes()},
                   64 * 7 + 19);
  EXPECT_NO_THROW(spmv(pa, x, y));
  EXPECT_GE(log.corrected(), 1u);

  // And the result equals the fault-free product.
  std::vector<double> xraw(a.ncols(), VecSecded64::mask(1.0));
  std::vector<double> yref(a.nrows(), 0.0);
  sparse::spmv(a, xraw.data(), yref.data());
  std::vector<double> got(a.nrows());
  y.extract(got);
  for (std::size_t i = 0; i < a.nrows(); ++i) EXPECT_NEAR(got[i], yref[i], 1e-9);
}

TEST(KernelFaults, BoundsOnlyModeSkipsMatrixChecksButGuardsIndices) {
  auto a = sparse::laplacian_2d(16, 16);
  FaultLog log;
  auto pa =
      ProtectedCsr<std::uint32_t, ElemSed, RowSed>::from_csr(a, &log, DuePolicy::record_only);
  ProtectedVector<VecNone> x(a.ncols(), &log, DuePolicy::record_only);
  ProtectedVector<VecNone> y(a.nrows(), &log, DuePolicy::record_only);
  fill(x, 1.0);

  // Corrupt a column index to an out-of-range value (bounds-visible bits).
  pa.raw_cols()[10] = 0x7FFFFFFFu;  // masked value still >= ncols
  spmv(pa, x, y, CheckMode::bounds_only);
  EXPECT_GE(log.bounds_violations(), 1u);
  EXPECT_EQ(log.uncorrectable(), 0u) << "no integrity checks in bounds-only mode";
}

TEST(KernelFaults, BoundsOnlyThrowsBoundsViolationUnderThrowPolicy) {
  auto a = sparse::laplacian_2d(16, 16);
  auto pa = ProtectedCsr<std::uint32_t, ElemSed, RowSed>::from_csr(a);
  ProtectedVector<VecNone> x(a.ncols()), y(a.nrows());
  fill(x, 1.0);
  pa.raw_cols()[3] = 0x7FFFFFFFu;
  EXPECT_THROW(spmv(pa, x, y, CheckMode::bounds_only), BoundsViolation);
}

TEST(KernelFaults, CorruptRowPtrInBoundsOnlyModeIsCaught) {
  auto a = sparse::laplacian_2d(16, 16);
  FaultLog log;
  auto pa =
      ProtectedCsr<std::uint32_t, ElemSed, RowSed>::from_csr(a, &log, DuePolicy::record_only);
  ProtectedVector<VecNone> x(a.ncols(), &log, DuePolicy::record_only);
  ProtectedVector<VecNone> y(a.nrows(), &log, DuePolicy::record_only);
  fill(x, 1.0);
  pa.raw_structure()[40] = 0x7FFFFFFEu;  // masked -> way past nnz
  spmv(pa, x, y, CheckMode::bounds_only);
  EXPECT_GE(log.bounds_violations(), 1u);
}

// ---------------------------------------------------------------------------
// The x contract of spmv/spmm: every x codeword group is verified once per
// pass, ahead of the row loop, and the loop then reads masked storage.
// ---------------------------------------------------------------------------

using XCsr = CsrFormat;
using XEll = EllFormat;
using XSell = SellFormat;
template <class Fmt>
using XMatrix = typename Fmt::template protected_matrix<
    std::uint32_t, schemes::ElemSecded<std::uint32_t>, schemes::StructSecded<std::uint32_t>>;

/// The 12x8 Laplacian (96 rows) widened by 16 columns no row reads: the
/// trailing x groups exist but are never gathered.
sparse::CsrMatrix laplacian_with_unread_columns() {
  const auto a = sparse::laplacian_2d(12, 8);
  sparse::CsrMatrix wide(a.nrows(), a.ncols() + 16);
  wide.values() = a.values();
  wide.cols() = a.cols();
  wide.row_ptr() = a.row_ptr();
  return wide;
}

template <class Fmt>
auto plain_as(const sparse::CsrMatrix& a) {
  return Fmt::template make_plain<std::uint32_t, schemes::ElemSecded<std::uint32_t>>(a);
}

template <class VS>
std::vector<double> masked_inputs(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<double> v(n);
  for (auto& e : v) e = VS::mask(rng.uniform(-2, 2));
  return v;
}

template <class VS>
std::vector<std::uint64_t> storage_bits(const ProtectedVector<VS>& v) {
  std::vector<std::uint64_t> bits;
  for (const double e : v.raw()) bits.push_back(double_to_bits(e));
  return bits;
}

/// A single-bit fault in an x group no row reads: the pre-pass still finds
/// it, repairs the storage to its encoded bits and logs exactly one
/// correction at that group — in spmv, and in the faulty column of an spmm.
template <class Fmt, class VS>
void expect_unread_group_fault_corrected_once() {
  const auto wide = laplacian_with_unread_columns();
  const auto plain = plain_as<Fmt>(wide);
  auto p = XMatrix<Fmt>::from_plain(plain);
  const std::size_t unread = wide.nrows() + 5;  // element inside the unread tail
  const std::size_t group = unread / VS::kGroup;
  const auto xraw = masked_inputs<VS>(wide.ncols(), 41);

  FaultLog clean_log, xlog;
  ProtectedVector<VS> x(wide.ncols(), &clean_log), y(wide.nrows());
  x.assign(xraw);
  spmv(p, x, y);
  const auto clean_y = storage_bits(y);
  const auto clean_x = storage_bits(x);
  ASSERT_EQ(clean_log.checks(), x.groups());

  ProtectedVector<VS> xf(wide.ncols(), &xlog, DuePolicy::throw_exception);
  xf.assign(xraw);
  corrupt_vector(xf, 64 * unread + 30);
  ASSERT_NE(storage_bits(xf), clean_x);
  spmv(p, xf, y);
  EXPECT_EQ(storage_bits(xf), clean_x) << "repaired in place";
  EXPECT_EQ(storage_bits(y), clean_y);
  EXPECT_EQ(xlog.checks(), xf.groups());
  EXPECT_EQ(xlog.corrected(), 1u);
  EXPECT_EQ(xlog.uncorrectable(), 0u);
  const auto events = xlog.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].region, Region::dense_vector);
  EXPECT_EQ(events[0].outcome, CheckOutcome::corrected);
  EXPECT_EQ(events[0].index, group);

  std::deque<FaultLog> col_logs(2);
  ProtectedMultiVector<VS> xm(wide.ncols()), ym(wide.nrows());
  for (std::size_t j = 0; j < 2; ++j) {
    xm.add_column(&col_logs[j], DuePolicy::throw_exception).assign(xraw);
    ym.add_column();
  }
  corrupt_vector(xm.column(1), 64 * unread + 30);
  spmm(p, xm, ym);
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_EQ(storage_bits(xm.column(j)), clean_x) << "column " << j;
    EXPECT_EQ(storage_bits(ym.column(j)), clean_y) << "column " << j;
    EXPECT_EQ(col_logs[j].checks(), xf.groups()) << "column " << j;
  }
  EXPECT_EQ(col_logs[0].corrected(), 0u);
  EXPECT_EQ(col_logs[1].corrected(), 1u);
  ASSERT_EQ(col_logs[1].events().size(), 1u);
  EXPECT_EQ(col_logs[1].events()[0].index, group);
}

TEST(XVerifyOnce, FaultInAnUnreadGroupIsCorrectedAndLoggedOnce) {
  expect_unread_group_fault_corrected_once<XCsr, VecSecded64>();
  expect_unread_group_fault_corrected_once<XCsr, VecSecded128>();
  expect_unread_group_fault_corrected_once<XCsr, VecCrc32c>();
  expect_unread_group_fault_corrected_once<XEll, VecSecded64>();
  expect_unread_group_fault_corrected_once<XEll, VecCrc32c>();
  expect_unread_group_fault_corrected_once<XSell, VecSecded64>();
  expect_unread_group_fault_corrected_once<XSell, VecCrc32c>();
}

/// y bits of the protected-x kernel equal the unprotected (VecNone, raw
/// gather) kernel's on the same masked inputs, at both check modes — and,
/// for correcting schemes, still do after a single-bit fault in a group
/// the rows read. Masked reads after the pre-pass are bit-for-bit the
/// values the decode would have produced.
template <class Fmt, class VS>
void expect_masked_reads_match_unprotected_x() {
  const auto a = laplacian_with_unread_columns();
  auto p = XMatrix<Fmt>::from_plain(plain_as<Fmt>(a));
  const auto xraw = masked_inputs<VS>(a.ncols(), 43);
  for (const CheckMode mode : {CheckMode::full, CheckMode::bounds_only}) {
    ProtectedVector<VecNone> xn(a.ncols()), yn(a.nrows());
    xn.assign(xraw);
    spmv(p, xn, yn, mode);
    std::vector<std::uint64_t> want;
    for (const double v : yn.raw()) want.push_back(double_to_bits(VS::mask(v)));

    for (const bool faulty : {false, true}) {
      if (faulty && VS::kScheme == ecc::Scheme::sed) continue;  // detects, cannot correct
      FaultLog xlog;
      ProtectedVector<VS> x(a.ncols(), &xlog, DuePolicy::throw_exception), y(a.nrows());
      x.assign(xraw);
      if (faulty) corrupt_vector(x, 64 * 17 + 40);  // column 17: read by rows 5, 16-18, 29
      spmv(p, x, y, mode);
      std::vector<double> got(a.nrows());
      y.extract(got);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(double_to_bits(got[i]), want[i])
            << "y[" << i << "] faulty=" << faulty << " mode=" << static_cast<int>(mode);
      }
      EXPECT_EQ(xlog.corrected(), faulty ? 1u : 0u);
    }
  }
}

template <class VS>
void expect_masked_reads_match_unprotected_x_all_formats() {
  expect_masked_reads_match_unprotected_x<XCsr, VS>();
  expect_masked_reads_match_unprotected_x<XEll, VS>();
  expect_masked_reads_match_unprotected_x<XSell, VS>();
}

TEST(XVerifyOnce, MaskedReadsMatchTheUnprotectedKernelBitForBit) {
  expect_masked_reads_match_unprotected_x_all_formats<VecSed>();
  expect_masked_reads_match_unprotected_x_all_formats<VecSecded64>();
  expect_masked_reads_match_unprotected_x_all_formats<VecSecded128>();
  expect_masked_reads_match_unprotected_x_all_formats<VecCrc32c>();
}

TEST(KernelShapes, DimensionMismatchesThrow) {
  auto a = sparse::laplacian_2d(4, 4);
  auto pa = ProtectedCsr<std::uint32_t, ElemNone, RowNone>::from_csr(a);
  ProtectedVector<VecNone> x(15), y(16), z(16);
  EXPECT_THROW(spmv(pa, x, y), std::invalid_argument);
  EXPECT_THROW((void)dot(x, y), std::invalid_argument);
  EXPECT_THROW(axpy(1.0, x, y), std::invalid_argument);
  EXPECT_THROW(xpby(x, 1.0, y), std::invalid_argument);
  EXPECT_THROW(sub(x, y, z), std::invalid_argument);
  EXPECT_THROW(pointwise_fma(x, y, z), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The eight BLAS-1 kernels under the software and the hardware CRC32C kernel,
// at 1 and 4 OpenMP threads: identical output bits and fault logs, with
// faults in the operands (the run codec's dirty-group path) — and dot / axpy
// equal to the per-group decode-compute-encode loop bit for bit.
// ---------------------------------------------------------------------------

template <class VS>
class Blas1CodecTest : public ::testing::Test {};
TYPED_TEST_SUITE(Blas1CodecTest, VecSchemes);

/// Everything a kernel call leaves behind: operand storage bits, the dot
/// result's bits, and each operand's fault log.
struct KernelTrace {
  std::vector<std::vector<double>> storage;
  std::vector<std::uint64_t> counters;  // checks, corrected, uncorrectable per operand
  std::vector<FaultEvent> events;
  double result = 0.0;
};

template <class VS>
KernelTrace run_blas1(int kernel) {
  constexpr std::size_t n = 1001;  // 251 CRC groups: 3 full blocks and a padded tail
  FaultLog la, lb, lc;
  ProtectedVector<VS> a(n, &la, DuePolicy::record_only), b(n, &lb, DuePolicy::record_only),
      c(n, &lc, DuePolicy::record_only);
  Xoshiro256 rng(77);
  std::vector<double> raw(n);
  for (auto* v : {&a, &b, &c}) {
    for (auto& x : raw) x = rng.uniform(-4, 4);
    v->assign(raw);
  }
  // One flip in a, two in different groups of b's last block (the second in
  // the padded tail group's last word), one in c.
  const auto flip = [](ProtectedVector<VS>& v, std::size_t bit) {
    auto raw_bits = v.raw();
    faults::flip_bit(
        {reinterpret_cast<std::uint8_t*>(raw_bits.data()), raw_bits.size_bytes()}, bit);
  };
  flip(a, 64 * 9 + 33);
  const std::size_t last_word = b.raw().size() - 1;
  flip(b, 64 * (last_word - 5) + 40);
  flip(b, 64 * last_word + 12);
  flip(c, 64 * 300 + 50);
  KernelTrace t;
  switch (kernel) {
    case 0: t.result = dot(a, b); break;
    case 1: axpy(0.3, a, b); break;
    case 2: xpby(a, -0.7, b); break;
    case 3: axpby(0.3, a, -0.7, b); break;
    case 4: copy(a, c); break;
    case 5: sub(a, b, c); break;
    case 6: pointwise_fma(a, b, c); break;
    default: fill(c, 2.5); break;
  }
  for (auto* v : {&a, &b, &c}) t.storage.emplace_back(v->raw().begin(), v->raw().end());
  for (const FaultLog* log : {&la, &lb, &lc}) {
    t.counters.insert(t.counters.end(), {log->checks(), log->corrected(), log->uncorrectable()});
    const auto ev = log->events();
    t.events.insert(t.events.end(), ev.begin(), ev.end());
  }
  return t;
}

void expect_same_trace(const KernelTrace& got, const KernelTrace& want, const std::string& what) {
  ASSERT_EQ(got.storage.size(), want.storage.size());
  for (std::size_t i = 0; i < got.storage.size(); ++i) {
    EXPECT_EQ(std::memcmp(got.storage[i].data(), want.storage[i].data(),
                          got.storage[i].size() * sizeof(double)),
              0)
        << what << ": operand " << i << " bits differ";
  }
  EXPECT_EQ(std::memcmp(&got.result, &want.result, sizeof(double)), 0) << what;
  EXPECT_EQ(got.counters, want.counters) << what;
  ASSERT_EQ(got.events.size(), want.events.size()) << what;
  for (std::size_t i = 0; i < got.events.size(); ++i) {
    EXPECT_EQ(got.events[i].outcome, want.events[i].outcome) << what << " event " << i;
    EXPECT_EQ(got.events[i].index, want.events[i].index) << what << " event " << i;
  }
}

TYPED_TEST(Blas1CodecTest, SoftwareAndHardwareCrcGiveIdenticalBitsAndLogs) {
  const bool hw = ecc::crc32c_hw_available();
  if (!hw) std::printf("[ notice ] SSE4.2 crc32 unavailable: hardware legs skipped\n");
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  const std::vector<int> threads{1, 4};
#else
  const std::vector<int> threads{1};
#endif
  const char* names[] = {"dot", "axpy", "xpby", "axpby", "copy", "sub", "pointwise_fma", "fill"};
  for (int k = 0; k < 8; ++k) {
    ecc::set_crc32c_impl(ecc::CrcImpl::software);
#ifdef _OPENMP
    omp_set_num_threads(1);
#endif
    const KernelTrace ref = run_blas1<TypeParam>(k);
    for (const int t : threads) {
#ifdef _OPENMP
      omp_set_num_threads(t);
#endif
      for (const auto impl : {ecc::CrcImpl::software, ecc::CrcImpl::hardware}) {
        if (impl == ecc::CrcImpl::hardware && !hw) continue;
        ecc::set_crc32c_impl(impl);
        expect_same_trace(run_blas1<TypeParam>(k), ref,
                          std::string(names[k]) + (impl == ecc::CrcImpl::hardware ? " hw" : " sw") +
                              " threads=" + std::to_string(t));
      }
    }
  }
  ecc::set_crc32c_impl(ecc::CrcImpl::auto_detect);
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
}

template <class VS, std::size_t G>
void dot_and_axpy_match_per_group_loop(std::size_t n);

TYPED_TEST(Blas1CodecTest, DotAndAxpyEqualThePerGroupLoopBitForBit) {
  using VS = TypeParam;
  constexpr std::size_t G = VS::kGroup;
  // Sizes with full runs of four partials (dot sums four side by side) and
  // with a partial tail, at every group size.
  for (const std::size_t n : {std::size_t{1001}, std::size_t{9 * 256 + 37}}) {
    SCOPED_TRACE(n);
    dot_and_axpy_match_per_group_loop<VS, G>(n);
  }
}

template <class VS, std::size_t G>
void dot_and_axpy_match_per_group_loop(std::size_t n) {
  Xoshiro256 rng(91);
  std::vector<double> xr(n), yr(n);
  for (std::size_t i = 0; i < n; ++i) {
    xr[i] = rng.uniform(-3, 3);
    yr[i] = rng.uniform(-3, 3);
  }
  ProtectedVector<VS> x(n), y(n), yref(n);
  x.assign(xr);
  y.assign(yr);
  yref.assign(yr);
  // The per-group loop: the library's one reduction order (serial partials
  // of 64 elements, folded in index order) over decoded groups, and a
  // decode-update-encode per group.
  const std::size_t ngroups = x.groups();
  std::vector<double> partials((ngroups * G + 63) / 64, 0.0);
  for (std::size_t g = 0; g < ngroups; ++g) {
    double vx[G], vy[G];
    ASSERT_EQ(VS::decode_group(x.data() + g * G, vx), CheckOutcome::ok);
    ASSERT_EQ(VS::decode_group(yref.data() + g * G, vy), CheckOutcome::ok);
    for (std::size_t e = 0; e < G; ++e) partials[(g * G + e) / 64] += vx[e] * vy[e];
  }
  double sum = 0.0;
  for (const double p : partials) sum += p;
  const double got = dot(x, y);
  EXPECT_EQ(std::memcmp(&got, &sum, sizeof sum), 0) << got << " vs " << sum;
  for (std::size_t g = 0; g < ngroups; ++g) {
    double vx[G], vy[G];
    ASSERT_EQ(VS::decode_group(x.data() + g * G, vx), CheckOutcome::ok);
    ASSERT_EQ(VS::decode_group(yref.data() + g * G, vy), CheckOutcome::ok);
    for (std::size_t e = 0; e < G; ++e) vy[e] += 0.37 * vx[e];
    VS::encode_group(vy, yref.data() + g * G);
  }
  axpy(0.37, x, y);
  EXPECT_EQ(std::memcmp(y.data(), yref.data(), y.raw().size_bytes()), 0);
}

}  // namespace
