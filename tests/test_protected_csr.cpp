// ProtectedCsr container: encode/decode round trips across every
// element x row scheme combination, constraint enforcement, verification
// sweeps and fault response (paper §VI-A).
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "abft/protected_csr.hpp"
#include "common/rng.hpp"
#include "faults/injector.hpp"
#include "sparse/generators.hpp"
#include "sparse/transform.hpp"

namespace {

using namespace abft;

template <class Combo>
class ProtectedCsrTest : public ::testing::Test {};

template <class E, class R>
struct Combo {
  using ES = E;
  using RS = R;
};

using AllCombos = ::testing::Types<
    Combo<ElemNone, RowNone>, Combo<ElemSed, RowSed>, Combo<ElemSecded, RowSecded64>,
    Combo<ElemSecded, RowSecded128>, Combo<ElemCrc32c, RowCrc32c>,
    Combo<ElemSed, RowSecded64>, Combo<ElemSecded, RowSed>, Combo<ElemCrc32c, RowSed>,
    Combo<ElemNone, RowCrc32c>, Combo<ElemSed, RowCrc32c>>;
TYPED_TEST_SUITE(ProtectedCsrTest, AllCombos);

template <class ES>
sparse::CsrMatrix test_matrix() {
  auto a = sparse::laplacian_2d(12, 9);
  if constexpr (ES::kMinRowNnz > 1) {
    a = sparse::pad_rows_to_min_nnz(a, ES::kMinRowNnz);
  }
  return a;
}

TYPED_TEST(ProtectedCsrTest, RoundTripPreservesMatrix) {
  using ES = typename TypeParam::ES;
  using RS = typename TypeParam::RS;
  const auto a = test_matrix<ES>();
  auto p = ProtectedCsr<std::uint32_t, ES, RS>::from_csr(a);
  const auto back = p.to_csr();
  ASSERT_EQ(back.nrows(), a.nrows());
  ASSERT_EQ(back.ncols(), a.ncols());
  ASSERT_EQ(back.nnz(), a.nnz());
  for (std::size_t i = 0; i <= a.nrows(); ++i) {
    EXPECT_EQ(back.row_ptr()[i], a.row_ptr()[i]) << i;
  }
  for (std::size_t k = 0; k < a.nnz(); ++k) {
    EXPECT_EQ(back.cols()[k], a.cols()[k]) << k;
    EXPECT_EQ(back.values()[k], a.values()[k]) << k;
  }
}

TYPED_TEST(ProtectedCsrTest, VerifyAllOnCleanMatrixIsQuiet) {
  using ES = typename TypeParam::ES;
  using RS = typename TypeParam::RS;
  FaultLog log;
  auto p = ProtectedCsr<std::uint32_t, ES, RS>::from_csr(test_matrix<ES>(), &log);
  EXPECT_EQ(p.verify_all(), 0u);
  EXPECT_EQ(log.corrected(), 0u);
  EXPECT_EQ(log.uncorrectable(), 0u);
  EXPECT_GT(log.checks(), 0u);
}

TYPED_TEST(ProtectedCsrTest, RowPtrAccessMatchesOriginal) {
  using ES = typename TypeParam::ES;
  using RS = typename TypeParam::RS;
  const auto a = test_matrix<ES>();
  auto p = ProtectedCsr<std::uint32_t, ES, RS>::from_csr(a);
  for (std::size_t i = 0; i <= a.nrows(); ++i) {
    EXPECT_EQ(p.structure().at(i, p.fault_log(), p.due_policy()), a.row_ptr()[i]) << i;
    EXPECT_EQ(p.structure().masked(i), a.row_ptr()[i]) << i;
  }
}

TYPED_TEST(ProtectedCsrTest, ElementAccessMatchesOriginal) {
  using ES = typename TypeParam::ES;
  using RS = typename TypeParam::RS;
  const auto a = test_matrix<ES>();
  auto p = ProtectedCsr<std::uint32_t, ES, RS>::from_csr(a);
  for (std::size_t r = 0; r < a.nrows(); r += 7) {
    for (auto k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
      const auto el = p.element_in_row(r, k - a.row_ptr()[r]);
      EXPECT_EQ(el.value, a.values()[k]);
      EXPECT_EQ(el.col, a.cols()[k]);
    }
  }
}

// ---------------------------------------------------------------------------
// Constraint enforcement (paper's matrix-size limits).
// ---------------------------------------------------------------------------

TEST(ProtectedCsrLimits, SecdedRejectsWideMatrices) {
  // > 2^24-1 columns cannot be indexed once the top byte holds redundancy.
  sparse::CsrMatrix wide(1, std::size_t{1} << 25);
  wide.row_ptr() = {0, 1};
  wide.cols() = {(1u << 25) - 1};
  wide.values() = {1.0};
  EXPECT_THROW((ProtectedCsr<std::uint32_t, ElemSecded, RowNone>::from_csr(wide)), std::invalid_argument);
  // SED allows up to 2^31-1 columns, so the same matrix is fine there.
  EXPECT_NO_THROW((ProtectedCsr<std::uint32_t, ElemSed, RowNone>::from_csr(wide)));
}

TEST(ProtectedCsrLimits, CrcRejectsShortRows) {
  const auto a = sparse::laplacian_2d(8, 8);  // corner rows have 3 nnz
  EXPECT_THROW((ProtectedCsr<std::uint32_t, ElemCrc32c, RowNone>::from_csr(a)), std::invalid_argument);
  const auto padded = sparse::pad_rows_to_min_nnz(a, 4);
  EXPECT_NO_THROW((ProtectedCsr<std::uint32_t, ElemCrc32c, RowNone>::from_csr(padded)));
}

TEST(ProtectedCsrLimits, MalformedMatrixIsRejected) {
  sparse::CsrMatrix bad(2, 2);
  bad.row_ptr() = {0, 1, 3};  // row_ptr.back() != nnz
  bad.cols() = {0, 1};
  bad.values() = {1.0, 2.0};
  EXPECT_THROW((ProtectedCsr<std::uint32_t, ElemSed, RowSed>::from_csr(bad)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Fault response.
// ---------------------------------------------------------------------------

TEST(ProtectedCsrFaults, SecdedCorrectsValueFlipDuringVerify) {
  Xoshiro256 rng(1);
  const auto a = sparse::laplacian_2d(16, 16);
  FaultLog log;
  auto p = ProtectedCsr<std::uint32_t, ElemSecded, RowSecded64>::from_csr(a, &log, DuePolicy::record_only);
  auto values = p.raw_values();
  const std::size_t bit = rng.below(values.size_bytes() * 8);
  faults::flip_bit({reinterpret_cast<std::uint8_t*>(values.data()), values.size_bytes()},
                   bit);
  EXPECT_EQ(p.verify_all(), 0u);
  EXPECT_EQ(log.corrected(), 1u);
  // Matrix restored exactly.
  const auto back = p.to_csr();
  for (std::size_t k = 0; k < a.nnz(); ++k) EXPECT_EQ(back.values()[k], a.values()[k]);
}

TEST(ProtectedCsrFaults, SecdedCorrectsRowPtrFlip) {
  const auto a = sparse::laplacian_2d(16, 16);
  FaultLog log;
  auto p = ProtectedCsr<std::uint32_t, ElemSecded, RowSecded64>::from_csr(a, &log, DuePolicy::record_only);
  auto row_ptr = p.raw_structure();
  faults::flip_bit(
      {reinterpret_cast<std::uint8_t*>(row_ptr.data()), row_ptr.size_bytes()}, 37 * 32 + 9);
  EXPECT_EQ(p.verify_all(), 0u);
  EXPECT_EQ(log.corrected(), 1u);
  for (std::size_t i = 0; i <= a.nrows(); ++i) {
    EXPECT_EQ(p.structure().at(i, &log, DuePolicy::record_only), a.row_ptr()[i]);
  }
}

TEST(ProtectedCsrFaults, SedDetectsButCannotCorrect) {
  const auto a = sparse::laplacian_2d(10, 10);
  FaultLog log;
  auto p = ProtectedCsr<std::uint32_t, ElemSed, RowSed>::from_csr(a, &log, DuePolicy::record_only);
  auto values = p.raw_values();
  faults::flip_bit({reinterpret_cast<std::uint8_t*>(values.data()), values.size_bytes()},
                   123);
  EXPECT_GE(p.verify_all(), 1u);
  EXPECT_EQ(log.corrected(), 0u);
  EXPECT_GE(log.uncorrectable(), 1u);
}

TEST(ProtectedCsrFaults, ThrowPolicyRaisesOnVerify) {
  const auto a = sparse::laplacian_2d(10, 10);
  auto p = ProtectedCsr<std::uint32_t, ElemSed, RowSed>::from_csr(a);
  auto values = p.raw_values();
  faults::flip_bit({reinterpret_cast<std::uint8_t*>(values.data()), values.size_bytes()},
                   200);
  EXPECT_THROW(p.verify_all(), UncorrectableError);
}

TEST(ProtectedCsrFaults, DoubleFlipInOneElementIsDue) {
  const auto a = sparse::laplacian_2d(10, 10);
  FaultLog log;
  auto p = ProtectedCsr<std::uint32_t, ElemSecded, RowSecded64>::from_csr(a, &log, DuePolicy::record_only);
  auto values = p.raw_values();
  auto bytes = std::span<std::uint8_t>(reinterpret_cast<std::uint8_t*>(values.data()),
                                       values.size_bytes());
  faults::flip_bit(bytes, 64 * 5 + 3);
  faults::flip_bit(bytes, 64 * 5 + 44);
  EXPECT_GE(p.verify_all(), 1u);
  EXPECT_GE(log.uncorrectable(), 1u);
}

TEST(ProtectedCsrFaults, VerifyAllNamesTheFirstFailure) {
  // The sweep raises with the first failure's region and index, as the slab
  // container's does: a double flip in row-pointer entry 10 is a DUE in
  // structure group 5 (two entries per RowSecded64 group).
  const auto a = sparse::laplacian_2d(8, 8);
  auto p = ProtectedCsr<std::uint32_t, ElemSecded, RowSecded64>::from_csr(a);
  p.raw_structure()[10] ^= 0x3;
  try {
    (void)p.verify_all();
    FAIL() << "verify_all did not raise";
  } catch (const UncorrectableError& e) {
    EXPECT_EQ(e.region(), Region::csr_row_ptr);
    EXPECT_EQ(e.index(), 5u);
  }
}

TEST(ProtectedCsrFaults, CorruptRowPtrIsBoundsGuardedInVerify) {
  // With an undetecting row scheme (RowNone) a corrupted offset must still
  // be caught by the range guard rather than fault the sweep.
  const auto a = sparse::laplacian_2d(10, 10);
  FaultLog log;
  auto p = ProtectedCsr<std::uint32_t, ElemNone, RowNone>::from_csr(a, &log, DuePolicy::record_only);
  p.raw_structure()[5] = 0x7F000000u;  // way past nnz
  (void)p.verify_all();
  EXPECT_GE(log.bounds_violations(), 1u);
}

TEST(ProtectedCsrFaults, CorruptRowPtrIsBoundsGuardedInRowAccessors) {
  // The format-uniform slow-path accessors must not underflow the row count
  // or read past the value array when an offset survives corrupted: the
  // row reads as empty and the violation is logged (paper §VI-A2).
  const auto a = sparse::laplacian_2d(10, 10);
  FaultLog log;
  auto p =
      ProtectedCsr<std::uint32_t, ElemNone, RowNone>::from_csr(a, &log, DuePolicy::record_only);
  p.raw_structure()[5] = 0x7F000000u;  // begin > end for row 5, end > nnz for row 4
  EXPECT_EQ(p.row_nnz_at(5), 0u);
  EXPECT_GE(log.bounds_violations(), 1u);
  EXPECT_THROW((void)p.element_in_row(4, a.row_nnz(4) + 1000), BoundsViolation);
}

// ---------------------------------------------------------------------------
// Long rows under the per-row CRC: a single flip stays correctable past the
// 6144-byte codeword (512 elements at 32-bit, 384 at 64-bit).
// ---------------------------------------------------------------------------

template <class Index>
sparse::Csr<Index> long_row_matrix() {
  // Rows 0 and 2 hold 5 elements; row 1 holds 600.
  constexpr std::size_t kLong = 600;
  sparse::Csr<Index> a(3, kLong);
  for (std::size_t r = 0; r < 3; ++r) {
    const std::size_t n = r == 1 ? kLong : 5;
    for (std::size_t c = 0; c < n; ++c) {
      a.cols().push_back(static_cast<Index>(c));
      a.values().push_back(1.0 + 0.001 * static_cast<double>(r * kLong + c));
    }
    a.row_ptr()[r + 1] = static_cast<Index>(a.values().size());
  }
  return a;
}

template <class Index, class ES, class RS>
void expect_long_row_flip_corrected(bool column_bit) {
  const auto a = long_row_matrix<Index>();
  FaultLog log;
  auto p = ProtectedCsr<Index, ES, RS>::from_csr(a, &log, DuePolicy::record_only);
  const std::vector<double> values(p.raw_values().begin(), p.raw_values().end());
  const std::vector<Index> cols(p.raw_cols().begin(), p.raw_cols().end());
  const std::size_t k = 5 + 550;  // deep inside row 1
  if (column_bit) {
    p.raw_cols()[k] ^= Index{1} << 3;
  } else {
    auto v = p.raw_values();
    faults::flip_bit({reinterpret_cast<std::uint8_t*>(v.data()), v.size_bytes()}, k * 64 + 17);
  }
  EXPECT_EQ(p.verify_all(), 0u);
  EXPECT_EQ(log.corrected(), 1u);
  EXPECT_EQ(log.uncorrectable(), 0u);
  const auto events = log.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].region, Region::csr_values);
  EXPECT_EQ(events[0].outcome, CheckOutcome::corrected);
  EXPECT_EQ(events[0].index, 1u);
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(double_to_bits(p.raw_values()[i]), double_to_bits(values[i])) << i;
    ASSERT_EQ(p.raw_cols()[i], cols[i]) << i;
  }
}

TEST(ProtectedCsrFaults, LongCrcRowCorrectsValueFlip) {
  expect_long_row_flip_corrected<std::uint32_t, ElemCrc32c, RowCrc32c>(false);
  expect_long_row_flip_corrected<std::uint64_t, Elem64Crc32c, Row64Crc32c>(false);
}

TEST(ProtectedCsrFaults, LongCrcRowCorrectsColumnFlip) {
  expect_long_row_flip_corrected<std::uint32_t, ElemCrc32c, RowCrc32c>(true);
  expect_long_row_flip_corrected<std::uint64_t, Elem64Crc32c, Row64Crc32c>(true);
}

}  // namespace
