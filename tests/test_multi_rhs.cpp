// Batched multi-RHS kernel and solver semantics.
//
// The SpMM kernel promises each column's result is bit-identical to its
// independent SpMV while the matrix-region verification is charged exactly
// once per pass — for any k, any format, any scheme. The batched CG promises
// each column runs exactly cg_solve()'s op sequence (same bits, same
// per-request fault accounting) with converged columns frozen via the active
// mask. These suites pin all of that against sequentially-run references;
// the cross-thread-count invariance of the same observables lives in
// test_thread_determinism.cpp.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "abft/abft.hpp"
#include "common/rng.hpp"
#include "faults/injector.hpp"
#include "obs/metrics.hpp"
#include "solvers/solvers.hpp"
#include "sparse/generators.hpp"
#include "sparse/transform.hpp"

namespace {

using namespace abft;

/// Snapshot of a FaultLog's observable state.
struct LogState {
  std::uint64_t checks = 0;
  std::uint64_t corrected = 0;
  std::uint64_t uncorrectable = 0;
  std::uint64_t bounds = 0;
  std::vector<FaultEvent> events;

  static LogState of(const FaultLog& log) {
    return {log.checks(), log.corrected(), log.uncorrectable(),
            log.bounds_violations(), log.events()};
  }
};

void expect_same_log(const LogState& got, const LogState& want, const char* what) {
  EXPECT_EQ(got.checks, want.checks) << what;
  EXPECT_EQ(got.corrected, want.corrected) << what;
  EXPECT_EQ(got.uncorrectable, want.uncorrectable) << what;
  EXPECT_EQ(got.bounds, want.bounds) << what;
  ASSERT_EQ(got.events.size(), want.events.size()) << what;
  for (std::size_t i = 0; i < got.events.size(); ++i) {
    EXPECT_EQ(got.events[i].region, want.events[i].region) << what << " event " << i;
    EXPECT_EQ(got.events[i].outcome, want.events[i].outcome) << what << " event " << i;
    EXPECT_EQ(got.events[i].index, want.events[i].index) << what << " event " << i;
  }
}

/// Deterministic per-column x data (column j always gets the same bits).
template <class VS>
std::vector<double> column_data(std::size_t n, std::size_t j) {
  Xoshiro256 rng(100 + j);
  std::vector<double> v(n);
  for (auto& e : v) e = VS::mask(rng.uniform(-2, 2));
  return v;
}

template <class VS>
[[nodiscard]] std::vector<std::uint64_t> bits_of(ProtectedVector<VS>& v) {
  std::vector<double> got(v.size());
  v.extract({got.data(), got.size()});
  std::vector<std::uint64_t> bits;
  bits.reserve(got.size());
  for (double e : got) bits.push_back(double_to_bits(e));
  return bits;
}

/// One column's independent full-check SpMV on a FRESH matrix (fresh matters:
/// correcting schemes repair storage in place), with its own logs.
struct SeqRun {
  std::vector<std::uint64_t> ybits;
  LogState mat, x;
};

template <class PM, class VS, class Plain, class CorruptM>
SeqRun sequential_spmv(const Plain& plain, std::size_t j, CorruptM&& corrupt_matrix) {
  FaultLog mlog, xlog;
  auto p = PM::from_plain(plain, &mlog, DuePolicy::record_only);
  corrupt_matrix(p);
  ProtectedVector<VS> x(plain.ncols(), &xlog, DuePolicy::record_only);
  ProtectedVector<VS> y(plain.nrows(), &xlog, DuePolicy::record_only);
  const auto xraw = column_data<VS>(plain.ncols(), j);
  x.assign({xraw.data(), xraw.size()});
  spmv(p, x, y);
  return {bits_of(y), LogState::of(mlog), LogState::of(xlog)};
}

/// The core SpMM contract against one (format, scheme, width) instance:
/// every column's y bits and x accounting equal its independent SpMV's, and
/// the batch's matrix log equals ONE single-pass log — not k of them.
template <class PM, class VS, class Plain, class CorruptM>
void expect_spmm_matches_sequential(const Plain& plain, std::size_t k,
                                    CorruptM&& corrupt_matrix) {
  FaultLog mlog;
  auto p = PM::from_plain(plain, &mlog, DuePolicy::record_only);
  corrupt_matrix(p);
  std::deque<FaultLog> xlogs(k);
  ProtectedMultiVector<VS> x(plain.ncols()), y(plain.nrows());
  for (std::size_t j = 0; j < k; ++j) {
    auto& xj = x.add_column(&xlogs[j], DuePolicy::record_only);
    y.add_column(&xlogs[j], DuePolicy::record_only);
    const auto xraw = column_data<VS>(plain.ncols(), j);
    xj.assign({xraw.data(), xraw.size()});
  }
  spmm(p, x, y, CheckMode::full);

  const LogState batch_mat = LogState::of(mlog);
  for (std::size_t j = 0; j < k; ++j) {
    SCOPED_TRACE("column " + std::to_string(j));
    const auto ref = sequential_spmv<PM, VS>(plain, j, corrupt_matrix);
    const auto got = bits_of(y.column(j));
    ASSERT_EQ(got.size(), ref.ybits.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], ref.ybits[i]) << "y[" << i << "]";
    }
    expect_same_log(LogState::of(xlogs[j]), ref.x, "x column log");
    // Amortization: the whole batch was charged exactly one column's worth
    // of matrix checks, with the same outcomes and exemplars.
    expect_same_log(batch_mat, ref.mat, "matrix log vs one full pass");
  }
}

template <class PM>
void flip_value_bit(PM& p, std::size_t bit) {
  auto vals = p.raw_values();
  faults::flip_bit({reinterpret_cast<std::uint8_t*>(vals.data()), vals.size_bytes()},
                   bit);
}

TEST(MultiRhsSpmm, CsrSecdedMatchesSequentialClean) {
  const auto a = sparse::laplacian_2d(23, 17);
  using PM = ProtectedCsr<std::uint32_t, ElemSecded, RowSecded64>;
  expect_spmm_matches_sequential<PM, VecSecded64>(a, 5, [](auto&) {});
}

TEST(MultiRhsSpmm, CsrSecdedCorrectsMatrixFaultOnceForTheWholeBatch) {
  const auto a = sparse::laplacian_2d(23, 17);
  using PM = ProtectedCsr<std::uint32_t, ElemSecded, RowSecded64>;
  expect_spmm_matches_sequential<PM, VecSecded64>(a, 4, [](auto& p) {
    flip_value_bit(p, 64 * 900 + 21);  // corrected by the first column's pass
  });
}

TEST(MultiRhsSpmm, CsrCrc32cRowGranularMatchesSequential) {
  const auto a =
      sparse::pad_rows_to_min_nnz(sparse::laplacian_2d(23, 17), ElemCrc32c::kMinRowNnz);
  using PM = ProtectedCsr<std::uint32_t, ElemCrc32c, RowCrc32c>;
  expect_spmm_matches_sequential<PM, VecCrc32c>(a, 3, [](auto& p) {
    flip_value_bit(p, 64 * 512 + 7);
  });
}

TEST(MultiRhsSpmm, EllSedMatchesSequentialWithUncorrectableFault) {
  const auto a = EllFormat::make_plain<std::uint32_t, ElemNone>(sparse::laplacian_2d(16, 13));
  using PM = EllFormat::protected_matrix<std::uint32_t, schemes::ElemSed<std::uint32_t>,
                          schemes::StructSed<std::uint32_t>>;
  expect_spmm_matches_sequential<PM, VecSed>(a, 4, [](auto& p) {
    flip_value_bit(p, 64 * 33 + 50);  // SED detects, cannot correct
  });
}

TEST(MultiRhsSpmm, EllTileMatchesSequential) {
  const auto a = EllFormat::make_plain<std::uint32_t, ElemCrc32cTile>(sparse::laplacian_2d(12, 8));
  using PM = EllFormat::protected_matrix<std::uint32_t, schemes::ElemCrc32cTile<std::uint32_t>,
                          schemes::StructCrc32c<std::uint32_t>>;
  expect_spmm_matches_sequential<PM, VecNone>(a, 3, [](auto& p) {
    flip_value_bit(p, 64 * 70 + 13);
  });
}

TEST(MultiRhsSpmm, SellTileWideMatchesSequential) {
  const auto a = sparse::Sell<std::uint64_t>::from_csr(
      sparse::Csr<std::uint64_t>::from_csr(sparse::laplacian_2d(12, 9)),
      schemes::ElemCrc32cTile<std::uint64_t>::kMinRowNnz);
  using PM = ProtectedSell<std::uint64_t, schemes::ElemCrc32cTile<std::uint64_t>,
                           schemes::StructCrc32c<std::uint64_t>>;
  expect_spmm_matches_sequential<PM, VecNone>(a, 4, [](auto&) {});
}

TEST(MultiRhsSpmm, MatrixChecksDoNotScaleWithBatchSize) {
  // The amortization claim in one assertion: k = 1 and k = 8 charge the
  // matrix log identically.
  const auto a = sparse::laplacian_2d(23, 17);
  using PM = ProtectedCsr<std::uint32_t, ElemSecded, RowSecded64>;
  const auto matrix_checks_for = [&](std::size_t k) {
    FaultLog mlog;
    auto p = PM::from_plain(a, &mlog, DuePolicy::record_only);
    ProtectedMultiVector<VecSecded64> x(a.ncols(), k, nullptr,
                                        DuePolicy::record_only);
    ProtectedMultiVector<VecSecded64> y(a.nrows(), k, nullptr,
                                        DuePolicy::record_only);
    spmm(p, x, y, CheckMode::full);
    return mlog.checks();
  };
  const auto one = matrix_checks_for(1);
  EXPECT_GT(one, 0u);
  EXPECT_EQ(matrix_checks_for(8), one);
}

TEST(MultiRhsSpmm, ColumnFaultsStayInTheColumnsOwnLog) {
  const auto a = sparse::laplacian_2d(23, 17);
  using PM = ProtectedCsr<std::uint32_t, ElemNone, RowNone>;
  constexpr std::size_t k = 3;
  FaultLog mlog;
  auto p = PM::from_plain(a, &mlog, DuePolicy::record_only);
  std::deque<FaultLog> xlogs(k);
  ProtectedMultiVector<VecSecded64> x(a.ncols()), y(a.nrows());
  for (std::size_t j = 0; j < k; ++j) {
    auto& xj = x.add_column(&xlogs[j], DuePolicy::record_only);
    y.add_column(&xlogs[j], DuePolicy::record_only);
    const auto xraw = column_data<VecSecded64>(a.ncols(), j);
    xj.assign({xraw.data(), xraw.size()});
  }
  // Corrupt column 1 only.
  auto raw = x.column(1).raw();
  faults::flip_bit({reinterpret_cast<std::uint8_t*>(raw.data()), raw.size_bytes()},
                   64 * 5 + 17);
  spmm(p, x, y, CheckMode::full);
  EXPECT_EQ(xlogs[1].corrected(), 1u);
  for (std::size_t j : {std::size_t{0}, std::size_t{2}}) {
    EXPECT_EQ(xlogs[j].corrected(), 0u) << j;
    EXPECT_EQ(xlogs[j].uncorrectable(), 0u) << j;
    EXPECT_TRUE(xlogs[j].events().empty()) << j;
    EXPECT_EQ(xlogs[j].checks(), xlogs[0].checks()) << j;
  }
  // The corrected column still computes the right bits.
  const auto ref = sequential_spmv<PM, VecSecded64>(a, 1, [](auto&) {});
  const auto got = bits_of(y.column(1));
  ASSERT_EQ(got.size(), ref.ybits.size());
  for (std::size_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], ref.ybits[i]) << i;
}

TEST(MultiRhsSpmm, ActiveMaskFreezesColumnsWithoutDisturbingTheRest) {
  const auto a = sparse::laplacian_2d(23, 17);
  using PM = ProtectedCsr<std::uint32_t, ElemSecded, RowSecded64>;
  constexpr std::size_t k = 3;
  FaultLog mlog;
  auto p = PM::from_plain(a, &mlog, DuePolicy::record_only);
  std::deque<FaultLog> xlogs(k);
  ProtectedMultiVector<VecSecded64> x(a.ncols()), y(a.nrows());
  for (std::size_t j = 0; j < k; ++j) {
    auto& xj = x.add_column(&xlogs[j], DuePolicy::record_only);
    y.add_column(&xlogs[j], DuePolicy::record_only);
    const auto xraw = column_data<VecSecded64>(a.ncols(), j);
    xj.assign({xraw.data(), xraw.size()});
  }
  const auto sentinel = column_data<VecSecded64>(a.nrows(), 77);
  y.column(1).assign({sentinel.data(), sentinel.size()});
  const auto frozen_before = bits_of(y.column(1));
  // assign() itself verifies, so the frozen column's log is not empty here —
  // the invariant is that the masked spmm adds *nothing* to it.
  const auto frozen_log_before = LogState::of(xlogs[1]);

  const std::vector<std::uint8_t> active{1, 0, 1};
  spmm(p, x, y, CheckMode::full, &active);

  // Frozen column: log untouched by the masked spmm (checked before bits_of,
  // whose extract() logs one check per group itself), output bits untouched.
  expect_same_log(LogState::of(xlogs[1]), frozen_log_before,
                  "frozen column log untouched by spmm");
  const auto frozen_after = bits_of(y.column(1));
  EXPECT_EQ(frozen_after, frozen_before);
  // Live columns match their sequential references; the matrix was still
  // charged exactly one pass.
  for (std::size_t j : {std::size_t{0}, std::size_t{2}}) {
    const auto ref = sequential_spmv<PM, VecSecded64>(a, j, [](auto&) {});
    const auto got = bits_of(y.column(j));
    ASSERT_EQ(got.size(), ref.ybits.size()) << j;
    for (std::size_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], ref.ybits[i]) << i;
    expect_same_log(LogState::of(mlog), ref.mat, "matrix log vs one pass");
  }
}

TEST(MultiRhsSpmm, RejectsShapeMismatches) {
  const auto a = sparse::laplacian_2d(8, 8);
  using PM = ProtectedCsr<std::uint32_t, ElemNone, RowNone>;
  auto p = PM::from_plain(a);
  ProtectedMultiVector<VecNone> x(a.ncols(), 2), y(a.nrows(), 3);
  EXPECT_THROW(spmm(p, x, y), std::invalid_argument);
  ProtectedMultiVector<VecNone> y2(a.nrows(), 2);
  const std::vector<std::uint8_t> short_mask{1};
  EXPECT_THROW(spmm(p, x, y2, CheckMode::full, &short_mask), std::invalid_argument);
  ProtectedMultiVector<VecNone> xbad(a.ncols() + 1, 2);
  EXPECT_THROW(spmm(p, xbad, y2), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Batched CG vs k sequential cg_solve() runs.
// ---------------------------------------------------------------------------

TEST(MultiRhsCg, BatchSolveIsBitIdenticalToSequentialSolves) {
  const auto a = sparse::laplacian_2d(14, 14);
  using PM = ProtectedCsr<std::uint32_t, ElemSecded, RowSecded64>;
  constexpr std::size_t k = 4;
  solvers::SolveOptions opts;
  opts.tolerance = 1e-9;

  // Column 2 is b = 0 with u0 = 0: converged at iteration 0, frozen from the
  // start while its neighbours keep iterating.
  const auto b_data = [&](std::size_t j) {
    if (j == 2) return std::vector<double>(a.nrows(), 0.0);
    return column_data<VecSecded64>(a.nrows(), j);
  };

  // Batch run: per-request logs on every column.
  FaultLog mlog;
  auto p = PM::from_plain(a, &mlog, DuePolicy::record_only);
  std::deque<FaultLog> blogs(k), ulogs(k);
  ProtectedMultiVector<VecSecded64> b(a.nrows()), u(a.nrows());
  for (std::size_t j = 0; j < k; ++j) {
    auto& bj = b.add_column(&blogs[j], DuePolicy::record_only);
    u.add_column(&ulogs[j], DuePolicy::record_only);
    const auto braw = b_data(j);
    bj.assign({braw.data(), braw.size()});
  }
  solvers::ResidualHistories histories;
  const auto results = solvers::cg_solve_batch(p, b, u, opts, &histories);
  ASSERT_EQ(results.size(), k);
  ASSERT_EQ(histories.size(), k);

  for (std::size_t j = 0; j < k; ++j) {
    SCOPED_TRACE("column " + std::to_string(j));
    FaultLog smlog, sblog, sulog;
    auto sp = PM::from_plain(a, &smlog, DuePolicy::record_only);
    ProtectedVector<VecSecded64> sb(a.nrows(), &sblog, DuePolicy::record_only);
    ProtectedVector<VecSecded64> su(a.nrows(), &sulog, DuePolicy::record_only);
    const auto braw = b_data(j);
    sb.assign({braw.data(), braw.size()});
    solvers::SolveOptions sopts = opts;
    std::vector<double> history;
    sopts.residual_history = &history;
    const auto res = solvers::cg_solve(sp, sb, su, sopts);

    EXPECT_EQ(results[j].converged, res.converged);
    EXPECT_EQ(results[j].iterations, res.iterations);
    EXPECT_EQ(double_to_bits(results[j].residual_norm),
              double_to_bits(res.residual_norm));
    ASSERT_EQ(histories[j].size(), history.size());
    for (std::size_t i = 0; i < history.size(); ++i) {
      ASSERT_EQ(double_to_bits(histories[j][i]), double_to_bits(history[i])) << i;
    }
    const auto got = bits_of(u.column(j));
    const auto want = bits_of(su);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "u[" << i << "]";
    }
    // Per-request isolation: the batched column's b/u accounting equals the
    // standalone solve's (the amortized matrix checks land in the shared
    // matrix log, never in a tenant's).
    expect_same_log(LogState::of(blogs[j]), LogState::of(sblog), "b log");
    expect_same_log(LogState::of(ulogs[j]), LogState::of(sulog), "u log");
  }
  EXPECT_TRUE(results[2].converged);
  EXPECT_EQ(results[2].iterations, 0u);
}

/// A one-system adaptive CG solve — through cg_solve_batch at k = 1, or
/// through cg_solve — on laplacian_2d(14, 14) with SECDED everywhere, with or
/// without a single corrected bit flip in b. Returns the policy's interval
/// trajectory as (iteration, interval) pairs.
std::vector<std::pair<std::uint64_t, unsigned>> adaptive_cg_trajectory(bool batch,
                                                                       bool flip_b) {
  const auto a = sparse::laplacian_2d(14, 14);
  using PM = ProtectedCsr<std::uint32_t, ElemSecded, RowSecded64>;
  FaultLog mlog, blog, ulog;
  auto p = PM::from_plain(a, &mlog, DuePolicy::record_only);
  ProtectedMultiVector<VecSecded64> b(a.nrows()), u(a.nrows());
  auto& b0 = b.add_column(&blog, DuePolicy::record_only);
  auto& u0 = u.add_column(&ulog, DuePolicy::record_only);
  const auto braw = column_data<VecSecded64>(a.nrows(), 0);
  b0.assign({braw.data(), braw.size()});
  if (flip_b) {
    auto raw = b0.raw();
    faults::flip_bit({reinterpret_cast<std::uint8_t*>(raw.data()), raw.size_bytes()},
                     64 * 5 + 40);
  }
  AdaptiveCheckPolicy policy;
  solvers::SolveOptions opts;
  opts.tolerance = 1e-9;
  opts.adaptive_policy = &policy;
  const bool converged = batch ? solvers::cg_solve_batch(p, b, u, opts).at(0).converged
                               : solvers::cg_solve(p, b0, u0, opts).converged;
  EXPECT_TRUE(converged);
  EXPECT_EQ(blog.corrected(), flip_b ? 1u : 0u);
  std::vector<std::pair<std::uint64_t, unsigned>> trajectory;
  for (const auto& c : policy.trajectory()) trajectory.emplace_back(c.iteration, c.interval);
  return trajectory;
}

TEST(MultiRhsCg, CorrectedFaultInBLeavesTheAdaptiveTrajectoryUnchanged) {
  // norm2(b) commits b's corrected fault before the iteration-0 check
  // decision primes the policy, so the fault is not fresh evidence at the
  // first check window — in the batch exactly as in cg_solve.
  const auto clean = adaptive_cg_trajectory(/*batch=*/true, /*flip_b=*/false);
  ASSERT_GE(clean.size(), 2u);
  EXPECT_EQ(adaptive_cg_trajectory(/*batch=*/true, /*flip_b=*/true), clean);
  EXPECT_EQ(adaptive_cg_trajectory(/*batch=*/false, /*flip_b=*/true), clean);
  EXPECT_EQ(adaptive_cg_trajectory(/*batch=*/false, /*flip_b=*/false), clean);
}

TEST(MultiRhsCg, SolveCountersStampEachSystemOnceUnderItsEntryPointsLabel) {
  if (!obs::enabled()) GTEST_SKIP() << "observability is off";
  const auto solves = [](const char* solver) {
    return obs::MetricsRegistry::global().snapshot().counter(
        std::string("abft_solves_total{solver=\"") + solver + "\"}");
  };
  const auto a = sparse::laplacian_2d(8, 8);
  using PM = ProtectedCsr<std::uint32_t, ElemNone, RowNone>;
  auto p = PM::from_plain(a);
  const auto cg0 = solves("cg");
  const auto batch0 = solves("cg-batch");

  ProtectedVector<VecNone> b(a.nrows()), u(a.nrows());
  fill(b, 1.0);
  (void)solvers::cg_solve(p, b, u);
  EXPECT_EQ(solves("cg"), cg0 + 1);
  EXPECT_EQ(solves("cg-batch"), batch0);

  constexpr std::size_t k = 3;
  ProtectedMultiVector<VecNone> bb(a.nrows(), k), uu(a.nrows(), k);
  for (std::size_t j = 0; j < k; ++j) fill(bb.column(j), 1.0);
  (void)solvers::cg_solve_batch(p, bb, uu);
  EXPECT_EQ(solves("cg"), cg0 + 1);
  EXPECT_EQ(solves("cg-batch"), batch0 + k);
}

TEST(MultiRhsCg, EmptyBatchAndSizeMismatch) {
  const auto a = sparse::laplacian_2d(6, 6);
  using PM = ProtectedCsr<std::uint32_t, ElemNone, RowNone>;
  auto p = PM::from_plain(a);
  ProtectedMultiVector<VecNone> b(a.nrows()), u(a.nrows());
  EXPECT_TRUE(solvers::cg_solve_batch(p, b, u).empty());
  ProtectedMultiVector<VecNone> b1(a.nrows(), 1), u2(a.nrows(), 2);
  EXPECT_THROW((void)solvers::cg_solve_batch(p, b1, u2), std::invalid_argument);
}

}  // namespace
