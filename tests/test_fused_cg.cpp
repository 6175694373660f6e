// The fused CG iteration: every iteration of cg_solve / cg_solve_batch runs
// as two passes — spmv_columns() with the direction update p = r + beta p
// ahead of the product and p·w fused into it, then cg_calc_ur() for
// u += alpha p, r -= alpha w and r·r. These suites pin that the fusion
// changes nothing observable but the check count:
//   - u bits and residual histories equal a kernel-by-kernel recurrence
//     written from the public spmv / dot / axpy / xpby, in every format and
//     vector scheme, at 1 and 4 threads;
//   - each fused pass logs a fault in one operand exactly once, to that
//     operand's own log, and a corrected fault leaves the result unchanged;
//   - each column's vectors are checked kVectorChecksPerIteration times a
//     group per iteration.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "abft/abft.hpp"
#include "common/rng.hpp"
#include "faults/injector.hpp"
#include "solvers/solvers.hpp"
#include "sparse/generators.hpp"

namespace {

using namespace abft;

/// Vector checks per CG iteration and column, in codeword groups: r and p in
/// the SpMV pass, then p, u, w and r in the update pass.
constexpr std::uint64_t kVectorChecksPerIteration = 6;

/// The matrix protection each format is exercised with.
template <class Fmt>
struct MatrixOf {
  using ES = ElemCrc32cTile;
  using SS = schemes::StructCrc32c<std::uint32_t>;
};
template <>
struct MatrixOf<CsrFormat> {
  using ES = ElemSecded;
  using SS = RowSecded64;
};

template <class Fmt>
using PMOf = typename Fmt::template protected_matrix<std::uint32_t, typename MatrixOf<Fmt>::ES,
                                                     typename MatrixOf<Fmt>::SS>;

template <class Fmt>
auto plain_operator() {
  // 399 rows: six full SpMV chunks and a tail chunk.
  return Fmt::template make_plain<std::uint32_t, typename MatrixOf<Fmt>::ES>(
      sparse::laplacian_2d(21, 19));
}

std::vector<double> column_data(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<double> v(n);
  for (auto& e : v) e = rng.uniform(-1, 1);
  return v;
}

template <class VS>
std::vector<std::uint64_t> bits_of(ProtectedVector<VS>& v) {
  std::vector<double> got(v.size());
  v.extract({got.data(), got.size()});
  std::vector<std::uint64_t> bits;
  bits.reserve(got.size());
  for (const double e : got) bits.push_back(double_to_bits(e));
  return bits;
}

/// What a solve leaves behind.
struct Trace {
  std::vector<std::uint64_t> u;
  std::vector<double> history;
  unsigned iterations = 0;
};

void expect_same_trace(const Trace& got, const Trace& want, const std::string& what) {
  EXPECT_EQ(got.iterations, want.iterations) << what;
  ASSERT_EQ(got.u.size(), want.u.size()) << what;
  for (std::size_t i = 0; i < got.u.size(); ++i) {
    ASSERT_EQ(got.u[i], want.u[i]) << what << " u[" << i << "]";
  }
  ASSERT_EQ(got.history.size(), want.history.size()) << what;
  for (std::size_t i = 0; i < got.history.size(); ++i) {
    ASSERT_EQ(double_to_bits(got.history[i]), double_to_bits(want.history[i]))
        << what << " history[" << i << "]";
  }
}

constexpr double kTolerance = 1e-10;

/// Unfused CG, one public kernel per step: the recurrence the fused
/// iteration must reproduce bit for bit.
template <class PM, class VS>
Trace reference_cg(PM& a, ProtectedVector<VS>& b, ProtectedVector<VS>& u) {
  const std::size_t n = u.size();
  ProtectedVector<VS> r(n), p(n), w(n);
  Trace t;
  const double bnorm = norm2(b);
  const double threshold = kTolerance * (bnorm > 0.0 ? bnorm : 1.0);
  spmv(a, u, w);
  sub(b, w, r);
  copy(r, p);
  double rr = dot(r, r);
  t.history.push_back(std::sqrt(rr));
  for (unsigned iter = 1; iter <= 10000 && t.history.back() > threshold; ++iter) {
    spmv(a, p, w);
    const double alpha = rr / dot(p, w);
    axpy(alpha, p, u);
    axpy(-alpha, w, r);
    const double rr_new = dot(r, r);
    t.iterations = iter;
    t.history.push_back(std::sqrt(rr_new));
    xpby(r, rr_new / rr, p);
    rr = rr_new;
  }
  t.u = bits_of(u);
  return t;
}

template <class Fmt, class VS>
struct Combo {
  using format = Fmt;
  using scheme = VS;
};

template <class C>
class FusedCgBits : public ::testing::Test {};

using Combos = ::testing::Types<
    Combo<CsrFormat, VecNone>, Combo<CsrFormat, VecSecded64>, Combo<CsrFormat, VecCrc32c>,
    Combo<EllFormat, VecNone>, Combo<EllFormat, VecSecded64>, Combo<EllFormat, VecCrc32c>,
    Combo<SellFormat, VecNone>, Combo<SellFormat, VecSecded64>, Combo<SellFormat, VecCrc32c>>;
TYPED_TEST_SUITE(FusedCgBits, Combos);

#ifdef _OPENMP
const std::vector<int> kThreads{1, 4};
#else
const std::vector<int> kThreads{1};
#endif

void set_threads([[maybe_unused]] int t) {
#ifdef _OPENMP
  omp_set_num_threads(t);
#endif
}

/// RAII guard restoring the ambient OMP thread count.
struct ThreadCountGuard {
#ifdef _OPENMP
  int saved = omp_get_max_threads();
  ~ThreadCountGuard() { omp_set_num_threads(saved); }
#endif
};

TYPED_TEST(FusedCgBits, CgSolveEqualsTheKernelByKernelRecurrence) {
  using Fmt = typename TypeParam::format;
  using VS = typename TypeParam::scheme;
  using PM = PMOf<Fmt>;
  const auto plain = plain_operator<Fmt>();
  const std::size_t n = plain.nrows();
  const auto bdata = column_data(n, 7);
  const auto u0 = column_data(n, 8);

  ThreadCountGuard guard;
  set_threads(1);
  Trace want;
  {
    auto a = PM::from_plain(plain);
    ProtectedVector<VS> b(n), u(n);
    b.assign({bdata.data(), n});
    u.assign({u0.data(), n});
    want = reference_cg(a, b, u);
  }
  ASSERT_GT(want.iterations, 10u);
  for (const int t : kThreads) {
    set_threads(t);
    auto a = PM::from_plain(plain);
    ProtectedVector<VS> b(n), u(n);
    b.assign({bdata.data(), n});
    u.assign({u0.data(), n});
    Trace got;
    solvers::SolveOptions opts;
    opts.tolerance = kTolerance;
    opts.residual_history = &got.history;
    const auto res = solvers::cg_solve(a, b, u, opts);
    EXPECT_TRUE(res.converged);
    got.iterations = res.iterations;
    got.u = bits_of(u);
    expect_same_trace(got, want, "threads=" + std::to_string(t));
  }
}

TYPED_TEST(FusedCgBits, CgSolveBatchEqualsTheKernelByKernelRecurrence) {
  using Fmt = typename TypeParam::format;
  using VS = typename TypeParam::scheme;
  using PM = PMOf<Fmt>;
  constexpr std::size_t k = 3;
  const auto plain = plain_operator<Fmt>();
  const std::size_t n = plain.nrows();

  ThreadCountGuard guard;
  set_threads(1);
  std::vector<Trace> want;
  for (std::size_t j = 0; j < k; ++j) {
    auto a = PM::from_plain(plain);
    ProtectedVector<VS> b(n), u(n);
    const auto bdata = column_data(n, 20 + j);
    b.assign({bdata.data(), n});
    want.push_back(reference_cg(a, b, u));
  }
  for (const int t : kThreads) {
    set_threads(t);
    auto a = PM::from_plain(plain);
    ProtectedMultiVector<VS> b(n, k), u(n, k);
    for (std::size_t j = 0; j < k; ++j) {
      const auto bdata = column_data(n, 20 + j);
      b.column(j).assign({bdata.data(), n});
    }
    solvers::SolveOptions opts;
    opts.tolerance = kTolerance;
    solvers::ResidualHistories histories;
    const auto res = solvers::cg_solve_batch(a, b, u, opts, &histories);
    for (std::size_t j = 0; j < k; ++j) {
      EXPECT_TRUE(res[j].converged);
      const Trace got{bits_of(u.column(j)), histories[j], res[j].iterations};
      expect_same_trace(got, want[j],
                        "threads=" + std::to_string(t) + " column=" + std::to_string(j));
    }
  }
}

// ---------------------------------------------------------------------------
// Faults in the fused passes: one flipped bit in one operand is one event in
// that operand's own log, and nowhere else.
// ---------------------------------------------------------------------------

using FaultPM = ProtectedCsr<std::uint32_t, ElemSecded, RowSecded64>;

template <class VS>
void flip(ProtectedVector<VS>& v, std::size_t element, unsigned bit) {
  auto raw = v.raw();
  faults::flip_bit({reinterpret_cast<std::uint8_t*>(raw.data()), raw.size_bytes()},
                   64 * element + bit);
}

/// The operands of a pass, each with its own log.
template <class VS>
struct Operands {
  static constexpr std::size_t kCount = 4;  // p, u, w, r
  std::array<FaultLog, kCount> logs;
  std::array<ProtectedVector<VS>, kCount> v;

  explicit Operands(std::size_t n) {
    for (std::size_t i = 0; i < kCount; ++i) {
      v[i] = ProtectedVector<VS>(n, &logs[i], DuePolicy::record_only);
      const auto data = column_data(n, 40 + i);
      v[i].assign({data.data(), n});
    }
  }
  ProtectedVector<VS>& p() { return v[0]; }
  ProtectedVector<VS>& u() { return v[1]; }
  ProtectedVector<VS>& w() { return v[2]; }
  ProtectedVector<VS>& r() { return v[3]; }
};

const char* const kNames[] = {"p", "u", "w", "r"};

/// Result of one fused pass: its scalar and every operand's stored bits
/// (read raw: a decoding read would log the fault again).
struct PassResult {
  double scalar = 0.0;
  std::array<std::vector<std::uint64_t>, 4> bits;
};

template <class VS>
std::vector<std::uint64_t> storage_of(const ProtectedVector<VS>& v) {
  std::vector<std::uint64_t> bits;
  for (const double e : v.raw()) bits.push_back(double_to_bits(e));
  return bits;
}

/// Pass 1: p = r + beta p, w = A p, p·w.
template <class VS>
PassResult run_spmv_pass(Operands<VS>& ops, FaultPM& a) {
  std::vector<double> partials(reduction_partials(ops.p()));
  PassResult out;
  const SpmvColumn<VS> col{&ops.p(), &ops.w(), &ops.r(), 0.75, &out.scalar, partials};
  spmv_columns(a, std::span<const SpmvColumn<VS>>(&col, 1), CheckMode::full);
  for (std::size_t i = 0; i < 4; ++i) out.bits[i] = storage_of(ops.v[i]);
  return out;
}

/// Pass 2: u += alpha p, r -= alpha w, r·r.
template <class VS>
PassResult run_update_pass(Operands<VS>& ops, FaultPM&) {
  std::vector<double> partials(reduction_partials(ops.r()));
  PassResult out;
  out.scalar = cg_calc_ur(0.375, ops.p(), ops.w(), ops.u(), ops.r(), partials);
  for (std::size_t i = 0; i < 4; ++i) out.bits[i] = storage_of(ops.v[i]);
  return out;
}

/// Flip one bit in each of \p operands in turn and run \p pass: exactly one
/// event, of \p expected outcome, lands in that operand's log and none in any
/// other; a corrected fault leaves every result bit unchanged.
template <class VS, class Pass>
void expect_one_event_per_fault(std::initializer_list<std::size_t> operands, CheckOutcome expected,
                                const Pass& pass) {
  const auto a_plain = sparse::laplacian_2d(21, 19);
  const std::size_t n = a_plain.nrows();
  PassResult clean;
  {
    Operands<VS> ops(n);
    auto a = FaultPM::from_plain(a_plain);
    clean = pass(ops, a);
    for (const auto& log : ops.logs) ASSERT_EQ(log.events().size(), 0u);
  }
  for (const std::size_t victim : operands) {
    SCOPED_TRACE(kNames[victim]);
    Operands<VS> ops(n);
    FaultLog mlog;
    auto a = FaultPM::from_plain(a_plain, &mlog, DuePolicy::record_only);
    flip(ops.v[victim], 150, 40);
    const PassResult got = pass(ops, a);
    for (std::size_t i = 0; i < Operands<VS>::kCount; ++i) {
      const auto events = ops.logs[i].events();
      if (i != victim) {
        EXPECT_EQ(events.size(), 0u) << kNames[i];
        continue;
      }
      ASSERT_EQ(events.size(), 1u);
      EXPECT_EQ(events[0].outcome, expected);
      EXPECT_EQ(events[0].region, Region::dense_vector);
      EXPECT_EQ(events[0].index, 150 / VS::kGroup);
    }
    EXPECT_EQ(mlog.events().size(), 0u);
    if (expected == CheckOutcome::corrected) {
      EXPECT_EQ(double_to_bits(got.scalar), double_to_bits(clean.scalar));
      for (std::size_t i = 0; i < Operands<VS>::kCount; ++i) {
        EXPECT_EQ(got.bits[i], clean.bits[i]) << kNames[i];
      }
    }
  }
}

TEST(FusedCgFaults, SpmvPassCorrectsEachOperandOnce) {
  expect_one_event_per_fault<VecSecded64>({0, 3}, CheckOutcome::corrected,
                                          run_spmv_pass<VecSecded64>);
}

TEST(FusedCgFaults, SpmvPassDetectsEachOperandOnce) {
  expect_one_event_per_fault<VecSed>({0, 3}, CheckOutcome::uncorrectable, run_spmv_pass<VecSed>);
}

TEST(FusedCgFaults, UpdatePassCorrectsEachOperandOnce) {
  expect_one_event_per_fault<VecSecded64>({0, 1, 2, 3}, CheckOutcome::corrected,
                                          run_update_pass<VecSecded64>);
}

TEST(FusedCgFaults, UpdatePassDetectsEachOperandOnce) {
  expect_one_event_per_fault<VecSed>({0, 1, 2, 3}, CheckOutcome::uncorrectable,
                                     run_update_pass<VecSed>);
}

// The fused scalars equal dot() on the vectors the pass leaves behind.
TEST(FusedCgPasses, FusedDotsEqualDotOnTheStoredVectors) {
  const auto a_plain = sparse::laplacian_2d(21, 19);
  Operands<VecCrc32c> ops(a_plain.nrows());
  auto a = FaultPM::from_plain(a_plain);
  const double pw = run_spmv_pass(ops, a).scalar;
  EXPECT_EQ(double_to_bits(pw), double_to_bits(dot(ops.p(), ops.w())));
  const double rr = run_update_pass(ops, a).scalar;
  EXPECT_EQ(double_to_bits(rr), double_to_bits(dot(ops.r(), ops.r())));
}

// ---------------------------------------------------------------------------
// Check accounting: one more iteration costs each column
// kVectorChecksPerIteration checks a group, and b is charged once per solve.
// ---------------------------------------------------------------------------

template <class VS>
void expect_checks_per_iteration() {
  const auto a_plain = sparse::laplacian_2d(21, 19);
  const std::size_t n = a_plain.nrows();
  struct Logs {
    std::uint64_t u = 0, b = 0, groups = 0;
  };
  const auto run = [&](unsigned iterations) {
    FaultLog ulog, blog;
    auto a = FaultPM::from_plain(a_plain);
    ProtectedVector<VS> b(n, &blog, DuePolicy::record_only), u(n, &ulog, DuePolicy::record_only);
    const auto bdata = column_data(n, 3);
    b.assign({bdata.data(), n});
    solvers::SolveOptions opts;
    opts.tolerance = 0.0;  // never converges: exactly `iterations` run
    opts.max_iterations = iterations;
    EXPECT_EQ(solvers::cg_solve(a, b, u, opts).iterations, iterations);
    return Logs{ulog.checks(), blog.checks(), u.groups()};
  };
  const Logs five = run(5), six = run(6);
  EXPECT_EQ(six.u - five.u, kVectorChecksPerIteration * six.groups);
  // norm2(b) and r = b - A u, one check of each b group apiece.
  EXPECT_EQ(five.b, 2 * five.groups);
  EXPECT_EQ(six.b, five.b);
}

TEST(FusedCgChecks, SixGroupChecksPerIterationSecded64) {
  expect_checks_per_iteration<VecSecded64>();
}

TEST(FusedCgChecks, SixGroupChecksPerIterationCrc32c) {
  expect_checks_per_iteration<VecCrc32c>();
}

}  // namespace
