// Cross-thread-count determinism of the parallel protected kernels.
//
// The chunked SpMV, the fixed-order dot and the claim-table tile protocol
// promise that results, fault-log contents and check accounting are
// bit-identical at any OMP thread count — faults included, even faults that
// land in a tile straddling two 64-row chunks. The OpenMP suites below pin
// the thread count to 1, 2, 4 and 7 in turn (7 deliberately does not divide
// the chunk counts) and compare every observable against the 1-thread run.
//
// The ThreadStress suites at the bottom drive the synchronization primitives
// themselves (TileClaimTable, ErrorCapture::merge_from, BatchQueue) with
// raw std::thread — no OpenMP — so a ThreadSanitizer build can watch the
// exact acquire/release handshakes the kernels rely on without libgomp's
// uninstrumented internals drowning the report in false positives.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "abft/abft.hpp"
#include "abft/error_capture.hpp"
#include "abft/tile_check.hpp"
#include "common/rng.hpp"
#include "faults/injector.hpp"
#include "obs/metrics.hpp"
#include "service/batch_queue.hpp"
#include "solvers/solvers.hpp"
#include "sparse/generators.hpp"
#include "sparse/transform.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace {

using namespace abft;

// ---------------------------------------------------------------------------
// std::thread stress tests of the kernel synchronization primitives.
// ---------------------------------------------------------------------------

constexpr int kStressThreads = 8;

void run_threads(int nthreads, const std::function<void(int)>& body) {
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(nthreads));
  for (int t = 0; t < nthreads; ++t) workers.emplace_back(body, t);
  for (auto& w : workers) w.join();
}

TEST(ThreadStress, TileClaimTableElectsExactlyOneWinnerPerTile) {
  constexpr std::size_t kTiles = 64;
  for (int rep = 0; rep < 100; ++rep) {
    TileClaimTable table(kTiles);
    std::vector<std::atomic<int>> winners(kTiles);
    // One payload slot per tile stands in for the decoded tile bytes: the
    // claim winner writes it before publish(), everyone else must observe
    // the write after wait_done() — the handshake TileVerifier depends on
    // for corrections to be visible across chunks.
    std::vector<int> payload(kTiles, 0);
    std::atomic<int> stale_reads{0};
    run_threads(kStressThreads, [&](int) {
      for (std::size_t t = 0; t < kTiles; ++t) {
        if (table.claim(t)) {
          payload[t] = 1;
          winners[t].fetch_add(1, std::memory_order_relaxed);
          table.publish(t);
        } else {
          table.wait_done(t);
          if (payload[t] != 1) stale_reads.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
    for (std::size_t t = 0; t < kTiles; ++t) {
      ASSERT_EQ(winners[t].load(), 1) << "tile " << t << " rep " << rep;
    }
    ASSERT_EQ(stale_reads.load(), 0) << "rep " << rep;
  }
}

/// Snapshot of a FaultLog's observable state after a kernel pass.
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

TEST(ThreadStress, ErrorCaptureConcurrentMergeMatchesSerialFold) {
  // Per-thread captures with distinct exemplar indices, merged concurrently
  // into one shared capture: counters must sum exactly and the committed
  // exemplar must be the global minimum key, independent of merge order.
  for (int rep = 0; rep < 50; ++rep) {
    ErrorCapture shared;
    run_threads(kStressThreads, [&](int t) {
      ErrorCapture local;
      local.add_checks(static_cast<std::uint64_t>(t) + 1);
      // Thread t's first fault sits at index 1000 - 100*t: the *last*
      // thread holds the global minimum, so first-writer-wins would get
      // this wrong whenever thread 0 merges first.
      local.record(Region::csr_values, CheckOutcome::uncorrectable,
                   1000 - 100 * static_cast<std::size_t>(t));
      local.record(Region::sell_values, CheckOutcome::corrected,
                   500 + static_cast<std::size_t>(t));
      shared.merge_from(local);
    });
    FaultLog log;
    shared.commit(&log, DuePolicy::record_only);
    EXPECT_EQ(log.checks(), std::uint64_t{kStressThreads} * (kStressThreads + 1) / 2);
    EXPECT_EQ(log.uncorrectable(), std::uint64_t{kStressThreads});
    EXPECT_EQ(log.corrected(), std::uint64_t{kStressThreads});
    const auto events = log.events();
    ASSERT_FALSE(events.empty());
    // The exemplar (first event of each outcome) carries the minimum key.
    bool saw_min_unc = false, saw_min_corr = false;
    for (const auto& e : events) {
      if (e.region == Region::csr_values) {
        EXPECT_EQ(e.index, 1000 - 100 * (kStressThreads - 1));
        saw_min_unc = true;
      }
      if (e.region == Region::sell_values) {
        EXPECT_EQ(e.index, 500u);
        saw_min_corr = true;
      }
    }
    EXPECT_TRUE(saw_min_unc);
    EXPECT_TRUE(saw_min_corr);
  }
}

// The solve service's request queue, hammered with raw std::thread producers
// and consumers (the TSan job's target): every pushed request must be
// delivered exactly once, in batches of bounded size, and close() must drain
// cleanly.
TEST(ThreadStress, BatchQueueDeliversEveryRequestExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 2000;
  constexpr std::size_t kTotal =
      static_cast<std::size_t>(kProducers) * kPerProducer;
  for (int rep = 0; rep < 5; ++rep) {
    service::BatchQueue<int> queue(64);  // small capacity: pushes must block
    std::vector<std::atomic<int>> delivered(kTotal);
    std::atomic<int> produced{0};

    std::vector<std::thread> workers;
    for (int p = 0; p < kProducers; ++p) {
      workers.emplace_back([&, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          ASSERT_TRUE(queue.push(p * kPerProducer + i));
        }
        if (produced.fetch_add(1) + 1 == kProducers) queue.close();
      });
    }
    for (int c = 0; c < kConsumers; ++c) {
      workers.emplace_back([&, c] {
        // Varying batch sizes across consumers exercises partial drains.
        const std::size_t max_batch = static_cast<std::size_t>(1) << c;
        while (true) {
          const auto batch = queue.pop_batch(max_batch);
          if (batch.empty()) break;  // closed and drained
          ASSERT_LE(batch.size(), max_batch);
          for (int id : batch) {
            delivered[static_cast<std::size_t>(id)].fetch_add(
                1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& w : workers) w.join();

    for (std::size_t i = 0; i < kTotal; ++i) {
      ASSERT_EQ(delivered[i].load(), 1) << "request " << i << " rep " << rep;
    }
    EXPECT_EQ(queue.size(), 0u);
    EXPECT_FALSE(queue.push(-1)) << "pushes after close must fail";
    EXPECT_TRUE(queue.pop_batch(8).empty());
  }
}

#ifdef _OPENMP

// ---------------------------------------------------------------------------
// OpenMP cross-thread-count determinism: every observable of a protected
// kernel pass — result bits, fault-log contents, check counts — must be
// identical at 1, 2, 4 and 7 threads.
// ---------------------------------------------------------------------------

const std::vector<int> kThreadCounts{1, 2, 4, 7};

/// RAII guard restoring the ambient OMP thread count.
struct ThreadCountGuard {
  int saved = omp_get_max_threads();
  ~ThreadCountGuard() { omp_set_num_threads(saved); }
};

/// Everything observable from one SpMV pass.
struct SpmvRun {
  std::vector<std::uint64_t> ybits;
  LogState mat, vec;
};

void expect_same_run(const SpmvRun& got, const SpmvRun& want, int nthreads) {
  ASSERT_EQ(got.ybits.size(), want.ybits.size());
  for (std::size_t i = 0; i < got.ybits.size(); ++i) {
    ASSERT_EQ(got.ybits[i], want.ybits[i]) << "y[" << i << "] at " << nthreads
                                           << " threads";
  }
  expect_same_log(got.mat, want.mat, "matrix log");
  expect_same_log(got.vec, want.vec, "vector log");
}

/// Build the protected matrix fresh, apply \p corrupt to it and the x vector,
/// run one full-mode SpMV and snapshot all observables. Fresh construction
/// per run matters: correcting schemes repair storage in place.
template <class PM, class VS, class Plain, class Corrupt>
SpmvRun run_spmv(const Plain& plain, Corrupt&& corrupt) {
  FaultLog mlog, xlog;
  auto p = PM::from_plain(plain, &mlog, DuePolicy::record_only);
  ProtectedVector<VS> x(plain.ncols(), &xlog, DuePolicy::record_only);
  ProtectedVector<VS> y(plain.nrows(), &xlog, DuePolicy::record_only);
  Xoshiro256 rng(17);
  std::vector<double> xraw(plain.ncols());
  for (auto& v : xraw) v = VS::mask(rng.uniform(-2, 2));
  x.assign({xraw.data(), xraw.size()});
  corrupt(p, x);
  spmv(p, x, y);
  SpmvRun run;
  std::vector<double> got(plain.nrows());
  y.extract({got.data(), got.size()});
  run.ybits.reserve(got.size());
  for (double v : got) run.ybits.push_back(double_to_bits(v));
  run.mat = LogState::of(mlog);
  run.vec = LogState::of(xlog);
  return run;
}

template <class PM, class VS, class Plain, class Corrupt>
void expect_thread_count_invariant_spmv(const Plain& plain, Corrupt&& corrupt) {
  ThreadCountGuard guard;
  omp_set_num_threads(1);
  const SpmvRun reference = run_spmv<PM, VS>(plain, corrupt);
  EXPECT_GT(reference.mat.checks + reference.vec.checks, 0u)
      << "suite must exercise the accounting path";
  for (int nthreads : kThreadCounts) {
    omp_set_num_threads(nthreads);
    const SpmvRun run = run_spmv<PM, VS>(plain, corrupt);
    expect_same_run(run, reference, nthreads);
  }
}

/// Flip bit \p bit of a protected matrix's value slab.
template <class PM>
void flip_value_bit(PM& p, std::size_t bit) {
  auto vals = p.raw_values();
  faults::flip_bit({reinterpret_cast<std::uint8_t*>(vals.data()), vals.size_bytes()},
                   bit);
}

TEST(ThreadDeterminism, CsrSecdedCleanAndFaulty) {
  // 851 rows: 14 chunks, the last one ragged.
  const auto a = sparse::laplacian_2d(37, 23);
  using PM = ProtectedCsr<std::uint32_t, ElemSecded, RowSecded64>;
  expect_thread_count_invariant_spmv<PM, VecSecded64>(a, [](auto&, auto&) {});
  expect_thread_count_invariant_spmv<PM, VecSecded64>(a, [](auto& p, auto&) {
    flip_value_bit(p, 64 * 1000 + 19);  // corrected mid-matrix
    flip_value_bit(p, 64 * 2500 + 3);   // second fault, different chunk
  });
}

TEST(ThreadDeterminism, CsrSedUncorrectableFaults) {
  const auto a = sparse::laplacian_2d(37, 23);
  using PM = ProtectedCsr<std::uint32_t, ElemSed, RowSed>;
  expect_thread_count_invariant_spmv<PM, VecSed>(a, [](auto& p, auto&) {
    flip_value_bit(p, 64 * 700 + 11);
    flip_value_bit(p, 64 * 3100 + 42);
  });
}

TEST(ThreadDeterminism, CsrCrc32cRowGranular) {
  const auto a =
      sparse::pad_rows_to_min_nnz(sparse::laplacian_2d(37, 23), ElemCrc32c::kMinRowNnz);
  using PM = ProtectedCsr<std::uint32_t, ElemCrc32c, RowCrc32c>;
  expect_thread_count_invariant_spmv<PM, VecNone>(a, [](auto& p, auto&) {
    flip_value_bit(p, 64 * 1800 + 27);
  });
}

TEST(ThreadDeterminism, EllSecdedBatchPathCleanAndFaulty) {
  const auto a = EllFormat::make_plain<std::uint32_t, ElemNone>(sparse::laplacian_2d(16, 13));
  using PM = EllFormat::protected_matrix<std::uint32_t, schemes::ElemSecded<std::uint32_t>,
                          schemes::StructSecded<std::uint32_t>>;
  expect_thread_count_invariant_spmv<PM, VecSecded64>(a, [](auto&, auto&) {});
  expect_thread_count_invariant_spmv<PM, VecSecded64>(a, [](auto& p, auto&) {
    // Knock one slab column dirty so the batch predicate's per-element
    // fallback runs under every thread count.
    flip_value_bit(p, 64 * 70 + 9);
  });
}

TEST(ThreadDeterminism, EllSedBatchPathFaulty) {
  const auto a = EllFormat::make_plain<std::uint32_t, ElemNone>(sparse::laplacian_2d(16, 13));
  using PM = EllFormat::protected_matrix<std::uint32_t, schemes::ElemSed<std::uint32_t>,
                          schemes::StructSed<std::uint32_t>>;
  expect_thread_count_invariant_spmv<PM, VecSed>(a, [](auto& p, auto&) {
    flip_value_bit(p, 64 * 33 + 50);
  });
}

TEST(ThreadDeterminism, EllTileFaultStraddlingChunkBoundary) {
  // 96 rows = two 64-row chunks (the second ragged). Slab slot 70 lies in
  // tile 1, which spans slots [64, 160): rows 64..95 of slab column 0 plus
  // rows 0..63 of column 1 — i.e. the tile is shared by both chunks, the
  // exact case the claim table arbitrates.
  const auto a = EllFormat::make_plain<std::uint32_t, ElemCrc32cTile>(sparse::laplacian_2d(12, 8));
  ASSERT_EQ(a.nrows(), 96u);
  using PM = EllFormat::protected_matrix<std::uint32_t, schemes::ElemCrc32cTile<std::uint32_t>,
                          schemes::StructCrc32c<std::uint32_t>>;
  expect_thread_count_invariant_spmv<PM, VecNone>(a, [](auto& p, auto&) {
    flip_value_bit(p, 64 * 70 + 13);
  });
  // And a double fault: one per chunk-straddling tile region.
  expect_thread_count_invariant_spmv<PM, VecNone>(a, [](auto& p, auto&) {
    flip_value_bit(p, 64 * 70 + 13);
    flip_value_bit(p, 64 * 130 + 7);
  });
}

TEST(ThreadDeterminism, SellTileFaults) {
  const auto a = sparse::Sell<std::uint32_t>::from_csr(
      sparse::laplacian_2d(12, 9), ElemCrc32cTile::kMinRowNnz);
  using PM = ProtectedSell<std::uint32_t, schemes::ElemCrc32cTile<std::uint32_t>,
                           schemes::StructCrc32c<std::uint32_t>>;
  expect_thread_count_invariant_spmv<PM, VecNone>(a, [](auto&, auto&) {});
  expect_thread_count_invariant_spmv<PM, VecNone>(a, [](auto& p, auto&) {
    flip_value_bit(p, 64 * 50 + 21);
  });
}

TEST(ThreadDeterminism, XVectorCorrectionRecordedOnce) {
  // A fault in the shared x vector: multiple chunks read the same faulty
  // group, but the once-per-pass x sweep gives it exactly one verifier, so
  // the log matches the serial run (one corrected record) at every thread
  // count.
  const auto a = sparse::laplacian_2d(37, 23);
  using PM = ProtectedCsr<std::uint32_t, ElemNone, RowNone>;
  expect_thread_count_invariant_spmv<PM, VecSecded64>(a, [](auto&, auto& x) {
    auto raw = x.raw();
    faults::flip_bit({reinterpret_cast<std::uint8_t*>(raw.data()), raw.size_bytes()},
                     64 * 3 + 17);
  });
}

TEST(ThreadDeterminism, DotIsBitwiseThreadCountInvariant) {
  ThreadCountGuard guard;
  const std::size_t n = 10'000;
  Xoshiro256 rng(23);
  std::vector<double> araw(n), braw(n);
  for (std::size_t i = 0; i < n; ++i) {
    araw[i] = VecSed::mask(rng.uniform(-5, 5));
    braw[i] = VecSed::mask(rng.uniform(-5, 5));
  }
  omp_set_num_threads(1);
  const auto run_dot = [&] {
    ProtectedVector<VecSed> pa(n), pb(n);
    pa.assign({araw.data(), n});
    pb.assign({braw.data(), n});
    return dot(pa, pb);
  };
  const double reference = run_dot();
  for (int nthreads : kThreadCounts) {
    omp_set_num_threads(nthreads);
    EXPECT_EQ(double_to_bits(run_dot()), double_to_bits(reference)) << nthreads;
  }
}

TEST(ThreadDeterminism, CgSolveIsBitwiseThreadCountInvariant) {
  ThreadCountGuard guard;
  const auto a = sparse::laplacian_2d(20, 20);
  struct CgRun {
    std::vector<std::uint64_t> ubits;
    std::vector<double> residuals;
    unsigned iterations = 0;
    LogState mat;
  };
  const auto run_cg = [&] {
    FaultLog mlog, vlog;
    auto pa = ProtectedCsr<std::uint32_t, ElemSecded, RowSecded64>::from_csr(
        a, &mlog, DuePolicy::record_only);
    ProtectedVector<VecSecded64> b(a.nrows(), &vlog, DuePolicy::record_only);
    ProtectedVector<VecSecded64> u(a.nrows(), &vlog, DuePolicy::record_only);
    fill(b, 1.0);
    fill(u, 0.0);
    solvers::SolveOptions opts;
    opts.tolerance = 1e-9;
    CgRun run;
    opts.residual_history = &run.residuals;
    const auto res = solvers::cg_solve(pa, b, u, opts);
    EXPECT_TRUE(res.converged);
    run.iterations = res.iterations;
    std::vector<double> got(a.nrows());
    u.extract({got.data(), got.size()});
    for (double v : got) run.ubits.push_back(double_to_bits(v));
    run.mat = LogState::of(mlog);
    return run;
  };
  omp_set_num_threads(1);
  const CgRun reference = run_cg();
  for (int nthreads : kThreadCounts) {
    omp_set_num_threads(nthreads);
    const CgRun run = run_cg();
    EXPECT_EQ(run.iterations, reference.iterations) << nthreads;
    ASSERT_EQ(run.ubits.size(), reference.ubits.size());
    for (std::size_t i = 0; i < run.ubits.size(); ++i) {
      ASSERT_EQ(run.ubits[i], reference.ubits[i]) << "u[" << i << "] at " << nthreads
                                                  << " threads";
    }
    ASSERT_EQ(run.residuals.size(), reference.residuals.size()) << nthreads;
    for (std::size_t i = 0; i < run.residuals.size(); ++i) {
      ASSERT_EQ(double_to_bits(run.residuals[i]), double_to_bits(reference.residuals[i]))
          << "residual " << i << " at " << nthreads << " threads";
    }
    expect_same_log(run.mat, reference.mat, "cg matrix log");
  }
}

// ---------------------------------------------------------------------------
// Multi-RHS leg: the batched kernels keep the same promise — y bits, fault
// logs and check counts of every column, plus the once-per-pass matrix
// accounting, are identical at 1, 2, 4 and 7 threads and equal to k
// sequential runs (the sequential equivalence itself is pinned per-format in
// test_multi_rhs.cpp; here it anchors the 1-thread reference).
// ---------------------------------------------------------------------------

/// Everything observable from one SpMM pass.
struct SpmmRun {
  std::vector<std::vector<std::uint64_t>> ybits;  // per column
  LogState mat;
  std::vector<LogState> xlogs;  // per column
};

template <class PM, class VS, class Plain, class Corrupt>
SpmmRun run_spmm(const Plain& plain, std::size_t k, Corrupt&& corrupt) {
  FaultLog mlog;
  auto p = PM::from_plain(plain, &mlog, DuePolicy::record_only);
  std::deque<FaultLog> xlogs(k);
  ProtectedMultiVector<VS> x(plain.ncols()), y(plain.nrows());
  Xoshiro256 rng(29);
  for (std::size_t j = 0; j < k; ++j) {
    auto& xj = x.add_column(&xlogs[j], DuePolicy::record_only);
    y.add_column(&xlogs[j], DuePolicy::record_only);
    std::vector<double> xraw(plain.ncols());
    for (auto& v : xraw) v = VS::mask(rng.uniform(-2, 2));
    xj.assign({xraw.data(), xraw.size()});
  }
  corrupt(p, x);
  spmm(p, x, y, CheckMode::full);
  SpmmRun run;
  run.mat = LogState::of(mlog);
  for (std::size_t j = 0; j < k; ++j) {
    std::vector<double> got(plain.nrows());
    y.column(j).extract({got.data(), got.size()});
    std::vector<std::uint64_t> bits;
    bits.reserve(got.size());
    for (double v : got) bits.push_back(double_to_bits(v));
    run.ybits.push_back(std::move(bits));
    run.xlogs.push_back(LogState::of(xlogs[j]));
  }
  return run;
}

template <class PM, class VS, class Plain, class Corrupt>
void expect_thread_count_invariant_spmm(const Plain& plain, std::size_t k,
                                        Corrupt&& corrupt) {
  ThreadCountGuard guard;
  omp_set_num_threads(1);
  const SpmmRun reference = run_spmm<PM, VS>(plain, k, corrupt);
  EXPECT_GT(reference.mat.checks, 0u) << "suite must exercise the accounting path";
  for (int nthreads : kThreadCounts) {
    omp_set_num_threads(nthreads);
    const SpmmRun run = run_spmm<PM, VS>(plain, k, corrupt);
    ASSERT_EQ(run.ybits.size(), reference.ybits.size());
    for (std::size_t j = 0; j < run.ybits.size(); ++j) {
      ASSERT_EQ(run.ybits[j].size(), reference.ybits[j].size());
      for (std::size_t i = 0; i < run.ybits[j].size(); ++i) {
        ASSERT_EQ(run.ybits[j][i], reference.ybits[j][i])
            << "column " << j << " y[" << i << "] at " << nthreads << " threads";
      }
      expect_same_log(run.xlogs[j], reference.xlogs[j], "x column log");
    }
    expect_same_log(run.mat, reference.mat, "matrix log");
  }
}

TEST(ThreadDeterminism, SpmmCsrSecdedWithMatrixAndColumnFaults) {
  const auto a = sparse::laplacian_2d(37, 23);
  using PM = ProtectedCsr<std::uint32_t, ElemSecded, RowSecded64>;
  expect_thread_count_invariant_spmm<PM, VecSecded64>(a, 4, [](auto&, auto&) {});
  expect_thread_count_invariant_spmm<PM, VecSecded64>(a, 4, [](auto& p, auto& x) {
    flip_value_bit(p, 64 * 1000 + 19);  // corrected by the single full pass
    // Plus a fault in one column's x: its once-per-pass sweep keeps that
    // column's log serial-identical while the other columns stay clean.
    auto raw = x.column(2).raw();
    faults::flip_bit({reinterpret_cast<std::uint8_t*>(raw.data()), raw.size_bytes()},
                     64 * 3 + 17);
  });
}

TEST(ThreadDeterminism, SpmmEllTileFaultStraddlingChunkBoundary) {
  const auto a = EllFormat::make_plain<std::uint32_t, ElemCrc32cTile>(sparse::laplacian_2d(12, 8));
  using PM = EllFormat::protected_matrix<std::uint32_t, schemes::ElemCrc32cTile<std::uint32_t>,
                          schemes::StructCrc32c<std::uint32_t>>;
  expect_thread_count_invariant_spmm<PM, VecNone>(a, 3, [](auto& p, auto&) {
    flip_value_bit(p, 64 * 70 + 13);  // tile shared by two chunks
  });
}

/// x is verified by one sweep per pass: its log gains exactly x.groups()
/// checks per spmv (either check mode) and per *active* column per spmm —
/// an inactive column is neither read nor checked — at every thread count.
template <class PM, class VS, class Plain>
void expect_x_checks_one_sweep_per_pass(const Plain& plain) {
  ThreadCountGuard guard;
  for (int nthreads : kThreadCounts) {
    SCOPED_TRACE(std::to_string(nthreads) + " threads");
    omp_set_num_threads(nthreads);
    auto p = PM::from_plain(plain);
    FaultLog xlog;
    ProtectedVector<VS> x(plain.ncols(), &xlog), y(plain.nrows());
    fill(x, 1.0);
    const std::uint64_t g = x.groups();
    spmv(p, x, y);
    EXPECT_EQ(xlog.checks(), g);
    spmv(p, x, y, CheckMode::bounds_only);
    EXPECT_EQ(xlog.checks(), 2 * g);

    std::deque<FaultLog> logs(3);
    ProtectedMultiVector<VS> xm(plain.ncols()), ym(plain.nrows());
    for (std::size_t j = 0; j < 3; ++j) {
      fill(xm.add_column(&logs[j]), 1.0 + static_cast<double>(j));
      ym.add_column();
    }
    const std::vector<std::uint8_t> active{1, 0, 1};
    spmm(p, xm, ym, CheckMode::full, &active);
    EXPECT_EQ(logs[0].checks(), g);
    EXPECT_EQ(logs[1].checks(), 0u);
    EXPECT_EQ(logs[2].checks(), g);
    spmm(p, xm, ym, CheckMode::bounds_only);
    EXPECT_EQ(logs[0].checks(), 2 * g);
    EXPECT_EQ(logs[1].checks(), g);
    EXPECT_EQ(logs[2].checks(), 2 * g);
  }
}

template <class VS>
void expect_x_checks_one_sweep_per_pass_all_formats() {
  // 851 rows: 14 x-sweep blocks of single-entry groups, 4 of crc32c groups
  // (7 threads divides neither).
  const auto a = sparse::laplacian_2d(37, 23);
  using SE = schemes::ElemSecded<std::uint32_t>;
  using SS = schemes::StructSecded<std::uint32_t>;
  expect_x_checks_one_sweep_per_pass<ProtectedCsr<std::uint32_t, ElemSecded, RowSecded64>,
                                     VS>(a);
  expect_x_checks_one_sweep_per_pass<EllFormat::protected_matrix<std::uint32_t, SE, SS>, VS>(
      EllFormat::make_plain<std::uint32_t, SE>(a));
  expect_x_checks_one_sweep_per_pass<ProtectedSell<std::uint32_t, SE, SS>, VS>(
      sparse::Sell<std::uint32_t>::from_csr(a));
}

TEST(ThreadDeterminism, XChecksAreOneSweepPerPassAtEveryThreadCount) {
  expect_x_checks_one_sweep_per_pass_all_formats<VecSed>();
  expect_x_checks_one_sweep_per_pass_all_formats<VecSecded64>();
  expect_x_checks_one_sweep_per_pass_all_formats<VecCrc32c>();
}

TEST(ThreadDeterminism, CgSolveBatchIsBitwiseThreadCountInvariant) {
  ThreadCountGuard guard;
  const auto a = sparse::laplacian_2d(20, 20);
  constexpr std::size_t k = 3;
  struct BatchRun {
    std::vector<std::vector<std::uint64_t>> ubits;
    std::vector<unsigned> iterations;
    solvers::ResidualHistories histories;
    LogState mat;
  };
  const auto run_batch = [&] {
    FaultLog mlog;
    auto p = ProtectedCsr<std::uint32_t, ElemSecded, RowSecded64>::from_csr(
        a, &mlog, DuePolicy::record_only);
    std::deque<FaultLog> vlogs(k);
    ProtectedMultiVector<VecSecded64> b(a.nrows()), u(a.nrows());
    Xoshiro256 rng(37);
    for (std::size_t j = 0; j < k; ++j) {
      auto& bj = b.add_column(&vlogs[j], DuePolicy::record_only);
      u.add_column(&vlogs[j], DuePolicy::record_only);
      std::vector<double> braw(a.nrows());
      for (auto& v : braw) v = VecSecded64::mask(rng.uniform(-1, 1));
      bj.assign({braw.data(), braw.size()});
    }
    solvers::SolveOptions opts;
    opts.tolerance = 1e-9;
    BatchRun run;
    const auto results = solvers::cg_solve_batch(p, b, u, opts, &run.histories);
    for (std::size_t j = 0; j < k; ++j) {
      EXPECT_TRUE(results[j].converged) << j;
      run.iterations.push_back(results[j].iterations);
      std::vector<double> got(a.nrows());
      u.column(j).extract({got.data(), got.size()});
      std::vector<std::uint64_t> bits;
      for (double v : got) bits.push_back(double_to_bits(v));
      run.ubits.push_back(std::move(bits));
    }
    run.mat = LogState::of(mlog);
    return run;
  };
  omp_set_num_threads(1);
  const BatchRun reference = run_batch();
  for (int nthreads : kThreadCounts) {
    omp_set_num_threads(nthreads);
    const BatchRun run = run_batch();
    for (std::size_t j = 0; j < k; ++j) {
      EXPECT_EQ(run.iterations[j], reference.iterations[j])
          << "column " << j << " at " << nthreads << " threads";
      ASSERT_EQ(run.ubits[j].size(), reference.ubits[j].size());
      for (std::size_t i = 0; i < run.ubits[j].size(); ++i) {
        ASSERT_EQ(run.ubits[j][i], reference.ubits[j][i])
            << "column " << j << " u[" << i << "] at " << nthreads << " threads";
      }
      ASSERT_EQ(run.histories[j].size(), reference.histories[j].size()) << j;
      for (std::size_t i = 0; i < run.histories[j].size(); ++i) {
        ASSERT_EQ(double_to_bits(run.histories[j][i]),
                  double_to_bits(reference.histories[j][i]))
            << "column " << j << " residual " << i << " at " << nthreads
            << " threads";
      }
    }
    expect_same_log(run.mat, reference.mat, "batch matrix log");
  }
}

// ---------------------------------------------------------------------------
// Adaptive-controller leg: with AdaptiveCheckPolicy driving the check
// cadence, the interval trajectory is a pure function of the committed
// fault counts — so solution bits, residuals, fault logs, check counts AND
// the trajectory itself must be identical at every thread count, with obs
// on or off, clean and faulty alike.
// ---------------------------------------------------------------------------

TEST(ThreadDeterminism, AdaptiveCgSolveIsBitwiseThreadCountInvariant) {
  ThreadCountGuard guard;
  struct ObsGuard {
    ~ObsGuard() { obs::set_enabled(true); }
  } obs_guard;
  const auto a = sparse::laplacian_2d(20, 20);
  struct Run {
    std::vector<std::uint64_t> ubits;
    std::vector<double> residuals;
    unsigned iterations = 0;
    std::uint64_t full_checks = 0;
    std::vector<AdaptiveCheckPolicy::IntervalChange> trajectory;
    LogState mat, vec;
  };
  const auto run_cg = [&](bool faulty) {
    FaultLog mlog, vlog;
    auto pa = ProtectedCsr<std::uint32_t, ElemSecded, RowSecded64>::from_csr(
        a, &mlog, DuePolicy::record_only);
    if (faulty) {
      flip_value_bit(pa, 64 * 500 + 11);   // corrected early: pins the interval
      flip_value_bit(pa, 64 * 1800 + 40);  // second chunk, same sweep
    }
    ProtectedVector<VecSecded64> b(a.nrows(), &vlog, DuePolicy::record_only);
    ProtectedVector<VecSecded64> u(a.nrows(), &vlog, DuePolicy::record_only);
    fill(b, 1.0);
    fill(u, 0.0);
    AdaptiveCheckPolicy adaptive;  // fresh per solve: it carries solve state
    solvers::SolveOptions opts;
    opts.tolerance = 1e-9;
    opts.adaptive_policy = &adaptive;
    Run run;
    opts.residual_history = &run.residuals;
    const auto res = solvers::cg_solve(pa, b, u, opts);
    EXPECT_TRUE(res.converged);
    run.iterations = res.iterations;
    run.full_checks = adaptive.full_checks();
    run.trajectory = adaptive.trajectory();
    std::vector<double> got(a.nrows());
    u.extract({got.data(), got.size()});
    for (double v : got) run.ubits.push_back(double_to_bits(v));
    run.mat = LogState::of(mlog);
    run.vec = LogState::of(vlog);
    return run;
  };
  for (const bool faulty : {false, true}) {
    omp_set_num_threads(1);
    obs::set_enabled(true);
    const Run reference = run_cg(faulty);
    EXPECT_GT(reference.mat.checks + reference.vec.checks, 0u);
    // A quiet solve must actually widen, and full checks must stay below
    // one-per-iteration — otherwise this leg proves nothing about skipping.
    if (!faulty) {
      ASSERT_GE(reference.trajectory.size(), 2u);
      EXPECT_LT(reference.full_checks, std::uint64_t{reference.iterations});
    }
    for (int nthreads : kThreadCounts) {
      for (const bool obs_on : {true, false}) {
        omp_set_num_threads(nthreads);
        obs::set_enabled(obs_on);
        const Run run = run_cg(faulty);
        EXPECT_EQ(run.iterations, reference.iterations)
            << nthreads << " threads, obs " << obs_on;
        EXPECT_EQ(run.full_checks, reference.full_checks)
            << nthreads << " threads, obs " << obs_on;
        ASSERT_EQ(run.trajectory.size(), reference.trajectory.size())
            << nthreads << " threads, obs " << obs_on;
        for (std::size_t i = 0; i < run.trajectory.size(); ++i) {
          ASSERT_TRUE(run.trajectory[i] == reference.trajectory[i])
              << "trajectory step " << i << " at " << nthreads << " threads, obs "
              << obs_on;
        }
        ASSERT_EQ(run.ubits.size(), reference.ubits.size());
        for (std::size_t i = 0; i < run.ubits.size(); ++i) {
          ASSERT_EQ(run.ubits[i], reference.ubits[i])
              << "u[" << i << "] at " << nthreads << " threads, obs " << obs_on;
        }
        ASSERT_EQ(run.residuals.size(), reference.residuals.size());
        for (std::size_t i = 0; i < run.residuals.size(); ++i) {
          ASSERT_EQ(double_to_bits(run.residuals[i]),
                    double_to_bits(reference.residuals[i]))
              << "residual " << i << " at " << nthreads << " threads, obs "
              << obs_on;
        }
        expect_same_log(run.mat, reference.mat, "adaptive matrix log");
        expect_same_log(run.vec, reference.vec, "adaptive vector log");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Observability leg: the obs layer only watches the FaultLog commit points,
// so flipping the runtime switch must not move a single bit of any solver
// observable, at any thread count, faults included. This is the contract the
// whole metrics design rests on (obs/metrics.hpp rule 1).
// ---------------------------------------------------------------------------

TEST(ThreadDeterminism, ObsOnOffBitIdentical) {
  ThreadCountGuard guard;
  struct ObsGuard {
    ~ObsGuard() { obs::set_enabled(true); }
  } obs_guard;
  const auto a = sparse::laplacian_2d(20, 20);
  struct Run {
    std::vector<std::uint64_t> ubits;
    std::vector<double> residuals;
    unsigned iterations = 0;
    LogState mat, vec;
  };
  const auto run_cg = [&](bool faulty) {
    FaultLog mlog, vlog;
    auto pa = ProtectedCsr<std::uint32_t, ElemSecded, RowSecded64>::from_csr(
        a, &mlog, DuePolicy::record_only);
    if (faulty) flip_value_bit(pa, 64 * 500 + 11);
    ProtectedVector<VecSecded64> b(a.nrows(), &vlog, DuePolicy::record_only);
    ProtectedVector<VecSecded64> u(a.nrows(), &vlog, DuePolicy::record_only);
    fill(b, 1.0);
    fill(u, 0.0);
    solvers::SolveOptions opts;
    opts.tolerance = 1e-9;
    Run run;
    opts.residual_history = &run.residuals;
    const auto res = solvers::cg_solve(pa, b, u, opts);
    EXPECT_TRUE(res.converged);
    run.iterations = res.iterations;
    std::vector<double> got(a.nrows());
    u.extract({got.data(), got.size()});
    for (double v : got) run.ubits.push_back(double_to_bits(v));
    run.mat = LogState::of(mlog);
    run.vec = LogState::of(vlog);
    return run;
  };
  for (const bool faulty : {false, true}) {
    omp_set_num_threads(1);
    obs::set_enabled(true);
    const Run reference = run_cg(faulty);
    EXPECT_GT(reference.mat.checks + reference.vec.checks, 0u);
    for (int nthreads : kThreadCounts) {
      for (const bool obs_on : {true, false}) {
        omp_set_num_threads(nthreads);
        obs::set_enabled(obs_on);
        const Run run = run_cg(faulty);
        EXPECT_EQ(run.iterations, reference.iterations)
            << nthreads << " threads, obs " << obs_on;
        ASSERT_EQ(run.ubits.size(), reference.ubits.size());
        for (std::size_t i = 0; i < run.ubits.size(); ++i) {
          ASSERT_EQ(run.ubits[i], reference.ubits[i])
              << "u[" << i << "] at " << nthreads << " threads, obs " << obs_on;
        }
        ASSERT_EQ(run.residuals.size(), reference.residuals.size());
        for (std::size_t i = 0; i < run.residuals.size(); ++i) {
          ASSERT_EQ(double_to_bits(run.residuals[i]),
                    double_to_bits(reference.residuals[i]))
              << "residual " << i << " at " << nthreads << " threads, obs "
              << obs_on;
        }
        expect_same_log(run.mat, reference.mat, "matrix log (obs leg)");
        expect_same_log(run.vec, reference.vec, "vector log (obs leg)");
      }
    }
  }
}

#endif  // _OPENMP

}  // namespace
