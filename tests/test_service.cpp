// The solve service layer: percentile contract, deadline-aware batch pops,
// batch sequence numbers, the ordered-commit discipline, and — the core
// promise of the worker fleet — bit-identical results, per-tenant logs and
// shared matrix log at 1, 2 and 4 workers, clean and under injected faults.
//
// Everything here runs on raw std::threads (no OpenMP pragmas of its own;
// one case reads and sets the team size the pool hands its workers), so the
// whole binary is TSan-compatible: the CI thread-sanitizer job runs
// it alongside the ThreadStress suites of test_thread_determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "abft/abft.hpp"
#include "common/fault_log.hpp"
#include "obs/metrics.hpp"
#include "service/batch_queue.hpp"
#include "service/worker_pool.hpp"
#include "solvers/solvers.hpp"
#include "sparse/generators.hpp"
#include "sparse/transform.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace {

using namespace abft;
using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// percentile(): linear interpolation between order statistics.
// ---------------------------------------------------------------------------

TEST(Percentile, EmptySampleIsZero) {
  EXPECT_EQ(service::percentile({}, 50.0), 0.0);
}

TEST(Percentile, SingleSampleIsThatSampleAtEveryQuantile) {
  for (const double q : {0.0, 25.0, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(service::percentile({7.5}, q), 7.5) << "q=" << q;
  }
}

TEST(Percentile, ExtremesAreMinAndMax) {
  const std::vector<double> sample{9.0, 1.0, 5.0, 3.0};
  EXPECT_EQ(service::percentile(sample, 0.0), 1.0);
  EXPECT_EQ(service::percentile(sample, 100.0), 9.0);
}

TEST(Percentile, TwoSamplesInterpolateLinearly) {
  // The documented contract: interpolation, not nearest-rank.
  EXPECT_DOUBLE_EQ(service::percentile({1.0, 2.0}, 50.0), 1.5);
  EXPECT_DOUBLE_EQ(service::percentile({1.0, 2.0}, 25.0), 1.25);
  EXPECT_DOUBLE_EQ(service::percentile({1.0, 2.0}, 75.0), 1.75);
}

TEST(Percentile, OutOfRangeQuantilesClampToExtremes) {
  const std::vector<double> sample{2.0, 4.0, 8.0};
  EXPECT_EQ(service::percentile(sample, -10.0), 2.0);
  EXPECT_EQ(service::percentile(sample, 250.0), 8.0);
}

// ---------------------------------------------------------------------------
// pop_batch sequence numbers and pop_batch_until (deadline-aware batching).
// ---------------------------------------------------------------------------

TEST(BatchQueue, SequenceNumbersCountPopsInOrder) {
  service::BatchQueue<int> queue(16);
  for (int i = 0; i < 7; ++i) ASSERT_TRUE(queue.push(i));
  std::uint64_t seq = 99;
  auto b0 = queue.pop_batch(3, &seq);
  EXPECT_EQ(seq, 0u);
  EXPECT_EQ(b0, (std::vector<int>{0, 1, 2}));
  auto b1 = queue.pop_batch(3, &seq);
  EXPECT_EQ(seq, 1u);
  EXPECT_EQ(b1, (std::vector<int>{3, 4, 5}));
  // Deadline pops share the same counter.
  auto b2 = queue.pop_batch_until(
      3, 0ms, [](int) { return std::chrono::steady_clock::now(); }, &seq);
  EXPECT_EQ(seq, 2u);
  EXPECT_EQ(b2, (std::vector<int>{6}));
  // An empty (closed) pop leaves seq_out untouched.
  queue.close();
  seq = 1234;
  EXPECT_TRUE(queue.pop_batch(3, &seq).empty());
  EXPECT_EQ(seq, 1234u);
}

TEST(BatchQueueDeadline, FullBacklogPopsImmediately) {
  service::BatchQueue<int> queue(16);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(queue.push(i));
  // A generous budget must not delay a batch that is already full.
  const auto t0 = std::chrono::steady_clock::now();
  const auto batch = queue.pop_batch_until(
      4, 10s, [](int) { return std::chrono::steady_clock::now(); });
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 5s);
}

TEST(BatchQueueDeadline, ExpiredBudgetClosesThePartialBatchEarly) {
  service::BatchQueue<int> queue(16);
  ASSERT_TRUE(queue.push(1));
  ASSERT_TRUE(queue.push(2));
  // The oldest request "arrived" an hour ago: its budget is blown, so the
  // pop must return the partial batch instead of waiting to fill 4.
  const auto long_ago = std::chrono::steady_clock::now() - 1h;
  const auto batch =
      queue.pop_batch_until(4, 1ms, [&](int) { return long_ago; });
  EXPECT_EQ(batch.size(), 2u);
}

TEST(BatchQueueDeadline, WaitsForTheBatchToFillWithinBudget) {
  service::BatchQueue<int> queue(16);
  ASSERT_TRUE(queue.push(1));
  std::thread producer([&] {
    std::this_thread::sleep_for(20ms);
    ASSERT_TRUE(queue.push(2));
    ASSERT_TRUE(queue.push(3));
  });
  // Budget far beyond the producer delay: the pop should pick up the late
  // arrivals instead of returning the lone first request.
  const auto batch = queue.pop_batch_until(
      3, 60s, [](int) { return std::chrono::steady_clock::now(); });
  producer.join();
  EXPECT_EQ(batch.size(), 3u);
}

TEST(BatchQueueDeadline, CloseDuringTheWaitDrainsWhatIsQueued) {
  service::BatchQueue<int> queue(16);
  ASSERT_TRUE(queue.push(42));
  std::thread closer([&] {
    std::this_thread::sleep_for(20ms);
    queue.close();
  });
  const auto batch = queue.pop_batch_until(
      4, 60s, [](int) { return std::chrono::steady_clock::now(); });
  closer.join();
  EXPECT_EQ(batch, (std::vector<int>{42}));
  EXPECT_TRUE(queue.pop_batch_until(4, 60s, [](int) {
                     return std::chrono::steady_clock::now();
                   }).empty());
}

// ---------------------------------------------------------------------------
// Raw-std::thread stress (the TSan job's quarry).
// ---------------------------------------------------------------------------

constexpr int kStressThreads = 8;

TEST(ThreadStress, CloseUnblocksPushersOnAFullQueue) {
  for (int rep = 0; rep < 20; ++rep) {
    service::BatchQueue<int> queue(2);
    ASSERT_TRUE(queue.push(0));
    ASSERT_TRUE(queue.push(1));
    std::atomic<int> rejected{0};
    std::vector<std::thread> pushers;
    for (int t = 0; t < kStressThreads; ++t) {
      pushers.emplace_back([&] {
        // The queue is full: this blocks until close(), then must return
        // false — not deadlock, not silently "succeed".
        if (!queue.push(99)) rejected.fetch_add(1, std::memory_order_relaxed);
      });
    }
    std::this_thread::sleep_for(1ms);
    queue.close();
    for (auto& t : pushers) t.join();
    EXPECT_EQ(rejected.load(), kStressThreads) << "rep " << rep;
    // The two pre-close items are still there for draining.
    EXPECT_EQ(queue.pop_batch(8).size(), 2u);
  }
}

TEST(ThreadStress, SequenceNumbersAreUniqueAndFifoUnderConcurrentPops) {
  constexpr std::size_t kTotal = 4000;
  for (int rep = 0; rep < 5; ++rep) {
    service::BatchQueue<std::size_t> queue(kTotal);
    for (std::size_t i = 0; i < kTotal; ++i) ASSERT_TRUE(queue.push(i));
    queue.close();

    struct TaggedBatch {
      std::uint64_t seq;
      std::vector<std::size_t> items;
    };
    std::mutex mu;
    std::vector<TaggedBatch> batches;
    std::vector<std::thread> consumers;
    for (int c = 0; c < kStressThreads; ++c) {
      consumers.emplace_back([&] {
        while (true) {
          std::uint64_t seq = 0;
          auto batch = queue.pop_batch(7, &seq);
          if (batch.empty()) break;
          std::lock_guard lock(mu);
          batches.push_back({seq, std::move(batch)});
        }
      });
    }
    for (auto& t : consumers) t.join();

    // Sorting batches by sequence number must reconstruct the exact FIFO
    // stream: sequence numbers are dense, unique, and ordered like the
    // items they carry.
    std::sort(batches.begin(), batches.end(),
              [](const TaggedBatch& a, const TaggedBatch& b) {
                return a.seq < b.seq;
              });
    std::size_t expected = 0;
    for (std::size_t s = 0; s < batches.size(); ++s) {
      ASSERT_EQ(batches[s].seq, s) << "rep " << rep;
      for (const std::size_t item : batches[s].items) {
        ASSERT_EQ(item, expected) << "rep " << rep;
        ++expected;
      }
    }
    ASSERT_EQ(expected, kTotal) << "rep " << rep;
  }
}

TEST(ThreadStress, OrderedCommitterReplaysCommitsInSequenceOrder) {
  constexpr std::uint64_t kSeqs = 96;
  for (int rep = 0; rep < 20; ++rep) {
    service::OrderedCommitter committer;
    std::vector<std::uint64_t> order;  // guarded by the committer itself
    std::vector<std::thread> workers;
    for (int t = 0; t < kStressThreads; ++t) {
      workers.emplace_back([&, t] {
        // Thread t owns seqs t, t+8, t+16, ... and commits them ascending —
        // the same at-most-one-uncommitted-seq-per-thread shape WorkerPool
        // guarantees.
        for (std::uint64_t s = static_cast<std::uint64_t>(t); s < kSeqs;
             s += kStressThreads) {
          committer.commit(s, [&] { order.push_back(s); });
        }
      });
    }
    for (auto& t : workers) t.join();
    ASSERT_EQ(order.size(), kSeqs) << "rep " << rep;
    for (std::uint64_t s = 0; s < kSeqs; ++s) {
      ASSERT_EQ(order[s], s) << "rep " << rep;
    }
    EXPECT_EQ(committer.next(), kSeqs);
  }
}

TEST(ThreadStress, WorkerPoolDeliversEveryBatchOnceAndCommitsInOrder) {
  constexpr std::size_t kTotal = 1000;
  for (int rep = 0; rep < 10; ++rep) {
    service::BatchQueue<std::size_t> queue(kTotal);
    for (std::size_t i = 0; i < kTotal; ++i) ASSERT_TRUE(queue.push(i));
    queue.close();

    std::vector<std::uint64_t> commit_order;
    std::vector<int> seen(kTotal, 0);
    service::WorkerPool pool(
        kStressThreads,
        [&](std::uint64_t* seq) { return queue.pop_batch(3, seq); },
        [](std::uint64_t, std::vector<std::size_t>& batch) {
          return batch.size();  // stand-in for a solve
        },
        [&](std::uint64_t seq, std::vector<std::size_t>& batch,
            std::size_t& solved) {
          // Runs under the OrderedCommitter: no extra locking needed.
          EXPECT_EQ(solved, batch.size());
          commit_order.push_back(seq);
          for (const std::size_t item : batch) ++seen[item];
        });
    pool.join();

    ASSERT_EQ(commit_order.size(), (kTotal + 2) / 3) << "rep " << rep;
    for (std::size_t s = 0; s < commit_order.size(); ++s) {
      ASSERT_EQ(commit_order[s], s) << "rep " << rep;
    }
    for (std::size_t i = 0; i < kTotal; ++i) {
      ASSERT_EQ(seen[i], 1) << "item " << i << " rep " << rep;
    }
  }
}

TEST(WorkerPool, JoinRethrowsTheFirstWorkerException) {
  service::BatchQueue<int> queue(16);
  for (int i = 0; i < 12; ++i) ASSERT_TRUE(queue.push(i));
  queue.close();
  std::atomic<std::size_t> committed{0};
  service::WorkerPool pool(
      2, [&](std::uint64_t* seq) { return queue.pop_batch(1, seq); },
      [](std::uint64_t seq, std::vector<int>&) {
        if (seq == 3) throw std::runtime_error("solver died");
        return 0;
      },
      [&](std::uint64_t, std::vector<int>&, int&) {
        committed.fetch_add(1, std::memory_order_relaxed);
      });
  EXPECT_THROW(pool.join(), std::runtime_error);
  // The failed batch's sequence number still advanced, so the surviving
  // worker drained everything behind it instead of deadlocking.
  EXPECT_GE(committed.load(), 12u - 2u);
}

TEST(WorkerPool, SolvesRunTheCreatorsOpenMpTeamSize) {
#ifdef _OPENMP
  // Workers are fresh std::threads, which start from OMP_NUM_THREADS rather
  // than from the creator's omp_set_num_threads: the pool must carry the
  // creator's team size over, or `--threads T` never reaches the fleet.
  const int saved = omp_get_max_threads();
  for (const int team : {1, 3}) {
    omp_set_num_threads(team);
    service::BatchQueue<int> queue(16);
    for (int i = 0; i < 8; ++i) ASSERT_TRUE(queue.push(i));
    queue.close();
    std::vector<int> seen;
    service::WorkerPool pool(
        2, [&](std::uint64_t* seq) { return queue.pop_batch(1, seq); },
        [](std::uint64_t, std::vector<int>&) { return omp_get_max_threads(); },
        [&](std::uint64_t, std::vector<int>&, int& team_seen) {
          seen.push_back(team_seen);
        });
    pool.join();
    ASSERT_EQ(seen.size(), 8u);
    for (const int t : seen) EXPECT_EQ(t, team) << "creator set " << team;
  }
  omp_set_num_threads(saved);
#else
  GTEST_SKIP() << "built without OpenMP";
#endif
}

// ---------------------------------------------------------------------------
// MatrixLogView: rerouted accounting over a shared container.
// ---------------------------------------------------------------------------

using Pm32 = ProtectedCsr<std::uint32_t, ElemCrc32c, RowCrc32c>;

TEST(MatrixLogView, RoutesKernelAndVerifyEventsToTheViewLog) {
  const auto plain = sparse::pad_rows_to_min_nnz(sparse::laplacian_2d(8, 8),
                                                 ElemCrc32c::kMinRowNnz);
  FaultLog container_log, view_log;
  auto pm = Pm32::from_plain(plain, &container_log, DuePolicy::record_only);
  service::MatrixLogView<Pm32> view(pm, &view_log, DuePolicy::record_only);
  EXPECT_EQ(view.nrows(), pm.nrows());
  EXPECT_EQ(view.ncols(), pm.ncols());

  ProtectedVector<VecNone> x(plain.ncols()), y(plain.nrows());
  std::vector<double> ones(plain.ncols(), 1.0);
  x.assign({ones.data(), ones.size()});
  spmv(view, x, y, CheckMode::full);
  (void)view.verify_all();

  EXPECT_GT(view_log.checks(), 0u);
  EXPECT_EQ(container_log.checks(), 0u)
      << "kernels through the view must never touch the container's own log";
}

// ---------------------------------------------------------------------------
// Fleet determinism: the tentpole contract. For a fixed request set, the
// per-request solution bits, per-tenant logs, and the shared matrix log are
// identical at 1, 2 and 4 workers — clean, with a tenant-vector fault, and
// with an uncorrectable matrix fault.
// ---------------------------------------------------------------------------

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

enum class FleetFault {
  none,          ///< clean run
  tenant_vector, ///< one bit in request 3's b column (VecCrc32c corrects it)
  matrix_due,    ///< one matrix value bit under detect-only SED (stays dirty)
};

/// Everything observable from one fleet run.
struct FleetRun {
  std::vector<std::vector<std::uint64_t>> ubits;  ///< per request, solution bits
  std::vector<LogState> tenant_logs;              ///< per request
  std::vector<unsigned> iterations;               ///< per request
  std::vector<bool> converged, breakdown;         ///< per request
  LogState matrix_log;                            ///< the shared, ordered log
  /// Per batch (by sequence number), the adaptive controller's trajectory
  /// and check count — empty unless the adaptive leg is on.
  std::vector<std::vector<AdaptiveCheckPolicy::IntervalChange>> trajectories;
  std::vector<std::uint64_t> full_checks;
};

struct FleetRequest {
  std::size_t id = 0;
  FaultLog log;
};

/// Run a fixed request set through the fleet at \p nworkers. All requests
/// are pre-enqueued and the queue closed before the pool starts, so batch
/// composition is pinned to [s*k, (s+1)*k) — the determinism contract is
/// about *worker scheduling*, not about racing producers into the queue.
template <class PM>
FleetRun run_fleet(std::size_t nworkers, FleetFault fault, bool adaptive = false) {
  constexpr std::size_t kTotal = 14;
  constexpr std::size_t kBatch = 4;
  constexpr std::size_t kBatches = (kTotal + kBatch - 1) / kBatch;
  constexpr std::size_t kFaultTenant = 3;
  using ES = typename PM::elem_scheme;

  const auto plain = sparse::pad_rows_to_min_nnz(
      sparse::laplacian_2d(12, 12), std::max<std::size_t>(ES::kMinRowNnz, 1));
  const std::size_t n = plain.nrows();
  FaultLog shared_mlog;
  auto pm = PM::from_plain(plain, nullptr, DuePolicy::record_only);
  if (fault == FleetFault::matrix_due) {
    // Flip a low mantissa bit of one stored value: detect-only schemes
    // (SED) report it as uncorrectable on every pass and never repair it,
    // which is exactly what makes the fault leg deterministic.
    auto vals = pm.raw_values();
    reinterpret_cast<std::uint64_t&>(vals[vals.size() / 2]) ^= 1ull << 3;
  }

  std::deque<FleetRequest> requests(kTotal);
  service::BatchQueue<FleetRequest*> queue(kTotal);
  for (std::size_t i = 0; i < kTotal; ++i) {
    requests[i].id = i;
    EXPECT_TRUE(queue.push(&requests[i])) << "pre-enqueue";
  }
  queue.close();

  solvers::SolveOptions opts;
  opts.tolerance = 0.0;  // fixed work: every column runs max_iterations
  opts.max_iterations = 5;
  opts.final_matrix_verify = false;  // runs in the ordered commit instead

  FleetRun run;
  run.ubits.resize(kTotal);
  run.iterations.resize(kTotal);
  run.converged.resize(kTotal);
  run.breakdown.resize(kTotal);
  run.trajectories.resize(kBatches);
  run.full_checks.resize(kBatches, 0);

  struct Outcome {
    std::unique_ptr<FaultLog> mlog;
    std::vector<solvers::SolveResult> results;
    std::vector<std::vector<std::uint64_t>> ubits;
    std::vector<AdaptiveCheckPolicy::IntervalChange> trajectory;
    std::uint64_t full_checks = 0;
  };
  service::WorkerPool pool(
      nworkers,
      [&](std::uint64_t* seq) { return queue.pop_batch(kBatch, seq); },
      [&](std::uint64_t, std::vector<FleetRequest*>& batch) {
        Outcome out;
        out.mlog = std::make_unique<FaultLog>();
        service::MatrixLogView<PM> view(pm, out.mlog.get(),
                                        DuePolicy::record_only);
        ProtectedMultiVector<VecCrc32c> b(n), u(n);
        std::vector<double> rhs(n);
        for (FleetRequest* req : batch) {
          auto& bj = b.add_column(&req->log, DuePolicy::record_only);
          u.add_column(&req->log, DuePolicy::record_only);
          for (std::size_t i = 0; i < n; ++i) {
            rhs[i] = static_cast<double>((req->id + 1) * (i % 7 + 1));
          }
          bj.assign({rhs.data(), rhs.size()});
          if (fault == FleetFault::tenant_vector && req->id == kFaultTenant) {
            // One bit in this tenant's b storage: VecCrc32c detects and
            // corrects it on first decode, logged to this tenant alone.
            reinterpret_cast<std::uint64_t&>(bj.raw()[1]) ^= 1ull << 44;
          }
        }
        // Each concurrent batch solve gets its own fresh controller: the
        // policy carries per-solve state, so sharing one instance across
        // workers would race (and break the once-per-iteration contract).
        AdaptiveCheckPolicy controller;
        auto batch_opts = opts;
        if (adaptive) batch_opts.adaptive_policy = &controller;
        out.results = solvers::cg_solve_batch(view, b, u, batch_opts);
        if (adaptive) {
          out.trajectory = controller.trajectory();
          out.full_checks = controller.full_checks();
        }
        out.ubits.resize(batch.size());
        std::vector<double> got(n, 0.0);
        for (std::size_t j = 0; j < batch.size(); ++j) {
          u.column(j).extract({got.data(), got.size()});
          out.ubits[j].resize(n);
          for (std::size_t i = 0; i < n; ++i) {
            out.ubits[j][i] = std::bit_cast<std::uint64_t>(got[i]);
          }
        }
        return out;
      },
      [&](std::uint64_t seq, std::vector<FleetRequest*>& batch, Outcome& out) {
        service::MatrixLogView<PM> view(pm, out.mlog.get(),
                                        DuePolicy::record_only);
        (void)view.verify_all();
        shared_mlog.append_from(*out.mlog);
        run.trajectories[seq] = std::move(out.trajectory);
        run.full_checks[seq] = out.full_checks;
        for (std::size_t j = 0; j < batch.size(); ++j) {
          const std::size_t id = batch[j]->id;
          run.ubits[id] = std::move(out.ubits[j]);
          run.iterations[id] = out.results[j].iterations;
          run.converged[id] = out.results[j].converged;
          run.breakdown[id] = out.results[j].breakdown;
        }
      });
  pool.join();

  run.tenant_logs.reserve(kTotal);
  for (const auto& req : requests) run.tenant_logs.push_back(LogState::of(req.log));
  run.matrix_log = LogState::of(shared_mlog);
  return run;
}

template <class PM>
void expect_fleet_determinism(FleetFault fault, const char* what,
                              bool adaptive = false) {
  const auto reference = run_fleet<PM>(1, fault, adaptive);
  // Sanity: the matrix log actually carries traffic (checks per batch pass).
  ASSERT_GT(reference.matrix_log.checks, 0u) << what;
  if (fault == FleetFault::matrix_due) {
    ASSERT_GT(reference.matrix_log.uncorrectable, 0u) << what;
  }
  if (fault == FleetFault::tenant_vector) {
    ASSERT_GT(reference.tenant_logs[3].corrected, 0u) << what;
    // Fault isolation: no other tenant saw a correction.
    for (std::size_t i = 0; i < reference.tenant_logs.size(); ++i) {
      if (i != 3) {
        EXPECT_EQ(reference.tenant_logs[i].corrected, 0u) << what;
      }
    }
  }
  if (adaptive) {
    // The controller must have decided something per batch, and a faulty
    // matrix must have pinned at least one batch's cadence to the floor.
    for (const auto& t : reference.trajectories) ASSERT_FALSE(t.empty()) << what;
  }
  for (const std::size_t w : {std::size_t{2}, std::size_t{4}}) {
    const auto got = run_fleet<PM>(w, fault, adaptive);
    for (std::size_t id = 0; id < reference.ubits.size(); ++id) {
      ASSERT_EQ(got.ubits[id], reference.ubits[id])
          << what << ": solution bits, request " << id << " at " << w
          << " workers";
      EXPECT_EQ(got.iterations[id], reference.iterations[id]) << what;
      EXPECT_EQ(got.converged[id], reference.converged[id]) << what;
      EXPECT_EQ(got.breakdown[id], reference.breakdown[id]) << what;
      expect_same_log(got.tenant_logs[id], reference.tenant_logs[id], what);
    }
    expect_same_log(got.matrix_log, reference.matrix_log, what);
    ASSERT_EQ(got.full_checks, reference.full_checks)
        << what << ": adaptive check counts at " << w << " workers";
    ASSERT_EQ(got.trajectories.size(), reference.trajectories.size()) << what;
    for (std::size_t s = 0; s < got.trajectories.size(); ++s) {
      ASSERT_TRUE(got.trajectories[s] == reference.trajectories[s])
          << what << ": batch " << s << " interval trajectory at " << w
          << " workers";
    }
  }
}

TEST(ThreadStress, FleetIsWorkerCountInvariantClean) {
  expect_fleet_determinism<Pm32>(FleetFault::none, "clean");
}

TEST(ThreadStress, FleetIsWorkerCountInvariantWithTenantVectorFault) {
  expect_fleet_determinism<Pm32>(FleetFault::tenant_vector, "tenant fault");
}

TEST(ThreadStress, FleetIsWorkerCountInvariantWithUncorrectableMatrixFault) {
  // Detect-only SED elements: the flipped bit is reported on every full
  // pass and never repaired, so the shared log's event stream is a pure
  // function of the request set — at any worker count.
  using PmSed = ProtectedCsr<std::uint32_t, ElemSed, RowSed>;
  expect_fleet_determinism<PmSed>(FleetFault::matrix_due, "matrix DUE");
}

TEST(ThreadStress, FleetIsWorkerCountInvariantWithAdaptiveController) {
  // Adaptive cadence in the fleet: one fresh controller per batch solve, fed
  // only by that batch's committed per-solve logs — so each batch's interval
  // trajectory, the check counts, and every solution bit are identical at 1,
  // 2 and 4 workers, clean and with an uncorrectable matrix fault pinning
  // the cadence.
  expect_fleet_determinism<Pm32>(FleetFault::none, "adaptive clean",
                                 /*adaptive=*/true);
  using PmSed = ProtectedCsr<std::uint32_t, ElemSed, RowSed>;
  expect_fleet_determinism<PmSed>(FleetFault::matrix_due, "adaptive matrix DUE",
                                  /*adaptive=*/true);
}

// ---------------------------------------------------------------------------
// Observability legs: the metrics layer rides the FaultLog commit points, so
// (a) flipping the runtime obs switch moves no solver observable at any
// worker count, and (b) the registry's counter deltas across a fleet run
// agree exactly with the FaultLog totals the run produced — two independent
// accounting paths over the same events.
// ---------------------------------------------------------------------------

void expect_same_fleet_run(const FleetRun& got, const FleetRun& want,
                           const char* what) {
  for (std::size_t id = 0; id < want.ubits.size(); ++id) {
    ASSERT_EQ(got.ubits[id], want.ubits[id]) << what << " request " << id;
    EXPECT_EQ(got.iterations[id], want.iterations[id]) << what;
    EXPECT_EQ(got.converged[id], want.converged[id]) << what;
    EXPECT_EQ(got.breakdown[id], want.breakdown[id]) << what;
    expect_same_log(got.tenant_logs[id], want.tenant_logs[id], what);
  }
  expect_same_log(got.matrix_log, want.matrix_log, what);
}

TEST(ThreadStress, FleetBitIdenticalWithObsOnAndOff) {
  struct ObsGuard {
    ~ObsGuard() { obs::set_enabled(true); }
  } guard;
  obs::set_enabled(true);
  const auto reference = run_fleet<Pm32>(1, FleetFault::tenant_vector);
  for (const std::size_t w : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (const bool on : {true, false}) {
      obs::set_enabled(on);
      const auto got = run_fleet<Pm32>(w, FleetFault::tenant_vector);
      expect_same_fleet_run(got, reference,
                            on ? "obs on fleet" : "obs off fleet");
    }
  }
}

#if ABFT_OBS_ENABLED
TEST(ThreadStress, FleetMetricsDeltaMatchesFaultLogTotals) {
  obs::set_enabled(true);
  for (const std::size_t w : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const auto before = obs::MetricsRegistry::global().snapshot();
    const auto run = run_fleet<Pm32>(w, FleetFault::tenant_vector);
    const auto after = obs::MetricsRegistry::global().snapshot();

    std::uint64_t checks = run.matrix_log.checks;
    std::uint64_t corrected = run.matrix_log.corrected;
    std::uint64_t uncorrectable = run.matrix_log.uncorrectable;
    for (const auto& t : run.tenant_logs) {
      checks += t.checks;
      corrected += t.corrected;
      uncorrectable += t.uncorrectable;
    }
    ASSERT_GT(checks, 0u);
    ASSERT_GT(corrected, 0u);  // the tenant-vector fault leg corrects one bit
    EXPECT_EQ(after.counter("abft_checks_total") -
                  before.counter("abft_checks_total"),
              checks)
        << w << " workers";
    EXPECT_EQ(after.counter("abft_corrected_total") -
                  before.counter("abft_corrected_total"),
              corrected)
        << w << " workers";
    EXPECT_EQ(after.counter("abft_uncorrectable_total") -
                  before.counter("abft_uncorrectable_total"),
              uncorrectable)
        << w << " workers";
    // The fleet's queue telemetry fired too: every batch pop is counted.
    EXPECT_GT(after.counter("abft_queue_batches_total"),
              before.counter("abft_queue_batches_total"))
        << w << " workers";
  }
}
#endif  // ABFT_OBS_ENABLED

// ---------------------------------------------------------------------------
// SolveResult::breakdown: CG breakdown is distinguishable from exhaustion.
// ---------------------------------------------------------------------------

TEST(Breakdown, ZeroOperatorBreaksDownInsteadOfExhausting) {
  // A u = b with A == 0: the first curvature p'Ap is exactly zero.
  auto zero = sparse::laplacian_2d(3, 3);
  for (auto& v : zero.values()) v = 0.0;
  auto pm = ProtectedCsr<std::uint32_t, ElemNone, RowNone>::from_plain(zero);
  ProtectedVector<VecNone> b(zero.nrows()), u(zero.nrows());
  std::vector<double> rhs(zero.nrows(), 1.0);
  b.assign({rhs.data(), rhs.size()});
  const auto result = solvers::cg_solve(pm, b, u);
  EXPECT_FALSE(result.converged);
  EXPECT_TRUE(result.breakdown);
}

TEST(Breakdown, ExhaustionLeavesBreakdownFalse) {
  const auto plain = sparse::pad_rows_to_min_nnz(sparse::laplacian_2d(8, 8),
                                                 ElemCrc32c::kMinRowNnz);
  auto pm = Pm32::from_plain(plain);
  ProtectedVector<VecNone> b(plain.nrows()), u(plain.nrows());
  std::vector<double> rhs(plain.nrows(), 1.0);
  b.assign({rhs.data(), rhs.size()});
  solvers::SolveOptions opts;
  opts.tolerance = 0.0;  // unreachable: runs out of iterations
  opts.max_iterations = 3;
  const auto result = solvers::cg_solve(pm, b, u, opts);
  EXPECT_FALSE(result.converged);
  EXPECT_FALSE(result.breakdown);
  EXPECT_EQ(result.iterations, 3u);
}

TEST(Breakdown, BatchFlagsOnlyThePoisonedColumn) {
  const auto plain = sparse::pad_rows_to_min_nnz(sparse::laplacian_2d(8, 8),
                                                 ElemCrc32c::kMinRowNnz);
  const std::size_t n = plain.nrows();
  auto pm = Pm32::from_plain(plain);
  ProtectedMultiVector<VecNone> b(n), u(n);
  for (std::size_t j = 0; j < 3; ++j) {
    auto& bj = b.add_column();
    u.add_column();
    std::vector<double> rhs(n, static_cast<double>(j + 1));
    if (j == 1) rhs[0] = std::numeric_limits<double>::quiet_NaN();
    bj.assign({rhs.data(), rhs.size()});
  }
  const auto results = solvers::cg_solve_batch(pm, b, u);
  EXPECT_TRUE(results[0].converged);
  EXPECT_FALSE(results[0].breakdown);
  EXPECT_TRUE(results[1].breakdown) << "NaN rhs must read as breakdown";
  EXPECT_FALSE(results[1].converged);
  EXPECT_TRUE(results[2].converged);
  EXPECT_FALSE(results[2].breakdown);
}

}  // namespace
