/// \file worker_pool.hpp
/// \brief The solve fleet: N worker threads drain one BatchQueue and run
/// cg_solve_batch against a single shared encode-once protected operator.
///
/// The operator is zero-copy shared — protected containers are immutable
/// after encode (corrections rewrite a codeword to the bits it already had
/// on clean data, so concurrent readers are safe) — but its *fault
/// accounting* is not naturally shareable: two workers mid-pass would
/// interleave their matrix-region events in whatever order the scheduler
/// produced. The fleet keeps the shared matrix log deterministic with the
/// same discipline PR 6 used inside one SpMV:
///
///   1. MatrixLogView gives each in-flight batch a private matrix-region
///      FaultLog over the shared container, so workers never contend on the
///      shared log while solving.
///   2. BatchQueue stamps every popped batch with a sequence number under
///      the queue lock (pop order == request arrival order).
///   3. OrderedCommitter replays each batch's commit — final verify_all,
///      merging the private log into the shared one (FaultLog::append_from),
///      publishing results — strictly in sequence order.
///
/// Net effect: for a fixed request set, per-request solutions, per-tenant
/// logs and the shared matrix log are bit-identical at 1 and N workers.
/// Liveness: a worker holds at most one uncommitted sequence number, and
/// sequence numbers are handed out in pop order, so the worker owning the
/// lowest uncommitted number never waits on anyone — commits always drain.
#pragma once

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "abft/format_traits.hpp"
#include "common/fault_log.hpp"
#include "common/timer.hpp"
#include "obs/service_metrics.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace abft::service {

/// Replays commit sections in batch-sequence order: commit(s, fn) blocks
/// until every sequence below s has committed, runs fn, then releases s+1.
/// The sequence always advances, even if fn throws — otherwise one failed
/// batch would wedge every worker behind it.
class OrderedCommitter {
 public:
  template <class Fn>
  void commit(std::uint64_t seq, Fn&& fn) {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return next_ == seq; });
    struct Advance {
      OrderedCommitter* c;
      ~Advance() {
        ++c->next_;
        c->cv_.notify_all();
      }
    } advance{this};
    fn();
  }

  /// Sequence number the committer is waiting for (test hook).
  [[nodiscard]] std::uint64_t next() const {
    std::lock_guard lock(mu_);
    return next_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t next_ = 0;
};

/// Zero-copy view of a shared protected matrix that reroutes fault
/// accounting: kernels running through the view read the shared container's
/// storage but commit matrix-region events (and the final verify_all sweep)
/// to the view's own log under the view's own policy. One view per in-flight
/// batch is what keeps N workers off the shared matrix log mid-solve.
///
/// The view satisfies the whole matrix surface the generic kernels touch —
/// nrows/ncols/fault_log/due_policy plus implicit conversion to the
/// underlying container for the row cursors and pass state — so
/// spmv/spmm/cg_solve_batch run over it unchanged.
template <ProtectedMatrixType PM>
class MatrixLogView {
 public:
  MatrixLogView(PM& base, FaultLog* log, DuePolicy policy) noexcept
      : base_(&base), log_(log), policy_(policy) {}

  [[nodiscard]] std::size_t nrows() const noexcept { return base_->nrows(); }
  [[nodiscard]] std::size_t ncols() const noexcept { return base_->ncols(); }
  [[nodiscard]] FaultLog* fault_log() const noexcept { return log_; }
  [[nodiscard]] DuePolicy due_policy() const noexcept { return policy_; }
  [[nodiscard]] PM& base() const noexcept { return *base_; }

  /// Row cursors and pass_state constructors take the container itself.
  operator PM&() const noexcept { return *base_; }  // NOLINT(google-explicit-constructor)

  /// Full-matrix sweep accounted to this view's log. Callers running views
  /// of one container concurrently must serialize this (the fleet does it
  /// inside the ordered commit): SELL's bijectivity check stamps an epoch
  /// scratch, and concurrent in-place corrections would race.
  std::size_t verify_all() { return base_->verify_all(log_, policy_); }

 private:
  PM* base_;
  FaultLog* log_;
  DuePolicy policy_;
};

/// N workers draining one queue: pop -> solve (concurrent) -> commit (in
/// batch-sequence order). The callables define the service:
///
///   pop(std::uint64_t* seq)      -> batch container; empty == shut down.
///                                   Must stamp *seq for non-empty batches
///                                   (BatchQueue::pop_batch does).
///   solve(seq, batch&)           -> per-batch result; runs concurrently
///                                   across workers.
///   commit(seq, batch&, result&) -> publishes into shared state; the pool
///                                   runs it under the OrderedCommitter, so
///                                   commits of batch s happen-after those
///                                   of every batch below s.
///
/// A worker that throws (from solve or commit) stops popping, the sequence
/// still advances so the rest of the fleet drains, and join() rethrows the
/// first captured exception.
template <class Pop, class Solve, class Commit>
class WorkerPool {
 public:
  WorkerPool(std::size_t nworkers, Pop pop, Solve solve, Commit commit)
      : pop_(std::move(pop)),
        solve_(std::move(solve)),
        commit_(std::move(commit)) {
#ifdef _OPENMP
    omp_threads_ = omp_get_max_threads();
#endif
    const std::size_t n = nworkers == 0 ? 1 : nworkers;
    obs::pool_size(static_cast<std::int64_t>(n));
    workers_.reserve(n);
    for (std::size_t w = 0; w < n; ++w) {
      workers_.emplace_back([this, w] { run(w); });
    }
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool() {
    for (auto& t : workers_) {
      if (t.joinable()) t.join();
    }
  }

  /// Wait for every worker to drain and exit; rethrows the first worker
  /// exception, if any. Close the queue first or this blocks forever.
  void join() {
    for (auto& t : workers_) {
      if (t.joinable()) t.join();
    }
    std::lock_guard lock(error_mu_);
    if (first_error_) {
      auto e = std::exchange(first_error_, nullptr);
      std::rethrow_exception(e);
    }
  }

 private:
  void run(std::size_t worker) {
#ifdef _OPENMP
    // The OpenMP team size is a per-thread setting and a fresh std::thread
    // starts from OMP_NUM_THREADS, not from what its creator chose: hand the
    // creator's setting on, so every solve runs the team it was asked for.
    omp_set_num_threads(omp_threads_);
#endif
    // Utilization telemetry is per-worker (labeled series) and strictly
    // observational: the pop/solve/commit sequence is identical with obs
    // compiled out, so batch composition and commit order cannot drift.
    obs::WorkerObs wobs(worker);
    for (;;) {
      std::uint64_t seq = 0;
      const auto pop_start = std::chrono::steady_clock::now();
      auto batch = pop_(&seq);
      const auto popped = std::chrono::steady_clock::now();
      if (batch.empty()) {
        wobs.record_wait(elapsed_ns(pop_start, popped));
        return;
      }
      bool solved = false;
      try {
        auto result = solve_(seq, batch);
        solved = true;
        committer_.commit(seq, [&] { commit_(seq, batch, result); });
        wobs.record_batch(elapsed_ns(popped, std::chrono::steady_clock::now()),
                          elapsed_ns(pop_start, popped));
      } catch (...) {
        // The sequence must advance regardless, or every later batch wedges
        // behind this one. (If commit itself threw, OrderedCommitter already
        // advanced it.)
        if (!solved) committer_.commit(seq, [] {});
        std::lock_guard lock(error_mu_);
        if (!first_error_) first_error_ = std::current_exception();
        return;
      }
    }
  }

  Pop pop_;
  Solve solve_;
  Commit commit_;
  OrderedCommitter committer_;
  std::mutex error_mu_;
  std::exception_ptr first_error_;
#ifdef _OPENMP
  int omp_threads_ = 1;  ///< the creator's OpenMP team size
#endif
  std::vector<std::thread> workers_;
};

}  // namespace abft::service

namespace abft {

/// A view is kernel-compatible with its underlying container: same cursor,
/// same regions — the cursors accept the view via its conversion to PM&.
template <class PM>
struct MatrixTraits<service::MatrixLogView<PM>> : MatrixTraits<PM> {};

}  // namespace abft
