/// \file service.hpp
/// \brief The benchmark's solve service: a closed-loop generator in front of
/// the program's BatchQueue + WorkerPool + cg_solve_batch over one shared
/// encode-once operator.
///
/// Load model: one generator thread acts for kBatch callers, so one batch is
/// in flight. It submits a wave of kBatch requests, each caller waits for its
/// own reply, and the next wave starts when the last reply of this one has
/// committed. With one batch in flight the two workers take turns, so the
/// timed work occupies one CPU at a time: on a shared virtual machine every
/// extra busy vCPU adds hypervisor steal that swings from run to run. It
/// also means no batch queues behind another and the ordered commit never
/// waits: queue and commit waits stay near zero by construction.
///
/// The gap between waves is the only moment no worker reads the shared
/// operator, so that is where an operator fault is injected; a flip made
/// mid-solve could land between two column passes of an SpMM and be read
/// unchecked, and then "corrected == injected" would not be an exact check.
///
/// Request j solves A u = (j+1) * (A * 1), so its answer is (j+1) * 1.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "abft/abft.hpp"
#include "common.hpp"
#include "common/rng.hpp"
#include "faults/injector.hpp"
#include "service/batch_queue.hpp"
#include "service/worker_pool.hpp"
#include "solvers/batch.hpp"
#include "spans.hpp"

namespace perfbench {

inline constexpr std::size_t kWorkers = 2;
/// k: requests per cg_solve_batch, and callers in flight (one wave).
inline constexpr std::size_t kBatch = 4;
/// OpenMP team size inside every worker.
inline constexpr int kWorkerOmpThreads = 1;
inline constexpr unsigned kMaxIterations = 5000;

struct ServeConfig {
  double tolerance = 1e-10;
  double answer_tolerance = 1e-6;  ///< max |u - (j+1)| / (j+1)
  double seconds = 1.0;            ///< serve whole waves until this has passed
  std::size_t min_waves = 1;
  bool inject = false;  ///< operator fault per wave + one flip per tenant rhs
  std::uint64_t seed = 1;
  /// Value slots of the operator a wave's fault may hit: real entries only,
  /// since slab padding is never read by a kernel. Required when inject.
  const std::vector<std::size_t>* fault_slots = nullptr;
};

struct ServeStats {
  std::vector<double> latency_ms;      ///< submit -> own commit, per request
  std::vector<double> queue_wait_ms;   ///< submit -> pop, per request
  std::vector<double> commit_wait_ms;  ///< solve end -> commit start, per batch
  std::vector<double> wave_s;          ///< first submit -> last commit, per wave
  std::vector<double> batch_sizes;
  double serve_s = 0.0;
  std::size_t completed = 0;
  double solve_ms_total = 0.0;         ///< summed cg_solve_batch wall time
  double column_iterations = 0.0;      ///< summed iterations over columns
  double iterations_total = 0.0;       ///< summed per-request iterations
  std::uint64_t injected = 0, corrected = 0, uncorrectable = 0;
  std::set<int> worker_omp_threads;    ///< omp_get_max_threads() seen in workers
};

/// Serve waves against \p pm until cfg.seconds have passed. \p between_waves,
/// when set, runs before every wave while no batch is in flight; its time is
/// left out of serve_s. Every failed request or fault-accounting miss is reported
/// through \p rep.
template <class PM, class VS>
ServeStats serve(PM& pm, const std::vector<double>& rhs1, const ServeConfig& cfg,
                 Report& rep, const std::function<void()>& between_waves = {}) {
  using namespace abft;
  struct Request {
    std::uint64_t id = 0;
    Clock::time_point submitted{};
    FaultLog log;
    std::uint64_t span = 0;
  };
  struct Outcome {
    std::unique_ptr<FaultLog> matrix_log;
    std::vector<solvers::SolveResult> results;
    std::vector<double> max_rel_err;
    std::vector<double> queue_wait_ms;
    Clock::time_point solved_at{};
    double solve_ms = 0.0;
  };

  const std::size_t n = pm.nrows();
  ServeStats st;
  // This wave's requests only, and result vectors reserved up front: a block
  // allocated mid-wave (a tenant's fault event, a grown vector) and kept for
  // the whole run sits between the operator's transient arrays, and glibc's
  // heaps then grow wave after wave, so peak RSS would track run length.
  std::optional<std::array<Request, kBatch>> requests;
  constexpr std::size_t kReserveWaves = 4096;
  for (auto* v : {&st.latency_ms, &st.queue_wait_ms}) v->reserve(kReserveWaves * kBatch);
  for (auto* v : {&st.commit_wait_ms, &st.wave_s, &st.batch_sizes}) v->reserve(kReserveWaves);
  service::BatchQueue<Request*> queue(4 * kBatch);
  solvers::SolveOptions opts;
  opts.tolerance = cfg.tolerance;
  opts.max_iterations = kMaxIterations;
  opts.final_matrix_verify = false;  // serialized in the ordered commit

  std::mutex mu;  // guards everything below, written in the ordered commit
  std::condition_variable wave_done;
  std::size_t committed = 0;
  std::uint64_t wave_matrix_corrected = 0;
  std::uint64_t wave_matrix_uncorrectable = 0;

  // Budget for filling a batch: the generator pushes a wave in microseconds,
  // so batches close full; the budget only bounds a stalled generator.
  const auto fill_budget = std::chrono::milliseconds(50);
  service::WorkerPool pool(
      kWorkers,
      [&](std::uint64_t* seq) {
        return queue.pop_batch_until(kBatch, fill_budget,
                                     [](const Request* r) { return r->submitted; }, seq);
      },
      [&](std::uint64_t /*seq*/, std::vector<Request*>& batch) {
        // The OpenMP team size is a per-thread setting: a worker std::thread
        // starts from OMP_NUM_THREADS, not from what main() chose.
        thread_local const int team = pin_omp_threads(kWorkerOmpThreads);
#if defined(_OPENMP)
        const int seen = omp_get_max_threads();
#else
        const int seen = 1;
#endif
        const auto popped = Clock::now();
        Outcome out;
        out.matrix_log = std::make_unique<FaultLog>();
        Span batch_span("service.batch", batch.front()->id + 1, batch.front()->span);
        service::MatrixLogView<PM> view(pm, out.matrix_log.get(), DuePolicy::record_only);
        ProtectedMultiVector<VS> b(n), u(n);
        {
          Span span("abft.batch_assign");
          std::vector<double> scaled(n);
          for (Request* req : batch) {
            out.queue_wait_ms.push_back(seconds_between(req->submitted, popped) * 1e3);
            auto& bj = b.add_column(&req->log, DuePolicy::record_only);
            u.add_column(&req->log, DuePolicy::record_only);
            const double s = static_cast<double>(req->id + 1);
            for (std::size_t i = 0; i < n; ++i) scaled[i] = s * rhs1[i];
            bj.assign({scaled.data(), n});
            if (cfg.inject) {
              // One seeded flip in this tenant's rhs storage (real entries
              // only); VecCrc32c corrects it into this tenant's own log.
              Xoshiro256 rng(cfg.seed * 0x9e3779b97f4a7c15ull + 2 * req->id + 1);
              auto raw = bj.raw();
              faults::flip_bit({reinterpret_cast<std::uint8_t*>(raw.data()), n * 8},
                               rng.below(n * 64));
            }
          }
        }
        {
          Span span("solvers.cg_solve_batch");
          const auto t0 = Clock::now();
          out.results = solvers::cg_solve_batch(view, b, u, opts);
          out.solved_at = Clock::now();
          out.solve_ms = seconds_between(t0, out.solved_at) * 1e3;
        }
        std::vector<double> got(n);
        for (std::size_t j = 0; j < batch.size(); ++j) {
          u.column(j).extract({got.data(), n});
          const double want = static_cast<double>(batch[j]->id + 1);
          double err = 0.0;
          for (const double g : got) err = std::max(err, std::fabs(g - want) / want);
          out.max_rel_err.push_back(err);
        }
        {
          std::lock_guard lock(mu);
          st.worker_omp_threads.insert(seen);
          st.worker_omp_threads.insert(team);
        }
        return out;
      },
      [&](std::uint64_t /*seq*/, std::vector<Request*>& batch, Outcome& out) {
        const auto commit_start = Clock::now();
        {
          Span span("service.ordered_commit", batch.front()->id + 1, batch.front()->span);
          service::MatrixLogView<PM> view(pm, out.matrix_log.get(), DuePolicy::record_only);
          Span verify("abft.verify_all");
          view.verify_all();
        }
        const auto done = Clock::now();
        std::lock_guard lock(mu);
        st.commit_wait_ms.push_back(seconds_between(out.solved_at, commit_start) * 1e3);
        st.batch_sizes.push_back(static_cast<double>(batch.size()));
        st.solve_ms_total += out.solve_ms;
        unsigned batch_iters = 0;
        for (const auto& r : out.results) batch_iters = std::max(batch_iters, r.iterations);
        st.column_iterations += static_cast<double>(batch_iters * batch.size());
        wave_matrix_corrected += out.matrix_log->corrected();
        wave_matrix_uncorrectable += out.matrix_log->uncorrectable();
        for (std::size_t j = 0; j < batch.size(); ++j) {
          Request* req = batch[j];
          const auto& res = out.results[j];
          st.latency_ms.push_back(seconds_between(req->submitted, done) * 1e3);
          st.queue_wait_ms.push_back(out.queue_wait_ms[j]);
          st.iterations_total += res.iterations;
          if (req->span != 0) SpanRecorder::global().end(req->span);
          const std::string who = "request " + std::to_string(req->id);
          if (!res.converged || res.breakdown) {
            rep.fail(who + ": did not converge (" + std::to_string(res.iterations) +
                     " iterations)");
          } else if (!(out.max_rel_err[j] <= cfg.answer_tolerance)) {
            rep.fail(who + ": max |u - (j+1)|/(j+1) = " + std::to_string(out.max_rel_err[j]));
          }
          const std::uint64_t want_corrected = cfg.inject ? 1 : 0;
          if (req->log.uncorrectable() != 0 || req->log.corrected() != want_corrected) {
            rep.fail(who + ": tenant log corrected " + std::to_string(req->log.corrected()) +
                     ", uncorrectable " + std::to_string(req->log.uncorrectable()) +
                     " (expected " + std::to_string(want_corrected) + ", 0)");
          }
          st.injected += want_corrected;
          st.corrected += req->log.corrected();
          st.uncorrectable += req->log.uncorrectable();
        }
        committed += batch.size();
        wave_done.notify_all();
      });

  const auto serve_t0 = Clock::now();
  std::uint64_t next_id = 0;
  double between_s = 0.0;
  for (std::size_t wave = 0;; ++wave) {
    if (wave >= cfg.min_waves && seconds_between(serve_t0, Clock::now()) >= cfg.seconds) break;
    if (between_waves) {
      const auto t0 = Clock::now();
      between_waves();
      between_s += seconds_between(t0, Clock::now());
    }
    bool injected_operator = false;
    if (cfg.inject) {
      // Quiescent point: every earlier request has committed.
      Xoshiro256 rng(cfg.seed * 0x2545f4914f6cdd1dull + wave);
      const auto& slots = *cfg.fault_slots;
      const std::size_t slot = slots[rng.below(slots.size())];
      auto vals = pm.raw_values();
      faults::flip_bit({reinterpret_cast<std::uint8_t*>(vals.data() + slot), 8}, rng.below(64));
      injected_operator = true;
    }
    requests.emplace();
    const auto wave_t0 = Clock::now();
    Span wave_span("service.wave");
    {
      std::lock_guard lock(mu);
      committed = 0;
    }
    for (std::size_t w = 0; w < kBatch; ++w) {
      Request& req = (*requests)[w];
      req.id = next_id++;
      // The request span opens here and closes in its batch's commit.
      auto& rec = SpanRecorder::global();
      req.span = rec.enabled() ? rec.begin("service.request", wave_span.id(), req.id + 1) : 0;
      req.submitted = Clock::now();
      queue.push(&req);
    }
    std::unique_lock lock(mu);
    if (!wave_done.wait_for(lock, std::chrono::seconds(120),
                            [&] { return committed == kBatch; })) {
      rep.fail("wave " + std::to_string(wave) + ": replies missing after 120 s");
      lock.unlock();
      break;
    }
    st.wave_s.push_back(seconds_between(wave_t0, Clock::now()));
    st.completed += kBatch;
    // Exact operator-fault accounting: one correction per injected fault.
    const std::uint64_t want = injected_operator ? 1 : 0;
    if (wave_matrix_corrected != want || wave_matrix_uncorrectable != 0) {
      rep.fail("wave " + std::to_string(wave) + ": operator corrected " +
               std::to_string(wave_matrix_corrected) + ", uncorrectable " +
               std::to_string(wave_matrix_uncorrectable) + " (expected " +
               std::to_string(want) + ", 0)");
    }
    st.injected += want;
    st.corrected += wave_matrix_corrected;
    st.uncorrectable += wave_matrix_uncorrectable;
    wave_matrix_corrected = 0;
    wave_matrix_uncorrectable = 0;
  }
  st.serve_s = seconds_between(serve_t0, Clock::now()) - between_s;
  queue.close();
  pool.join();
  return st;
}

}  // namespace perfbench
