/// \file fig_service.cpp
/// \brief Batched multi-RHS solve bench: the amortization curve and the
/// concurrent solve-service tail latency.
///
/// Two sections, both machine-readable:
///
///   `amortization format=... scheme=... nrhs=K per_rhs_seconds=... overhead_pct=...`
///     Per-RHS protected-solve cost of a k-wide cg_solve_batch against the
///     unprotected batch at the same k. The SpMM verifies the matrix region
///     once per pass for the whole batch, so the per-RHS protection overhead
///     must fall toward zero as k grows — this row series is the measured
///     curve (CSR/crc32c and ELL/crc32c-tile, the schemes whose matrix-side
///     checks dominate).
///
///   `service nrhs=K threads=T scheme=... mode=... p50=... p99=... throughput=...`
///     End-to-end request latency of a solve service: client threads push
///     independent right-hand sides into a BatchQueue, one worker drains
///     batches of up to K and runs cg_solve_batch. p50/p99 are per-request
///     enqueue-to-completion latencies in milliseconds, throughput is
///     requests/second. mode=clean runs fault-free; mode=faults flips one
///     random matrix value bit before every batch (CRC32C corrects them all,
///     so the column is the *tail cost of correction under load*).
///
///   `fleet workers=W nrhs=K threads=T scheme=... mode=... batching=...
///          p50=... p99=... throughput=... breakdowns=N`
///     The same service scaled out to a service::WorkerPool: W workers drain
///     one queue against one shared encode-once operator, each batch's
///     matrix-region events go to a private per-batch log (MatrixLogView)
///     and merge into the shared matrix log in batch-sequence order.
///     batching=fixed pops greedily (pop_batch); batching=deadline (emitted
///     when --deadline-ms D > 0) waits to fill a batch only until the oldest
///     request's budget D is at risk (pop_batch_until), trading batch width
///     for tail latency. breakdowns counts columns the batched CG froze on a
///     non-finite/zero curvature (SolveResult::breakdown).
///
///   `metrics leg=... checks=N corrected=N uncorrectable=N batches=N
///            deadline_closed_early=N consistent=yes|no|n/a`
///     Observability cross-check emitted after every service/fleet leg: the
///     delta of the global metrics registry (obs/metrics.hpp) across the
///     leg. On fleet legs `consistent` compares the registry's check /
///     corrected / uncorrectable deltas against the leg's own FaultLog
///     totals (shared matrix log + every tenant log) — the two accounting
///     paths must agree exactly; n/a means obs is off or compiled out.
///
///   `obs_overhead nrhs=K on_seconds=... off_seconds=... overhead_pct=...`
///     Instrumentation-cost A/B on the clean CSR amortization config: the
///     same fixed-work batched solve timed with the runtime obs switch on
///     and off. The design budget is <2 %; a breach prints a WARNING line
///     (benchmarks stay exit-0 — smoke-sized runs are noise-dominated).
///
/// Latencies are wall-clock (std::chrono::steady_clock), not solver time:
/// queueing delay is the quantity of interest — larger K trades median
/// latency (requests wait for a batch) for throughput (one matrix stream
/// serves K requests).
///
/// --trace-out F writes one JSONL span record per fleet-leg request (schema:
/// obs/trace.hpp); --metrics-out F dumps the registry at exit (Prometheus
/// text, or JSON when F ends in .json).
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "abft/abft.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "faults/injector.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/batch_queue.hpp"
#include "service/worker_pool.hpp"
#include "solvers/solvers.hpp"
#include "sparse/generators.hpp"
#include "sparse/transform.hpp"

namespace {

using namespace abft;

/// Deterministic right-hand side for request \p id (requests are replayable
/// across schemes and batch sizes, so every config solves identical systems).
template <class VS>
std::vector<double> request_rhs(std::size_t n, std::size_t id) {
  Xoshiro256 rng(1000 + id);
  std::vector<double> b(n);
  for (auto& e : b) e = VS::mask(rng.uniform(-1.0, 1.0));
  return b;
}

/// Fixed-work batched solve: tolerance 0 never converges, so every column
/// runs exactly \p iters iterations and the per-RHS time is pure kernel cost.
template <class PM, class VS, class Plain>
double batch_solve_seconds(const Plain& plain, unsigned k, unsigned iters,
                           unsigned reps) {
  auto p = PM::from_plain(plain);
  solvers::SolveOptions opts;
  opts.tolerance = 0.0;
  opts.max_iterations = iters;
  TimingStats stats;
  for (unsigned r = 0; r <= reps; ++r) {  // rep 0 is the untimed warm-up
    ProtectedMultiVector<VS> b(plain.nrows()), u(plain.nrows());
    for (unsigned j = 0; j < k; ++j) {
      auto& bj = b.add_column();
      u.add_column();
      const auto raw = request_rhs<VS>(plain.nrows(), j);
      bj.assign({raw.data(), raw.size()});
    }
    Timer t;
    (void)solvers::cg_solve_batch(p, b, u, opts);
    if (r > 0) stats.add(t.seconds());
  }
  return stats.min();
}

void print_amortization_row(const char* format, const char* scheme, unsigned k,
                            double per_rhs, double base_per_rhs) {
  std::printf("amortization format=%s scheme=%s nrhs=%u per_rhs_seconds=%.6f "
              "overhead_pct=%+.1f\n",
              format, scheme, k, per_rhs,
              base_per_rhs > 0.0 ? (per_rhs / base_per_rhs - 1.0) * 100.0 : 0.0);
}

/// One format's amortization series: unprotected vs protected per-RHS time at
/// every --nrhs entry. The overhead baseline is the *same-k* unprotected
/// batch, so the row isolates the protection cost from the k-column locality
/// effects both variants share.
template <class PmNone, class PmProt, class Plain>
void run_amortization(const char* format, const char* scheme, const Plain& plain,
                      const bench::BenchOptions& o) {
  for (const unsigned k : o.nrhs_list) {
    const double base =
        batch_solve_seconds<PmNone, VecNone>(plain, k, o.iters, o.reps) / k;
    const double prot =
        batch_solve_seconds<PmProt, VecNone>(plain, k, o.iters, o.reps) / k;
    print_amortization_row(format, "none", k, base, base);
    print_amortization_row(format, scheme, k, prot, base);
  }
}

/// One solve request: its own right-hand side and its own fault log (the
/// service promise is per-tenant accounting even when solved in a batch).
struct Request {
  std::size_t id = 0;
  std::chrono::steady_clock::time_point enqueued;
  FaultLog log;
};

/// Sum of every FaultLog a leg touched (shared matrix log + tenant logs) —
/// the ground truth the `metrics` row's registry deltas are checked against.
struct FaultTotals {
  std::uint64_t checks = 0;
  std::uint64_t corrected = 0;
  std::uint64_t uncorrectable = 0;

  void add(const FaultLog& log) {
    checks += log.checks();
    corrected += log.corrected();
    uncorrectable += log.uncorrectable();
  }
};

[[nodiscard]] std::uint64_t counter_delta(const obs::Snapshot& before,
                                          const obs::Snapshot& after,
                                          const std::string& name) {
  return after.counter(name) - before.counter(name);
}

/// The post-leg `metrics` row: registry deltas across the leg, plus the
/// FaultLog cross-check when \p expect is non-null (fleet legs). The two
/// accounting paths — FaultLog's atomic totals and the sharded obs counters
/// fed from the same commit points — must agree exactly.
void print_metrics_row(const std::string& leg, const obs::Snapshot& before,
                       const obs::Snapshot& after, const FaultTotals* expect) {
  const std::uint64_t checks = counter_delta(before, after, "abft_checks_total");
  const std::uint64_t corrected =
      counter_delta(before, after, "abft_corrected_total");
  const std::uint64_t uncorrectable =
      counter_delta(before, after, "abft_uncorrectable_total");
  const char* consistent = "n/a";
  if (obs::enabled() && expect != nullptr) {
    consistent = (checks == expect->checks && corrected == expect->corrected &&
                  uncorrectable == expect->uncorrectable)
                     ? "yes"
                     : "no";
  }
  std::printf("metrics leg=%s checks=%llu corrected=%llu uncorrectable=%llu "
              "batches=%llu deadline_closed_early=%llu consistent=%s\n",
              leg.c_str(), static_cast<unsigned long long>(checks),
              static_cast<unsigned long long>(corrected),
              static_cast<unsigned long long>(uncorrectable),
              static_cast<unsigned long long>(
                  counter_delta(before, after, "abft_queue_batches_total")),
              static_cast<unsigned long long>(counter_delta(
                  before, after, "abft_queue_deadline_closed_early_total")),
              consistent);
  if (obs::enabled() && expect != nullptr && std::strcmp(consistent, "no") == 0) {
    std::printf("# WARNING: metrics/FaultLog divergence — expected %llu/%llu/%llu\n",
                static_cast<unsigned long long>(expect->checks),
                static_cast<unsigned long long>(expect->corrected),
                static_cast<unsigned long long>(expect->uncorrectable));
  }
}

/// Run the solve service once: \p producers client threads push \p total
/// requests through a BatchQueue, the calling thread drains batches of up to
/// \p k and solves them with cg_solve_batch. Returns per-request latencies
/// (milliseconds) and fills \p wall_seconds with the drain wall time.
template <class PM, class VS, class Plain>
std::vector<double> run_service(const Plain& plain, unsigned k, unsigned iters,
                                std::size_t total, bool inject_faults,
                                double* wall_seconds) {
  FaultLog mlog;
  auto pm = PM::from_plain(plain, &mlog, DuePolicy::record_only);
  solvers::SolveOptions opts;
  opts.tolerance = 0.0;
  opts.max_iterations = iters;

  std::deque<Request> requests(total);
  service::BatchQueue<Request*> queue(/*capacity=*/256);
  constexpr std::size_t kProducers = 2;
  std::vector<std::thread> producers;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < kProducers; ++c) {
    producers.emplace_back([&, c] {
      for (std::size_t i = c; i < total; i += kProducers) {
        requests[i].id = i;
        requests[i].enqueued = std::chrono::steady_clock::now();
        queue.push(&requests[i]);
      }
    });
  }

  Xoshiro256 fault_rng(4242);
  const std::size_t value_bits = pm.raw_values().size_bytes() * 8;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(total);
  std::size_t served = 0;
  while (served < total) {
    const auto batch = queue.pop_batch(k);
    if (batch.empty()) break;  // closed early — cannot happen here
    ProtectedMultiVector<VS> b(plain.nrows()), u(plain.nrows());
    for (Request* req : batch) {
      auto& bj = b.add_column(&req->log, DuePolicy::record_only);
      u.add_column(&req->log, DuePolicy::record_only);
      const auto raw = request_rhs<VS>(plain.nrows(), req->id);
      bj.assign({raw.data(), raw.size()});
    }
    if (inject_faults) {
      const std::size_t bit = static_cast<std::size_t>(
          fault_rng.uniform(0.0, static_cast<double>(value_bits)));
      auto vals = pm.raw_values();
      faults::flip_bit(
          {reinterpret_cast<std::uint8_t*>(vals.data()), vals.size_bytes()},
          std::min(bit, value_bits - 1));
    }
    (void)solvers::cg_solve_batch(pm, b, u, opts);
    const auto done = std::chrono::steady_clock::now();
    for (const Request* req : batch) {
      latencies_ms.push_back(
          std::chrono::duration<double, std::milli>(done - req->enqueued).count());
    }
    served += batch.size();
  }
  for (auto& t : producers) t.join();
  queue.close();
  *wall_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                start)
                      .count();
  if (inject_faults && mlog.uncorrectable() > 0) {
    std::printf("# WARNING: %llu uncorrectable matrix events under fault load\n",
                static_cast<unsigned long long>(mlog.uncorrectable()));
  }
  return latencies_ms;
}

template <class PM, class VS, class Plain>
void run_service_modes(const char* scheme, const Plain& plain, unsigned k,
                       unsigned threads, unsigned iters, std::size_t total) {
  for (const bool faults : {false, true}) {
    const auto before = obs::MetricsRegistry::global().snapshot();
    double wall = 0.0;
    auto lat = run_service<PM, VS>(plain, k, iters, total, faults, &wall);
    std::printf("service nrhs=%u threads=%u scheme=%s mode=%s p50=%.3f p99=%.3f "
                "throughput=%.2f\n",
                k, threads, scheme, faults ? "faults" : "clean",
                service::percentile(lat, 50.0), service::percentile(lat, 99.0),
                wall > 0.0 ? static_cast<double>(lat.size()) / wall : 0.0);
    char leg[96];
    std::snprintf(leg, sizeof leg, "service_nrhs%u_%s", k,
                  faults ? "faults" : "clean");
    print_metrics_row(leg, before, obs::MetricsRegistry::global().snapshot(),
                      nullptr);
  }
}

/// What a fleet worker hands from its concurrent solve to its ordered commit.
struct FleetOutcome {
  std::unique_ptr<FaultLog> matrix_log;  ///< this batch's matrix-region events
  std::vector<solvers::SolveResult> results;
  std::vector<std::uint64_t> queue_wait_ns;  ///< per request, enqueue -> pop
  std::uint64_t solve_ns = 0;
  std::chrono::steady_clock::time_point solved_at{};
  std::size_t breakdowns = 0;
};

/// Run the worker fleet once: 2 producers push \p total requests, \p nworkers
/// WorkerPool threads drain batches of up to \p k (greedy, or deadline-aware
/// when \p deadline_ms > 0) and solve against one shared operator. Returns
/// per-request latencies (milliseconds, enqueue to ordered commit) and fills
/// \p wall_seconds / \p breakdowns.
template <class PM, class VS, class Plain>
std::vector<double> run_fleet(const Plain& plain, unsigned k, unsigned nworkers,
                              unsigned iters, std::size_t total,
                              bool inject_faults, double deadline_ms,
                              double* wall_seconds, std::size_t* breakdowns,
                              FaultTotals* totals = nullptr,
                              obs::SolveTrace* trace = nullptr) {
  FaultLog shared_mlog;
  // The shared container carries no log of its own: every matrix-region
  // event flows through a per-batch MatrixLogView and lands in shared_mlog
  // via the ordered commit below.
  auto pm = PM::from_plain(plain, nullptr, DuePolicy::record_only);
  solvers::SolveOptions opts;
  opts.tolerance = 0.0;
  opts.max_iterations = iters;
  // The end-of-batch sweep runs inside the ordered commit, where it is
  // serialized — concurrent verify_all calls on one container would race.
  opts.final_matrix_verify = false;

  std::deque<Request> requests(total);
  service::BatchQueue<Request*> queue(/*capacity=*/256);
  constexpr std::size_t kProducers = 2;
  std::vector<std::thread> producers;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < kProducers; ++c) {
    producers.emplace_back([&, c] {
      for (std::size_t i = c; i < total; i += kProducers) {
        requests[i].id = i;
        requests[i].enqueued = std::chrono::steady_clock::now();
        if (!queue.push(&requests[i])) return;  // closed — cannot happen here
      }
    });
  }

  const std::size_t value_bits = pm.raw_values().size_bytes() * 8;
  const auto budget =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(deadline_ms));
  // Disjoint id-indexed slots: each request is solved by exactly one batch,
  // so workers write latencies without synchronization.
  std::vector<double> latency_ms(total, 0.0);
  std::size_t total_breakdowns = 0;

  service::WorkerPool pool(
      nworkers,
      [&](std::uint64_t* seq) {
        return deadline_ms > 0.0
                   ? queue.pop_batch_until(
                         k, budget,
                         [](const Request* r) { return r->enqueued; }, seq)
                   : queue.pop_batch(k, seq);
      },
      [&](std::uint64_t seq, std::vector<Request*>& batch) {
        const auto popped = std::chrono::steady_clock::now();
        FleetOutcome out;
        out.matrix_log = std::make_unique<FaultLog>();
        out.queue_wait_ns.reserve(batch.size());
        for (const Request* req : batch) {
          out.queue_wait_ns.push_back(elapsed_ns(req->enqueued, popped));
        }
        service::MatrixLogView<PM> view(pm, out.matrix_log.get(),
                                        DuePolicy::record_only);
        ProtectedMultiVector<VS> b(plain.nrows()), u(plain.nrows());
        for (Request* req : batch) {
          auto& bj = b.add_column(&req->log, DuePolicy::record_only);
          u.add_column(&req->log, DuePolicy::record_only);
          const auto raw = request_rhs<VS>(plain.nrows(), req->id);
          bj.assign({raw.data(), raw.size()});
        }
        if (inject_faults) {
          // Seeded by the batch sequence number: the fault pattern is a
          // function of the request stream, not of worker scheduling.
          Xoshiro256 fault_rng(4242 + seq);
          const std::size_t bit = static_cast<std::size_t>(
              fault_rng.uniform(0.0, static_cast<double>(value_bits)));
          auto vals = pm.raw_values();
          faults::flip_bit(
              {reinterpret_cast<std::uint8_t*>(vals.data()), vals.size_bytes()},
              std::min(bit, value_bits - 1));
        }
        {
          ScopedTimerNs solve_timer(&out.solve_ns);
          out.results = solvers::cg_solve_batch(view, b, u, opts);
        }
        out.solved_at = std::chrono::steady_clock::now();
        for (const auto& r : out.results) {
          if (r.breakdown) ++out.breakdowns;
        }
        return out;
      },
      [&](std::uint64_t seq, std::vector<Request*>& batch, FleetOutcome& out) {
        // Ordered commit: serialized end-of-batch sweep, then the in-order
        // merge into the shared matrix log.
        service::MatrixLogView<PM> view(pm, out.matrix_log.get(),
                                        DuePolicy::record_only);
        std::uint64_t verify_ns = 0;
        {
          ScopedTimerNs verify_timer(&verify_ns);
          view.verify_all();
        }
        shared_mlog.append_from(*out.matrix_log);
        total_breakdowns += out.breakdowns;
        const auto done = std::chrono::steady_clock::now();
        const std::uint64_t commit_ns = elapsed_ns(out.solved_at, done);
        for (std::size_t j = 0; j < batch.size(); ++j) {
          const Request* req = batch[j];
          latency_ms[req->id] =
              std::chrono::duration<double, std::milli>(done - req->enqueued)
                  .count();
          if (trace != nullptr) {
            obs::TraceRecord rec;
            rec.request_id = req->id;
            rec.batch_seq = seq;
            rec.solver = "cg-batch";
            rec.iterations = out.results[j].iterations;
            rec.converged = out.results[j].converged;
            rec.breakdown = out.results[j].breakdown;
            rec.residual_norm = out.results[j].residual_norm;
            rec.queue_wait_ns = out.queue_wait_ns[j];
            rec.solve_ns = out.solve_ns;
            rec.ordered_commit_ns = commit_ns;
            rec.verify_all_ns = verify_ns;
            rec.checks = req->log.checks();
            rec.corrected = req->log.corrected();
            rec.uncorrectable = req->log.uncorrectable();
            trace->emit(rec);
          }
        }
      });

  for (auto& t : producers) t.join();
  queue.close();
  pool.join();
  *wall_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                start)
                      .count();
  *breakdowns = total_breakdowns;
  if (totals != nullptr) {
    totals->add(shared_mlog);
    for (const Request& req : requests) totals->add(req.log);
  }
  if (inject_faults && shared_mlog.uncorrectable() > 0) {
    std::printf("# WARNING: %llu uncorrectable matrix events under fault load\n",
                static_cast<unsigned long long>(shared_mlog.uncorrectable()));
  }
  return latency_ms;
}

template <class PM, class VS, class Plain>
void run_fleet_modes(const char* scheme, const Plain& plain, unsigned k,
                     unsigned nworkers, unsigned threads, unsigned iters,
                     std::size_t total, double deadline_ms,
                     obs::SolveTrace* trace) {
  for (const bool faults : {false, true}) {
    for (const bool deadline : {false, true}) {
      if (deadline && deadline_ms <= 0.0) continue;
      const auto before = obs::MetricsRegistry::global().snapshot();
      double wall = 0.0;
      std::size_t breakdowns = 0;
      FaultTotals totals;
      auto lat = run_fleet<PM, VS>(plain, k, nworkers, iters, total, faults,
                                   deadline ? deadline_ms : 0.0, &wall,
                                   &breakdowns, &totals, trace);
      std::printf("fleet workers=%u nrhs=%u threads=%u scheme=%s mode=%s "
                  "batching=%s p50=%.3f p99=%.3f throughput=%.2f "
                  "breakdowns=%zu\n",
                  nworkers, k, threads, scheme, faults ? "faults" : "clean",
                  deadline ? "deadline" : "fixed",
                  service::percentile(lat, 50.0), service::percentile(lat, 99.0),
                  wall > 0.0 ? static_cast<double>(lat.size()) / wall : 0.0,
                  breakdowns);
      char leg[96];
      std::snprintf(leg, sizeof leg, "fleet_w%u_nrhs%u_%s_%s", nworkers, k,
                    faults ? "faults" : "clean",
                    deadline ? "deadline" : "fixed");
      print_metrics_row(leg, before, obs::MetricsRegistry::global().snapshot(),
                        &totals);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace abft;
  using namespace abft::bench;
  const auto opts = BenchOptions::parse(argc, argv);

  std::printf("# Batched multi-RHS solves: amortized matrix verification + solve "
              "service\n");
  std::printf("# operator: 5-point Laplacian %zux%zu, %u fixed CG iterations, min "
              "of %u runs\n",
              opts.nx, opts.ny, opts.iters, opts.reps);

  const auto csr = sparse::pad_rows_to_min_nnz(sparse::laplacian_2d(opts.nx, opts.ny),
                                               ElemCrc32c::kMinRowNnz);
  const auto ell = EllFormat::make_plain<std::uint32_t, ElemCrc32cTile>(csr);

  std::printf("\n## per-RHS cost vs batch size (matrix checks charged once per "
              "batch pass)\n");
  if (opts.format_selected("csr")) {
    run_amortization<ProtectedCsr<std::uint32_t, ElemNone, RowNone>,
                     ProtectedCsr<std::uint32_t, ElemCrc32c, RowCrc32c>>(
        "csr", "crc32c", csr, opts);
  }
  if (opts.format_selected("ell")) {
    run_amortization<
        EllFormat::protected_matrix<std::uint32_t, ElemNone,
                                    schemes::StructNone<std::uint32_t>>,
        EllFormat::protected_matrix<std::uint32_t, ElemCrc32cTile,
                                    schemes::StructCrc32c<std::uint32_t>>>(
        "ell", "crc32c-tile", ell, opts);
  }

  std::printf("\n## solve service: p50/p99 request latency (ms) and throughput "
              "(req/s)\n");
  const std::size_t total_requests = std::size_t{24} * opts.reps;
  for_each_thread_count(opts, [&](unsigned t) {
    for (const unsigned k : opts.nrhs_list) {
      run_service_modes<ProtectedCsr<std::uint32_t, ElemCrc32c, RowCrc32c>,
                        VecCrc32c>("crc32c", csr, k, t, opts.iters, total_requests);
    }
  });
  std::printf("# larger nrhs amortizes the per-batch matrix verification and\n"
              "# queueing: throughput rises with k while p50 grows (requests\n"
              "# wait to fill a batch) — the service operator picks k on that\n"
              "# trade-off; mode=faults shows correction cost stays off the\n"
              "# tail (CRC32C repairs in place during the verified pass).\n");

  std::printf("\n## solve fleet: N workers drain one queue against one shared "
              "operator\n");
  obs::SolveTrace trace;
  obs::SolveTrace* trace_ptr = opts.trace_out.empty() ? nullptr : &trace;
  for (const unsigned w : opts.workers_list) {
    for (const unsigned k : opts.nrhs_list) {
      run_fleet_modes<ProtectedCsr<std::uint32_t, ElemCrc32c, RowCrc32c>,
                      VecCrc32c>("crc32c", csr, k, w, opts.threads, opts.iters,
                                 total_requests, opts.deadline_ms, trace_ptr);
    }
  }
  std::printf("# fleet rows: matrix-region events commit to the shared log in\n"
              "# batch-sequence order (service::WorkerPool), so these runs are\n"
              "# bit-deterministic at any worker count; batching=deadline rows\n"
              "# (with --deadline-ms D) close batches early when the oldest\n"
              "# queued request's budget is at risk — p99 at or below the\n"
              "# batching=fixed row at the same k is the design target.\n");

  std::printf("\n## instrumentation overhead: the same clean CSR batched solve, "
              "obs on vs off\n");
  {
    using PmProt = ProtectedCsr<std::uint32_t, ElemCrc32c, RowCrc32c>;
    const unsigned k = opts.nrhs_list.back();
    obs::set_enabled(true);
    const double on_s = batch_solve_seconds<PmProt, VecNone>(csr, k, opts.iters,
                                                             opts.reps);
    obs::set_enabled(false);
    const double off_s = batch_solve_seconds<PmProt, VecNone>(csr, k, opts.iters,
                                                              opts.reps);
    obs::set_enabled(opts.obs);  // restore the --obs default
    const double pct = off_s > 0.0 ? (on_s / off_s - 1.0) * 100.0 : 0.0;
    std::printf("obs_overhead nrhs=%u on_seconds=%.6f off_seconds=%.6f "
                "overhead_pct=%+.2f\n",
                k, on_s, off_s, pct);
    if (pct > 2.0) {
      std::printf("# WARNING: instrumentation overhead %+.2f%% exceeds the 2%% "
                  "budget (smoke-sized runs are noise-dominated; confirm at "
                  "--nx 512 --ny 512 before acting)\n",
                  pct);
    }
  }

  if (!opts.metrics_out.empty()) {
    std::ofstream os(opts.metrics_out);
    const bool json =
        opts.metrics_out.size() >= 5 &&
        opts.metrics_out.compare(opts.metrics_out.size() - 5, 5, ".json") == 0;
    if (os) {
      os << (json ? obs::MetricsRegistry::global().json()
                  : obs::MetricsRegistry::global().prometheus_text());
      std::printf("# metrics written to %s (%s)\n", opts.metrics_out.c_str(),
                  json ? "json" : "prometheus text");
    } else {
      std::printf("# WARNING: cannot open %s\n", opts.metrics_out.c_str());
    }
  }
  if (trace_ptr != nullptr) {
    std::ofstream os(opts.trace_out);
    if (os) {
      trace.write_jsonl(os);
      std::printf("# %zu trace records written to %s\n", trace.size(),
                  opts.trace_out.c_str());
    } else {
      std::printf("# WARNING: cannot open %s\n", opts.trace_out.c_str());
    }
  }
  return 0;
}
