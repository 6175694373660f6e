/// \file service_workload.cpp
/// \brief service-sell-crc: a seeded long-tailed SPD operator written as
/// Matrix Market, loaded through io, converted to SELL-C-sigma, protected
/// with the crc32c family and served by a two-worker fleet under injected
/// faults.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "abft/abft.hpp"
#include "common/rng.hpp"
#include "io/matrix_market.hpp"
#include "obs/metrics.hpp"
#include "probe.hpp"
#include "service.hpp"
#include "sparse/coo.hpp"
#include "tealeaf/problem.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace abft;
using PM = ProtectedSell<std::uint32_t, ElemCrc32c, schemes::StructCrc32c<std::uint32_t>>;

struct ServiceSpec {
  std::size_t rows;
  std::size_t min_waves;  ///< >= 200 requests, so >= 10 lie beyond p95
};
constexpr ServiceSpec kFull{6000, 50};
constexpr ServiceSpec kTiny{600, 50};
/// The set-up runs again every this many waves (see run_service_sell_crc).
constexpr std::size_t kWavesPerSetup = 2;

/// Symmetric, strictly diagonally dominant (so SPD) matrix with long-tailed
/// row lengths and uniformly scattered columns: the shape SELL-C-sigma's
/// sorting window is built for. Row i picks the Pareto(alpha 1.5) quantile
/// of a seeded rank, rank[i] (2..256 off-diagonals), so every seed has the same
/// length histogram and, up to the few pairs drawn twice, the same nonzero
/// count, while rows, columns and values move with the seed. The diagonal is 1.1x the off-diagonal row sum, then the
/// matrix is scaled symmetrically to a unit diagonal, which bounds the
/// condition number by (1 + 1/1.1) / (1 - 1/1.1) = 21 however long the
/// tail is: CG needs tens of iterations on every seed.
sparse::CsrMatrix make_operator(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::size_t> rank(n);
  for (std::size_t i = 0; i < n; ++i) rank[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(rank[i - 1], rank[rng.below(i)]);
  struct Entry {
    std::size_t i, j;
    double v;
  };
  std::vector<Entry> entries;
  std::vector<double> diag(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = (static_cast<double>(rank[i]) + 0.5) / static_cast<double>(n);
    const auto picks =
        static_cast<std::size_t>(std::min(256.0, std::floor(2.0 / std::pow(u, 1.0 / 1.5))));
    for (std::size_t p = 0; p < picks; ++p) {
      std::size_t j = rng.below(n - 1);
      j += j >= i ? 1 : 0;  // any column but the diagonal
      const double v = -rng.uniform(0.1, 1.0);
      entries.push_back({std::min(i, j), std::max(i, j), v});
      diag[i] -= v;
      diag[j] -= v;
    }
  }
  for (auto& d : diag) d = 1.1 * d + 0.01;
  // A pair drawn more than once is summed here, once, so that a_ij and a_ji
  // are the same double. Left to the COO's duplicate summing, three draws of
  // one pair add up in two orders, the matrix is then not exactly symmetric,
  // and io writes it as a general file of twice the size, which doubles the
  // text the set-up reads on such seeds.
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return std::tie(a.i, a.j) < std::tie(b.i, b.j);
  });
  sparse::Coo<std::uint32_t> coo(n, n);
  coo.reserve(2 * entries.size() + n);
  for (std::size_t k = 0; k < entries.size();) {
    const Entry& e = entries[k];
    double sum = 0.0;
    for (; k < entries.size() && entries[k].i == e.i && entries[k].j == e.j; ++k) {
      sum += entries[k].v;
    }
    const double v = sum / std::sqrt(diag[e.i] * diag[e.j]);
    coo.add(e.i, e.j, v);
    coo.add(e.j, e.i, v);
  }
  for (std::size_t i = 0; i < n; ++i) coo.add(i, i, 1.0);
  return coo.to_csr();
}

double sum_prefix(const obs::Snapshot& s, const std::string& prefix) {
  double total = 0.0;
  for (const auto& [k, v] : s.counters) {
    if (k.rfind(prefix, 0) == 0) total += static_cast<double>(v);
  }
  return total;
}

struct Setup {
  double read_ms = 0.0, convert_ms = 0.0;
};

}  // namespace

void report_service_layer(const ServeStats& st, const obs::Snapshot& before,
                          const obs::Snapshot& after, Report& rep) {
  rep.metric("service.queue_wait_ms_p50", quantile(st.queue_wait_ms, 0.5), "ms");
  rep.metric("service.commit_wait_ms_p95", quantile(st.commit_wait_ms, 0.95), "ms");
  const double busy = sum_prefix(after, "abft_worker_busy_ns_total") -
                      sum_prefix(before, "abft_worker_busy_ns_total");
  const double wait = sum_prefix(after, "abft_worker_wait_ns_total") -
                      sum_prefix(before, "abft_worker_wait_ns_total");
  double batch_sum = 0.0, batch_count = 0.0;
  for (const auto* s : {&after, &before}) {
    const double sign = s == &after ? 1.0 : -1.0;
    if (auto it = s->histograms.find("abft_queue_batch_size"); it != s->histograms.end()) {
      batch_sum += sign * it->second.sum;
      batch_count += sign * static_cast<double>(it->second.count);
    }
  }
  // The registry is the program's own account; the benchmark's committed
  // batches and fault totals must agree with it.
  double mine = 0.0;
  for (const double b : st.batch_sizes) mine += b;
  if (batch_count != static_cast<double>(st.batch_sizes.size()) || batch_sum != mine) {
    rep.fail("obs registry batch count/size disagrees with the committed batches");
  }
  rep.metric("service.batch_size_mean", batch_sum / batch_count, "requests");
  rep.metric("service.worker_busy_ratio", busy / (busy + wait), "ratio");
  const auto delta = [&](const char* name) {
    return static_cast<double>(after.counter(name) - before.counter(name));
  };
  std::printf("registry: worker busy %.3f s, wait %.3f s, %.0f batches; abft_checks %.0f, "
              "corrected %.0f, uncorrectable %.0f\n",
              busy / 1e9, wait / 1e9, batch_count, delta("abft_checks_total"),
              delta("abft_corrected_total"), delta("abft_uncorrectable_total"));
  if (delta("abft_corrected_total") != static_cast<double>(st.corrected) ||
      delta("abft_uncorrectable_total") != static_cast<double>(st.uncorrectable)) {
    rep.fail("obs registry fault counters disagree with the FaultLog totals");
  }
}

void run_service_sell_crc(const RunConfig& rc, Report& rep) {
  const ServiceSpec spec = rc.tiny ? kTiny : kFull;
  const int team = pin_omp_threads(1);
  ServeConfig sc;
  sc.inject = true;
  sc.seed = rc.seed;
  sc.min_waves = spec.min_waves;
  std::printf("workload service-sell-crc: %zu-row seeded long-tailed SPD operator, %zu "
              "workers x %d OpenMP thread(s), batches of %zu, %zu callers in flight, main "
              "team %d\n",
              spec.rows, kWorkers, kWorkerOmpThreads, kBatch, kBatch, team);

  // Inputs from the seed (untimed): the operator, written as Matrix Market.
  const std::string path =
      rc.out_dir + "/service-" + std::to_string(rc.seed) + (rc.tiny ? "-tiny" : "") + ".mtx";
  io::write_matrix_market(path, make_operator(spec.rows, rc.seed));
  double file_mb = 0.0;
  {
    std::ifstream f(path, std::ios::binary | std::ios::ate);
    file_mb = static_cast<double>(f.tellg()) / 1e6;
  }

  // Set-up: read -> convert -> encode. It runs again every other wave, while
  // no batch is in flight, and the fresh operator takes over: set-ups taken
  // back to back would all see the same few hundred milliseconds of host
  // noise; spread over the run, a hundred or more of them sample all of it.
  // Reserved up front, as serve() does for its result vectors (see there).
  constexpr std::size_t kReserveSetups = 4096;
  std::vector<Setup> setups;
  std::vector<double> setup_s;
  setups.reserve(kReserveSetups);
  setup_s.reserve(kReserveSetups);
  io::LoadedMatrix loaded;
  sparse::SellMatrix plain;
  std::optional<PM> pm;
  const auto set_up = [&] {
    Setup t;
    const auto t0 = Clock::now();
    {
      Span span("io.read_matrix_market");
      loaded = io::read_matrix_market(path);
    }
    const auto t1 = Clock::now();
    {
      Span span("sparse.convert");
      plain = SellFormat::make_plain<std::uint32_t, ElemCrc32c>(loaded.narrow());
    }
    const auto t2 = Clock::now();
    {
      Span span("abft.encode");
      pm.emplace(PM::from_plain(plain, nullptr, DuePolicy::record_only));
    }
    const auto t3 = Clock::now();
    t.read_ms = seconds_between(t0, t1) * 1e3;
    t.convert_ms = seconds_between(t1, t2) * 1e3;
    setups.push_back(t);
    setup_s.push_back(seconds_between(t0, t3));
  };
  set_up();
  std::size_t waves_seen = 0;
  const auto set_up_again = [&] {
    if (++waves_seen % kWavesPerSetup == 0) set_up();
  };
  const sparse::CsrMatrix& a = loaded.narrow();
  print_footprint(pm->raw_values().size_bytes() + pm->raw_cols().size_bytes() +
                      pm->raw_structure().size_bytes(),
                  ProtectedVector<VecCrc32c>(a.nrows()).raw().size_bytes(), a.nrows(), a.nnz());

  // Operator faults may land on real entries only; the protected slabs keep
  // the plain SELL slot layout, which is checked here.
  std::vector<std::size_t> slots;
  for (std::size_t i = 0; i < plain.nrows(); ++i) {
    for (std::size_t j = 0; j < plain.row_nnz()[i]; ++j) slots.push_back(plain.slot(i, j));
  }
  for (const std::size_t s : slots) {
    if (pm->raw_values()[s] != plain.values()[s]) {
      rep.fail("protected SELL slab layout differs from the plain slab");
      break;
    }
  }
  sc.fault_slots = &slots;
  std::vector<double> ones(a.nrows(), 1.0), rhs1(a.nrows());
  sparse::spmv(a, ones.data(), rhs1.data());

  auto& rec = SpanRecorder::global();
  ServeStats total;
  const auto merge = [&](const ServeStats& st) {
    total.latency_ms.insert(total.latency_ms.end(), st.latency_ms.begin(), st.latency_ms.end());
    total.queue_wait_ms.insert(total.queue_wait_ms.end(), st.queue_wait_ms.begin(),
                               st.queue_wait_ms.end());
    total.commit_wait_ms.insert(total.commit_wait_ms.end(), st.commit_wait_ms.begin(),
                                st.commit_wait_ms.end());
    total.wave_s.insert(total.wave_s.end(), st.wave_s.begin(), st.wave_s.end());
    total.batch_sizes.insert(total.batch_sizes.end(), st.batch_sizes.begin(),
                             st.batch_sizes.end());
    total.serve_s += st.serve_s;
    total.completed += st.completed;
    total.solve_ms_total += st.solve_ms_total;
    total.column_iterations += st.column_iterations;
    total.iterations_total += st.iterations_total;
    total.injected += st.injected;
    total.corrected += st.corrected;
    total.uncorrectable += st.uncorrectable;
    total.worker_omp_threads.insert(st.worker_omp_threads.begin(), st.worker_omp_threads.end());
  };

  if (!rc.trace) {
    sc.seconds = rc.seconds;
    merge(serve<PM, VecCrc32c>(*pm, rhs1, sc, rep, set_up_again));
    // The fastest set-up and wave, as on the TeaLeaf workloads (see there).
    rep.metric("setup_s", fastest(setup_s), "s");
    rep.metric("solve_s", fastest(total.wave_s), "s");
    rep.metric("p50_ms", quantile(total.latency_ms, 0.5), "ms");
    rep.metric("p95_ms", quantile(total.latency_ms, 0.95), "ms");
    rep.metric("throughput_rps", static_cast<double>(total.completed) / total.serve_s, "1/s");
  } else {
    const KernelCosts kc = probe_kernels<SellFormat, ElemCrc32c,
                                         schemes::StructCrc32c<std::uint32_t>, VecCrc32c>(
        a, kBatch, rep);
    rep.metric("sparse.assemble_ms", probe_coo_assembly(a, rep), "ms");
    {
      // A TeaLeaf step's operator build at this format, scheme and size.
      tealeaf::Config cfg;
      const auto side = static_cast<std::size_t>(std::sqrt(static_cast<double>(a.nrows())));
      cfg.mesh = {.nx = side, .ny = side, .xmin = 0, .xmax = 10, .ymin = 0, .ymax = 10};
      tealeaf::Problem problem(cfg);
      rep.metric("tealeaf.step_build_ms", median_call_ms([&] {
                   Span span("tealeaf.step_build");
                   auto built = PM::from_plain(
                       SellFormat::make_plain<std::uint32_t, ElemCrc32c>(problem.assemble_matrix()));
                   (void)built;
                 }),
                 "ms");
    }
    // Alternate untraced and traced serving segments.
    std::vector<double> untraced_wave_s, traced_wave_s;
    const auto before = obs::MetricsRegistry::global().snapshot();
    for (int seg = 0; seg < 4; ++seg) {
      const bool on = seg % 2 == 1;
      rec.set_enabled(on);
      sc.seconds = rc.seconds / 4.0;
      sc.min_waves = spec.min_waves / 4 + 1;
      sc.seed = rc.seed + static_cast<std::uint64_t>(seg) * 1000003ull;
      const ServeStats st = serve<PM, VecCrc32c>(*pm, rhs1, sc, rep, set_up_again);
      auto& dst = on ? traced_wave_s : untraced_wave_s;
      dst.insert(dst.end(), st.wave_s.begin(), st.wave_s.end());
      merge(st);
    }
    rec.set_enabled(true);
    report_service_layer(total, before, obs::MetricsRegistry::global().snapshot(), rep);
    rep.metric("obs.trace_overhead_pct",
               (median(traced_wave_s) / median(untraced_wave_s) - 1.0) * 100.0, "%");
    std::vector<double> read_ms, convert_ms;
    for (const auto& t : setups) {
      read_ms.push_back(t.read_ms);
      convert_ms.push_back(t.convert_ms);
    }
    rep.metric("io.mtx_read_mb_per_s", file_mb / (median(read_ms) * 1e-3), "MB/s");
    rep.metric("sparse.convert_ms", median(convert_ms), "ms");
    const double ms_per_iter = total.solve_ms_total / total.column_iterations;
    rep.metric("solvers.iterations", total.iterations_total / static_cast<double>(total.completed),
               "count");
    rep.metric("solvers.ms_per_iter", ms_per_iter, "ms");
    rep.metric("solvers.self_ms_per_iter", ms_per_iter - kc.batch_column_iteration_ms(), "ms");
    rep.metric("solvers.full_check_ratio", 1.0, "ratio");
    rep.metric("faults.injected", static_cast<double>(total.injected), "count");
    rep.metric("faults.corrected", static_cast<double>(total.corrected), "count");
    rep.metric("faults.uncorrectable", static_cast<double>(total.uncorrectable), "count");
  }

  rep.attempt(total.completed);
  print_sample("setup_s (read+convert+encode)", setup_s);
  print_sample("wave_s", total.wave_s);
  std::printf("CG iterations per request %.1f, solve ms per column-iteration %.4f\n",
              total.iterations_total / static_cast<double>(total.completed),
              total.solve_ms_total / total.column_iterations);
  std::printf("served %zu requests in %zu waves (%zu latency samples, %zu beyond p95); "
              "faults injected %llu, corrected %llu, uncorrectable %llu\n",
              total.completed, total.wave_s.size(), total.latency_ms.size(),
              total.latency_ms.size() / 20, static_cast<unsigned long long>(total.injected),
              static_cast<unsigned long long>(total.corrected),
              static_cast<unsigned long long>(total.uncorrectable));
  if (total.injected != total.corrected || total.uncorrectable != 0) {
    rep.fail("fault accounting: corrected != injected or uncorrectable > 0");
  }
  if (total.worker_omp_threads != std::set<int>{kWorkerOmpThreads}) {
    std::string seen;
    for (const int t : total.worker_omp_threads) seen += std::to_string(t) + " ";
    rep.fail("OpenMP team size inside workers: " + seen + "(expected " +
             std::to_string(kWorkerOmpThreads) + ")");
  }
  for (const int t : total.worker_omp_threads) {
    std::printf("OpenMP threads observed inside service workers: %d\n", t);
  }
}

}  // namespace perfbench
