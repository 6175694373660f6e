/// \file tealeaf_workloads.cpp
/// \brief The two TeaLeaf workloads: repeated whole simulations of the
/// two-material deck through tealeaf::Simulation::run, checked against an
/// unprotected run of the same deck in the same process.
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "abft/abft.hpp"
#include "obs/metrics.hpp"
#include "probe.hpp"
#include "service.hpp"
#include "spans.hpp"
#include "sparse/vector_ops.hpp"
#include "tealeaf/driver.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace abft;

struct TeaLeafSpec {
  const char* name;
  std::size_t nx;
  unsigned steps;
  double dt;
  bool adaptive;  ///< AdaptiveCheckPolicy instead of static interval 1
};

/// Relative tolerance of the final field against the unprotected reference.
/// Protected vectors keep redundancy in low mantissa bits, so the iterates
/// differ from the plain run at round-off level and CG stops at a slightly
/// different point inside tl_eps.
constexpr double kFieldTolerance = 1e-6;

/// CG stopping tolerance of every deck.
constexpr double kTlEps = 1e-8;
/// OpenMP team size of every TeaLeaf workload (see the sizes below).
constexpr int kThreads = 1;

tealeaf::Config make_deck(const TeaLeafSpec& s) {
  tealeaf::Config cfg;
  cfg.mesh = {.nx = s.nx, .ny = s.nx, .xmin = 0, .xmax = 10, .ymin = 0, .ymax = 10};
  cfg.initial_timestep = s.dt;
  cfg.end_step = s.steps;
  cfg.tl_eps = kTlEps;
  cfg.tl_max_iters = 20000;
  cfg.solver = tealeaf::SolverKind::cg;
  cfg.states = {
      tealeaf::State{.density = 100.0, .energy = 0.0001},
      tealeaf::State{.density = 0.1, .energy = 25.0, .geometry = tealeaf::Geometry::rectangle,
                     .xmin = 0.0, .xmax = 5.0, .ymin = 0.0, .ymax = 2.0},
  };
  return cfg;
}

bool near(double got, double want) {
  return std::fabs(got - want) <= kFieldTolerance * std::max(std::fabs(want), 1e-300);
}

/// One whole simulation's numbers.
struct SimOutcome {
  double setup_s = 0.0;  ///< problem construction + every step's operator build
  double solve_s = 0.0;
  std::vector<double> step_ms;
  std::vector<double> assemble_ms, convert_ms, build_ms;  ///< stepped run only
  unsigned iterations = 0;
  std::uint64_t full_checks = 0;
  bool all_converged = true;
  double field_norm = 0.0;
  tealeaf::Problem::FieldSummary summary{};
};

void check_against(const SimOutcome& o, const tealeaf::RunResult& ref, const char* what,
                   Report& rep) {
  for (std::size_t s = 0; s < o.step_ms.size(); ++s) rep.attempt();
  if (!o.all_converged) rep.fail(std::string(what) + ": a step missed tl_eps");
  const auto& a = o.summary;
  const auto& b = ref.final_summary;
  if (!near(o.field_norm, ref.final_field_norm) || !near(a.mass, b.mass) ||
      !near(a.internal_energy, b.internal_energy) || !near(a.temperature, b.temperature)) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s: field differs from the unprotected reference (|u| %.12e vs %.12e, "
                  "energy %.12e vs %.12e)",
                  what, o.field_norm, ref.final_field_norm, a.internal_energy,
                  b.internal_energy);
    rep.fail(buf);
  }
}

/// The end-to-end path: tealeaf::Simulation::run, exactly as the examples
/// drive it.
template <class ES, class RS, class VS, class Fmt>
SimOutcome run_simulation(const tealeaf::Config& cfg, const TeaLeafSpec& spec, FaultLog* log) {
  const auto t0 = Clock::now();
  tealeaf::Simulation<ES, RS, VS, Fmt> sim(cfg, log);
  if (spec.adaptive) sim.set_adaptive();
  const double construct_s = seconds_between(t0, Clock::now());
  const auto r = sim.run();
  SimOutcome o;
  o.setup_s = construct_s + (r.wall_seconds - r.solve_seconds);
  o.solve_s = r.solve_seconds;
  for (const auto& st : r.steps) o.step_ms.push_back(st.seconds * 1e3);
  o.iterations = r.total_iterations;
  o.full_checks = spec.adaptive ? sim.adaptive_full_checks() : r.total_iterations;
  o.all_converged = r.all_converged;
  o.field_norm = r.final_field_norm;
  o.summary = r.final_summary;
  return o;
}

/// The traced path: the program's own Simulation, stepped one step at a
/// time inside spans. Before each step the benchmark makes the first two
/// calls step() makes, assemble and convert, on the same state to time those
/// layers; the step's build time is its wall time minus StepResult.seconds.
/// Its field must match Simulation::run's.
template <class ES, class RS, class VS, class Fmt>
SimOutcome run_stepped(const tealeaf::Config& cfg, const TeaLeafSpec& spec, FaultLog* log) {
  SimOutcome o;
  Span sim_span("tealeaf.simulation");
  const auto t0 = Clock::now();
  std::optional<tealeaf::Simulation<ES, RS, VS, Fmt>> sim;
  {
    Span span("tealeaf.problem");
    sim.emplace(cfg, log);
  }
  if (spec.adaptive) sim->set_adaptive();
  o.setup_s = seconds_between(t0, Clock::now());
  tealeaf::Problem& problem = sim->problem();
  for (unsigned step = 0; step < cfg.end_step; ++step) {
    {
      // Freed before the step builds its own operator.
      const auto ta = Clock::now();
      sparse::CsrMatrix assembled;
      {
        Span span("sparse.assemble", step + 1);
        assembled = problem.assemble_matrix();
      }
      const auto tb = Clock::now();
      {
        Span span("sparse.convert", step + 1);
        const auto plain = Fmt::template make_plain<std::uint32_t, ES>(assembled);
      }
      o.assemble_ms.push_back(seconds_between(ta, tb) * 1e3);
      o.convert_ms.push_back(seconds_between(tb, Clock::now()) * 1e3);
    }
    const auto tc = Clock::now();
    tealeaf::StepResult r;
    {
      Span span("tealeaf.step", step + 1);
      r = sim->step();
    }
    const double build_s = seconds_between(tc, Clock::now()) - r.seconds;
    o.build_ms.push_back(build_s * 1e3);
    o.setup_s += build_s;
    o.solve_s += r.seconds;
    o.step_ms.push_back(r.seconds * 1e3);
    o.iterations += r.iterations;
    o.all_converged = o.all_converged && r.converged;
  }
  o.full_checks = spec.adaptive ? sim->adaptive_full_checks() : o.iterations;
  o.field_norm = sparse::norm2(problem.u().data(), problem.mesh().cells());
  o.summary = problem.field_summary();
  return o;
}

template <class ES, class RS, class VS, class Fmt>
void run_tealeaf(const TeaLeafSpec& spec, const RunConfig& rc, Report& rep) {
  const int team = pin_omp_threads(kThreads);
  if (team != kThreads) {
    rep.fail("OpenMP team size " + std::to_string(team) + " != " + std::to_string(kThreads));
  }
  const tealeaf::Config cfg = make_deck(spec);
  std::printf("workload %s: %zux%zu two-material deck, %u steps of dt=%g, CG to tl_eps=%g, "
              "%d OpenMP thread(s) (team observed %d), %s checks\n",
              spec.name, spec.nx, spec.nx, spec.steps, spec.dt, kTlEps, kThreads, team,
              spec.adaptive ? "adaptive" : "static interval 1");

  // Untimed unprotected reference of the same deck, same process.
  const tealeaf::RunResult ref =
      tealeaf::Simulation<ElemNone, RowNone, VecNone, CsrFormat>(cfg).run();
  if (!ref.all_converged) rep.fail("reference (unprotected) run did not converge");
  std::printf("reference: %u iterations, |u| = %.12e\n", ref.total_iterations,
              ref.final_field_norm);
  {
    tealeaf::Problem p(cfg);
    const auto a = p.assemble_matrix();
    const auto plain = Fmt::template make_plain<std::uint32_t, ES>(a);
    using PM = typename Fmt::template protected_matrix<std::uint32_t, ES, RS>;
    auto pm = PM::from_plain(plain);
    print_footprint(pm.raw_values().size_bytes() + pm.raw_cols().size_bytes() +
                        pm.raw_structure().size_bytes(),
                    ProtectedVector<VS>(a.nrows()).raw().size_bytes(), a.nrows(), a.nnz());
  }

  FaultLog log;
  // Per-simulation numbers go into storage reserved before the first
  // simulation: a block allocated inside one simulation and kept to the end
  // would sit between its transient arrays, and glibc's heap then grows
  // simulation after simulation (peak RSS tracked run length that way).
  constexpr std::size_t kReserveSims = 4096;
  std::vector<double> setup_s, solve_s, step_ms;
  setup_s.reserve(kReserveSims);
  solve_s.reserve(kReserveSims);
  step_ms.reserve(kReserveSims * spec.steps);
  unsigned iters = 0;
  const auto record = [&](const SimOutcome& o) {
    setup_s.push_back(o.setup_s);
    solve_s.push_back(o.solve_s);
    step_ms.insert(step_ms.end(), o.step_ms.begin(), o.step_ms.end());
    iters = o.iterations;
  };
  double wall_total = 0.0;
  if (!rc.trace) {
    repeat_for(rc.seconds, 3, [&](std::size_t) {
      const auto t0 = Clock::now();
      const SimOutcome o = run_simulation<ES, RS, VS, Fmt>(cfg, spec, &log);
      wall_total += seconds_between(t0, Clock::now());
      check_against(o, ref, "simulation", rep);
      record(o);
    });
  } else {
    // Per-layer probe on this deck's first-step operator.
    tealeaf::Problem p(cfg);
    const auto a = p.assemble_matrix();
    const KernelCosts kc = probe_kernels<Fmt, ES, RS, VS>(a, 4, rep);
    rep.metric("io.mtx_read_mb_per_s",
               probe_mtx_read(a, rc.out_dir + "/" + spec.name + ".mtx", rep), "MB/s");
    // The service layer over this operator: one wave through the fleet.
    {
      using PM = typename Fmt::template protected_matrix<std::uint32_t, ES, RS>;
      auto pm = PM::from_plain(Fmt::template make_plain<std::uint32_t, ES>(a), nullptr,
                               DuePolicy::record_only);
      std::vector<double> ones(a.nrows(), 1.0), rhs1(a.nrows());
      sparse::spmv(a, ones.data(), rhs1.data());
      ServeConfig sc;
      sc.tolerance = 1e-8;
      sc.answer_tolerance = 1e-4;
      sc.seconds = 0.0;
      const auto before = obs::MetricsRegistry::global().snapshot();
      const ServeStats st = serve<PM, VS>(pm, rhs1, sc, rep);
      report_service_layer(st, before, obs::MetricsRegistry::global().snapshot(), rep);
      rep.attempt(st.completed);
    }

    // Alternate untraced and traced simulations; both take the stepped path,
    // so the difference is the recording alone.
    std::vector<double> untraced_s, traced_s;
    std::vector<SimOutcome> traced;
    auto& rec = SpanRecorder::global();
    repeat_for(rc.seconds, 4, [&](std::size_t rep_i) {
      const bool on = rep_i % 2 == 1;
      rec.set_enabled(on);
      const auto t0 = Clock::now();
      auto o = run_stepped<ES, RS, VS, Fmt>(cfg, spec, &log);
      (on ? traced_s : untraced_s).push_back(seconds_between(t0, Clock::now()));
      check_against(o, ref, on ? "traced run" : "untraced stepped run", rep);
      if (on) {
        record(o);
        traced.push_back(std::move(o));
      }
    });
    rec.set_enabled(true);
    rep.metric("obs.trace_overhead_pct", (median(traced_s) / median(untraced_s) - 1.0) * 100.0,
               "%");
    std::vector<double> asm_ms, conv_ms, build_ms;
    double traced_iters = 0.0, solve_ms = 0.0, full = 0.0, nsteps = 0.0;
    for (const auto& o : traced) {
      for (std::size_t s = 0; s < o.assemble_ms.size(); ++s) {
        asm_ms.push_back(o.assemble_ms[s]);
        conv_ms.push_back(o.convert_ms[s]);
        build_ms.push_back(o.build_ms[s]);
      }
      traced_iters += o.iterations;
      solve_ms += o.solve_s * 1e3;
      full += static_cast<double>(o.full_checks);
      nsteps += static_cast<double>(o.step_ms.size());
    }
    rep.metric("sparse.assemble_ms", median(asm_ms), "ms");
    rep.metric("sparse.convert_ms", median(conv_ms), "ms");
    rep.metric("tealeaf.step_build_ms", median(build_ms), "ms");
    const double ratio = full / traced_iters;
    const double ms_per_iter = solve_ms / traced_iters;
    rep.metric("solvers.iterations", traced_iters / nsteps, "count");
    rep.metric("solvers.ms_per_iter", ms_per_iter, "ms");
    rep.metric("solvers.self_ms_per_iter", ms_per_iter - kc.cg_iteration_ms(ratio), "ms");
    rep.metric("solvers.full_check_ratio", ratio, "ratio");
    rep.metric("faults.injected", 0.0, "count");
    rep.metric("faults.corrected", static_cast<double>(log.corrected()), "count");
    rep.metric("faults.uncorrectable", static_cast<double>(log.uncorrectable()), "count");
  }
  if (log.corrected() + log.uncorrectable() != 0) {
    rep.fail("faults reported on a fault-free run: " + std::to_string(log.corrected()) +
             " corrected, " + std::to_string(log.uncorrectable()) + " uncorrectable");
  }

  std::printf("simulations: %zu, steps (latency samples): %zu, CG iterations per simulation: "
              "%u\n",
              setup_s.size(), step_ms.size(), iters);
  print_sample("setup_s", setup_s);
  print_sample("solve_s", solve_s);
  if (!rc.trace) {
    // Contention on a shared host only ever adds time, so the fastest of the
    // run's simulations is the steadiest estimate of the code's own cost (its
    // spread over runs was 0.07-0.10 where the 10th percentile's was
    // 0.10-0.13); p50_ms and p95_ms carry the contended distribution.
    rep.metric("setup_s", fastest(setup_s), "s");
    rep.metric("solve_s", fastest(solve_s), "s");
    rep.metric("p50_ms", quantile(step_ms, 0.5), "ms");
    rep.metric("p95_ms", quantile(step_ms, 0.95), "ms");
    rep.metric("throughput_rps", static_cast<double>(step_ms.size()) / wall_total, "1/s");
  }
}

// Sizes. A full simulation takes ~1.5-2.5 s, so one run holds ~15-25 of
// them and 70-250 step-latency samples; the short timestep keeps every step
// at a few tens of CG iterations. The ELL operator (3 MiB) is 1.5x the
// per-core L2. Both run on one thread: on a shared 4-vCPU virtual machine a
// second busy vCPU drew 8-12% hypervisor steal in busy periods and slowed
// two-thread runs 1.6-1.8x, far past any bound (perfbench/README.md).
// The tiny decks only prove the plumbing.
constexpr TeaLeafSpec kCsrSecded{"tealeaf-csr-secded", 96, 12, 0.0006, false};
constexpr TeaLeafSpec kCsrSecdedTiny{"tealeaf-csr-secded", 24, 2, 0.004, false};
constexpr TeaLeafSpec kEllCrcTile{"tealeaf-ell-crctile", 224, 4, 0.0004, true};
constexpr TeaLeafSpec kEllCrcTileTiny{"tealeaf-ell-crctile", 32, 2, 0.004, true};

}  // namespace

void run_tealeaf_csr_secded(const RunConfig& rc, Report& rep) {
  run_tealeaf<ElemSecded, RowSecded64, VecSecded64, CsrFormat>(
      rc.tiny ? kCsrSecdedTiny : kCsrSecded, rc, rep);
}

void run_tealeaf_ell_crctile(const RunConfig& rc, Report& rep) {
  run_tealeaf<ElemCrc32cTile, schemes::StructCrc32c<std::uint32_t>, VecCrc32c, EllFormat>(
      rc.tiny ? kEllCrcTileTiny : kEllCrcTile, rc, rep);
}

}  // namespace perfbench
