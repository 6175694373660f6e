/// \file matrix_doctor.cpp
/// \brief CLI utility around the matrix ingestion subsystem (io/).
///
/// Two modes:
///
///   Pipeline mode (--matrix FILE): run the full ingestion workflow on a
///   Matrix Market file —
///     1. load through the checksummed COO assembly pipeline (typed,
///        line-numbered errors on malformed input; automatic promotion to
///        64-bit indices past the uint32 boundary),
///     2. analyze (row-length distribution, bandwidth, symmetry, diagonal
///        coverage, slab padding costs),
///     3. advise a storage format (FormatAdvisor, rationale included),
///     4. protect it in the chosen format/scheme and verify every codeword,
///     5. CG-solve A u = b with b = A * 1 (so u* = 1 for any operator),
///     6. optionally bombard it first (--flips) or run a full injection
///        campaign on it (--campaign).
///
///   Classic mode (positional arguments): protect a file or the built-in
///   Laplacian, inject random flips, and report what the scheme catches.
///
/// Usage:
///   matrix_doctor --matrix file.mtx [--format csr|ell|sell] [--scheme S]
///                 [--width 32|64] [--flips N] [--seed N] [--campaign N]
///                 [--check-interval N] [--tile-slots N]
///   matrix_doctor <file.mtx|builtin> [scheme] [flips] [seed]
///                 [--format csr|ell|sell]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "abft/abft.hpp"
#include "faults/campaign.hpp"
#include "faults/injector.hpp"
#include "io/io.hpp"
#include "solvers/cg.hpp"
#include "sparse/generators.hpp"
#include "sparse/transform.hpp"

namespace {

using namespace abft;

[[nodiscard]] bool matrices_identical(const sparse::CsrMatrix& a,
                                      const sparse::CsrMatrix& b) {
  return a.values() == b.values() && a.cols() == b.cols() && a.row_ptr() == b.row_ptr();
}

[[nodiscard]] bool matrices_identical(const sparse::SellMatrix& a,
                                      const sparse::SellMatrix& b) {
  return a.values() == b.values() && a.cols() == b.cols() &&
         a.row_nnz() == b.row_nnz() && a.perm() == b.perm() &&
         a.slice_widths() == b.slice_widths();
}

void print_log(const FaultLog& log) {
  std::printf("fault log: %llu checks, %llu corrected, %llu uncorrectable, "
              "%llu bounds-guard hits\n",
              static_cast<unsigned long long>(log.checks()),
              static_cast<unsigned long long>(log.corrected()),
              static_cast<unsigned long long>(log.uncorrectable()),
              static_cast<unsigned long long>(log.bounds_violations()));
}

/// Classic mode: protect, bombard, verify, compare (32-bit, any format).
template <class Fmt, class ES, class SS>
void doctor(const sparse::CsrMatrix& a32, unsigned flips, std::uint64_t seed,
            std::size_t tile_slots) {
  using PM = typename Fmt::template protected_matrix<std::uint32_t, ES, SS>;
  const auto a = Fmt::template make_plain<std::uint32_t, ES>(a32);
  FaultLog log;
  auto p = PM::from_plain(a, &log, DuePolicy::record_only, tile_slots);
  std::printf("encoded (%s): %zu values, %zu column indices, %zu structure entries\n",
              to_string(Fmt::kFormat).data(), p.raw_values().size(), p.raw_cols().size(),
              p.raw_structure().size());
  std::printf("storage overhead: 0 bytes (redundancy lives in spare index bits)\n\n");

  faults::Injector injector(seed);
  unsigned in_values = 0, in_cols = 0, in_struct = 0;
  for (unsigned f = 0; f < flips; ++f) {
    const auto which = injector.rng().below(3);
    if (which == 0) {
      auto s = p.raw_values();
      injector.inject_single({reinterpret_cast<std::uint8_t*>(s.data()), s.size_bytes()});
      ++in_values;
    } else if (which == 1) {
      auto s = p.raw_cols();
      injector.inject_single({reinterpret_cast<std::uint8_t*>(s.data()), s.size_bytes()});
      ++in_cols;
    } else {
      auto s = p.raw_structure();
      injector.inject_single({reinterpret_cast<std::uint8_t*>(s.data()), s.size_bytes()});
      ++in_struct;
    }
  }
  std::printf("injected %u flips (%u values, %u cols, %u structure)\n", flips, in_values,
              in_cols, in_struct);

  const std::size_t failures = p.verify_all();
  std::printf("verification sweep: %llu checks, %llu corrected, %llu uncorrectable, "
              "%llu bounds hits\n",
              static_cast<unsigned long long>(log.checks()),
              static_cast<unsigned long long>(log.corrected()),
              static_cast<unsigned long long>(log.uncorrectable()),
              static_cast<unsigned long long>(log.bounds_violations()));

  if (failures == 0 && log.corrected() > 0) {
    // Confirm the repairs by decoding and comparing against the original.
    const auto back = p.to_plain();
    std::printf("matrix after repair %s the original\n",
                matrices_identical(back, a) ? "IDENTICAL to" : "DIFFERS from");
  } else if (failures > 0) {
    std::printf("=> %zu codewords need recovery (re-encode from checkpoint)\n", failures);
  }
}

/// Pipeline mode step 4-6 for one (format x width x scheme) combination:
/// protect, optionally bombard, verify, CG-solve with a residual history.
template <class Src>
void protect_and_solve(const Src& src, MatrixFormat format, IndexWidth width,
                       ecc::Scheme scheme, unsigned flips, std::uint64_t seed,
                       unsigned check_interval, std::size_t tile_slots) {
  FaultLog log;
  reject_unavailable_width_scheme(width, scheme);
  dispatch_uniform_protection(format, width, scheme,
                              [&]<class Fmt, class Index, class ES, class SS, class VS>() {
    using PM = typename Fmt::template protected_matrix<Index, ES, SS>;
    const auto a = Fmt::template make_plain<Index, ES>(src);
    const std::size_t n = a.nrows();

    auto pa = PM::from_plain(a, &log, DuePolicy::record_only, tile_slots);
    std::printf("protected (%s, %s-bit, %s): %zu value slots, %zu structure entries\n",
                to_string(format).data(), to_string(width).data(),
                std::string(ecc::to_string(scheme)).c_str(), pa.raw_values().size(),
                pa.raw_structure().size());

    if (flips > 0) {
      faults::Injector injector(seed);
      auto vals = pa.raw_values();
      for (unsigned f = 0; f < flips; ++f) {
        injector.inject_single(
            {reinterpret_cast<std::uint8_t*>(vals.data()), vals.size_bytes()});
      }
      std::printf("injected %u random flips into the value slots\n", flips);
    }

    const std::size_t failures = pa.verify_all();
    std::printf("verification sweep: %zu uncorrectable codewords\n", failures);

    // b = A * 1 so the reference solution is all-ones for any operator.
    aligned_vector<double> ones(n, 1.0), rhs(n, 0.0);
    sparse::spmv(a, ones.data(), rhs.data());
    ProtectedVector<VS> b(n, &log, DuePolicy::record_only);
    ProtectedVector<VS> u(n, &log, DuePolicy::record_only);
    b.assign({rhs.data(), n});

    std::vector<double> history;
    solvers::SolveOptions opts;
    opts.tolerance = 1e-10;
    opts.max_iterations = 1000;
    opts.residual_history = &history;
    opts.check_policy = CheckIntervalPolicy(check_interval);
    const auto res = solvers::cg_solve(pa, b, u, opts);

    aligned_vector<double> got(n, 0.0);
    u.extract(got);
    double max_err = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double e = got[i] > 1.0 ? got[i] - 1.0 : 1.0 - got[i];
      if (e > max_err) max_err = e;
    }
    std::printf("CG: %u iterations, converged=%s, final residual %.3e, "
                "max |u - 1| = %.3e\n",
                res.iterations, res.converged ? "yes" : "no", res.residual_norm,
                max_err);
    std::printf("residual history:");
    const std::size_t show = history.size() < 6 ? history.size() : 6;
    for (std::size_t i = 0; i < show; ++i) std::printf(" %.6e", history[i]);
    if (history.size() > show) std::printf(" ... %.6e", history.back());
    std::printf("\n");
  });
  print_log(log);
}

struct DoctorOptions {
  const char* matrix = nullptr;  ///< --matrix FILE enables pipeline mode
  const char* format = nullptr;  ///< nullptr = advisor's pick (pipeline mode)
  const char* scheme = "secded64";
  const char* width = "auto";
  unsigned flips = 0;
  bool flips_given = false;  ///< --flips was passed (classic mode defaults to 50)
  std::uint64_t seed = 1;
  unsigned campaign_trials = 0;
  unsigned check_interval = 1;   ///< 0 clamps to 1 (documented CheckIntervalPolicy rule)
  std::size_t tile_slots = 0;    ///< 0 = TileGeometry default (crc32c-tile only)
  // Classic-mode positionals: <file.mtx|builtin> [scheme] [flips] [seed]
  // (positionals win over the equivalent flags when both are given).
  const char* positional[4] = {nullptr, nullptr, nullptr, nullptr};
  int npos = 0;
};

[[noreturn]] void usage(const char* argv0, int code) {
  std::printf(
      "usage:\n"
      "  %s --matrix file.mtx [options]   full ingestion pipeline: load the\n"
      "      Matrix Market file through the checksummed COO assembly path,\n"
      "      analyze it, recommend a storage format, protect + verify it,\n"
      "      and CG-solve A u = A*1\n"
      "  %s <file.mtx|builtin> [scheme] [flips] [seed] [--format F]\n"
      "      classic mode: protect, inject random flips, verify, repair\n"
      "\n"
      "options:\n"
      "  --matrix FILE   Matrix Market file (coordinate or array; real,\n"
      "                  integer or pattern; general, symmetric or\n"
      "                  skew-symmetric; 64-bit indices engage automatically)\n"
      "  --format F      csr, ell or sell (pipeline default: the advisor's\n"
      "                  recommendation)\n"
      "  --scheme S      none, sed, secded64, secded128, crc32c or\n"
      "                  crc32c-tile (slab formats only; default secded64)\n"
      "  --width W       32, 64 or auto (default auto: whatever the file\n"
      "                  needs; forcing 32 on an oversized matrix fails)\n"
      "  --flips N       random single-bit flips to inject (default 0 in\n"
      "                  pipeline mode, 50 in classic mode)\n"
      "  --seed N        RNG seed (default 1)\n"
      "  --campaign N    additionally run an N-trial fault-injection\n"
      "                  campaign on the loaded matrix (pipeline mode)\n"
      "  --check-interval N  full integrity check every N-th CG iteration\n"
      "                  (default 1; 0 clamps to 1, the documented\n"
      "                  CheckIntervalPolicy behavior)\n"
      "  --tile-slots N  crc32c-tile codeword geometry: 16, 32, 64, 128 or\n"
      "                  256 slots (default 64; other values are rejected\n"
      "                  with the valid list, like --scheme)\n"
      "  --crc-impl I    auto, sw or hw CRC32C kernel (default auto)\n"
      "  --threads N     OpenMP thread count for the protected kernels\n"
      "                  (accepted but moot without OpenMP)\n",
      argv0, argv0);
  std::exit(code);
}

int run_pipeline(const DoctorOptions& o) {
  // 1. Load through the protected COO assembly pipeline.
  io::LoadedMatrix loaded;
  try {
    loaded = io::read_matrix_market(std::string(o.matrix), {.protected_assembly = true});
  } catch (const io::MatrixMarketError& e) {
    std::printf("cannot load '%s': %s\n", o.matrix, e.what());
    return 1;
  }
  std::printf("== matrix_doctor: %s ==\n", o.matrix);
  std::printf("banner: %s %s %s | assembled at %s-bit indices "
              "(checksummed triplet buffer)\n",
              io::to_string(loaded.header.format), io::to_string(loaded.header.field),
              io::to_string(loaded.header.symmetry), to_string(loaded.width).data());

  // 2. Analyze.
  const auto stats = loaded.wide() ? io::analyze(loaded.a64) : io::analyze(loaded.a32);
  std::ostringstream report;
  io::print_stats(report, stats);
  std::printf("\n-- analysis --\n%s", report.str().c_str());

  // 3. Advise.
  const auto advice = io::advise_format(stats);
  std::printf("\n-- advisor --\nrecommended format: %s",
              to_string(advice.format).data());
  if (advice.format == MatrixFormat::sell) {
    std::printf(" (C=%zu, sigma=%zu)", advice.slice_height, advice.sort_window);
  }
  std::printf("\nrationale: %s\n", advice.rationale.c_str());

  // 4-6. Protect + verify + solve in the chosen format.
  const MatrixFormat format =
      o.format != nullptr ? parse_format(o.format) : advice.format;
  IndexWidth width = loaded.width;
  if (std::strcmp(o.width, "auto") != 0) {
    width = parse_index_width(o.width);
    if (width == IndexWidth::i32 && loaded.wide()) {
      std::printf("matrix requires 64-bit indices; --width 32 is impossible\n");
      return 1;
    }
  }
  const auto scheme = parse_scheme(o.scheme);
  std::printf("\n-- protection (%s%s) --\n", to_string(format).data(),
              o.format == nullptr ? ", advisor's pick" : "");
  try {
    if (loaded.wide()) {
      protect_and_solve(loaded.a64, format, width, scheme, o.flips, o.seed,
                        o.check_interval, o.tile_slots);
    } else {
      protect_and_solve(loaded.a32, format, width, scheme, o.flips, o.seed,
                        o.check_interval, o.tile_slots);
    }
  } catch (const SchemeUnavailableError& e) {
    std::printf("scheme unavailable: %s\n", e.what());
    return 1;
  }

  // Full protection recommendation, folding the fault rate this process
  // actually observed (obs registry when compiled in, zero otherwise).
  const auto protection = io::advise_protection(stats, io::observed_protection_inputs());
  std::printf("\n-- protection advisor --\n"
              "recommended: format=%s scheme=%s interval=%u",
              to_string(protection.format.format).data(),
              std::string(ecc::to_string(protection.scheme)).c_str(),
              protection.check_interval);
  if (protection.tile_slots != 0) {
    std::printf(" tile-slots=%zu", protection.tile_slots);
  }
  std::printf("\nrationale: %s\n", protection.rationale.c_str());

  // Optional campaign on the loaded operator.
  if (o.campaign_trials > 0) {
    if (loaded.wide()) {
      std::printf("\ncampaigns on promoted (64-bit) matrices are not wired up; "
                  "re-run without --campaign\n");
      return 1;
    }
    faults::CampaignConfig cfg;
    cfg.matrix = &loaded.a32;
    cfg.scheme = scheme;
    cfg.format = format;
    cfg.width = width;
    cfg.trials = o.campaign_trials;
    cfg.seed = o.seed;
    std::printf("\n-- campaign (%u trials) --\n", o.campaign_trials);
    const auto result = faults::run_injection_campaign(cfg);
    std::ostringstream summary;
    faults::print_summary(summary, cfg, result);
    std::printf("%s", summary.str().c_str());
  }
  return 0;
}

int run_classic(const DoctorOptions& o) {
  const sparse::CsrMatrix a =
      std::strcmp(o.positional[0], "builtin") == 0
          ? sparse::laplacian_2d(64, 64)
          : io::read_matrix_market(std::string(o.positional[0])).narrow();
  const auto scheme =
      parse_scheme(o.positional[1] != nullptr ? o.positional[1] : o.scheme);
  const unsigned flips =
      o.positional[2] != nullptr
          ? static_cast<unsigned>(std::strtoul(o.positional[2], nullptr, 10))
          : (o.flips_given ? o.flips : 50);
  const std::uint64_t seed =
      o.positional[3] != nullptr ? std::strtoull(o.positional[3], nullptr, 10) : o.seed;
  const auto format = parse_format(o.format != nullptr ? o.format : "csr");

  std::printf("== matrix_doctor: %zux%zu, %zu nnz, scheme %s, format %s ==\n", a.nrows(),
              a.ncols(), a.nnz(), std::string(ecc::to_string(scheme)).c_str(),
              to_string(format).data());

  try {
    dispatch_format(format, [&]<class Fmt>() {
      dispatch_elem(scheme, [&]<class ES>() {
        dispatch_row(scheme,
                     [&]<class SS>() { doctor<Fmt, ES, SS>(a, flips, seed, o.tile_slots); });
      });
    });
  } catch (const SchemeUnavailableError& e) {
    std::printf("scheme unavailable: %s\n", e.what());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  DoctorOptions o;
  for (int i = 1; i < argc; ++i) {
    auto grab_str = [&](const char* flag, const char*& out) {
      if (std::strcmp(argv[i], flag) == 0) {
        if (i + 1 >= argc) {
          std::printf("%s requires a value\n", flag);
          std::exit(2);
        }
        out = argv[++i];
        return true;
      }
      return false;
    };
    const char* num = nullptr;
    if (grab_str("--matrix", o.matrix) || grab_str("--format", o.format) ||
        grab_str("--scheme", o.scheme) || grab_str("--width", o.width)) {
      continue;
    }
    if (grab_str("--crc-impl", num)) {
      try {
        ecc::set_crc32c_impl(parse_crc_impl(num));
      } catch (const std::invalid_argument& e) {
        std::printf("%s\n", e.what());
        usage(argv[0], 2);
      }
      continue;
    }
    if (grab_str("--threads", num)) {
#if defined(_OPENMP)
      omp_set_num_threads(static_cast<int>(std::strtoul(num, nullptr, 10)));
#endif
      continue;
    }
    if (grab_str("--flips", num)) {
      o.flips = static_cast<unsigned>(std::strtoul(num, nullptr, 10));
      o.flips_given = true;
      continue;
    }
    if (grab_str("--seed", num)) {
      o.seed = std::strtoull(num, nullptr, 10);
      continue;
    }
    if (grab_str("--campaign", num)) {
      o.campaign_trials = static_cast<unsigned>(std::strtoul(num, nullptr, 10));
      continue;
    }
    if (grab_str("--check-interval", num)) {
      // 0 clamps to 1 — the documented CheckIntervalPolicy(0) behavior.
      o.check_interval = static_cast<unsigned>(std::strtoul(num, nullptr, 10));
      continue;
    }
    if (grab_str("--tile-slots", num)) {
      try {
        o.tile_slots = parse_tile_slots(num);
      } catch (const std::invalid_argument& e) {
        std::printf("%s\n", e.what());
        return 2;
      }
      continue;
    }
    if (std::strcmp(argv[i], "--help") == 0) usage(argv[0], 0);
    if (argv[i][0] == '-') {
      std::printf("unknown option: '%s'\n", argv[i]);
      usage(argv[0], 2);
    }
    if (o.npos >= 4) {
      std::printf("unexpected argument: '%s'\n", argv[i]);
      usage(argv[0], 2);
    }
    o.positional[o.npos++] = argv[i];
  }

  try {
    if (o.matrix != nullptr) return run_pipeline(o);
    if (o.npos < 1) usage(argv[0], 2);
    return run_classic(o);
  } catch (const io::MatrixMarketError& e) {
    std::printf("matrix load failed: %s\n", e.what());
    return 1;
  } catch (const std::invalid_argument& e) {
    std::printf("%s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::printf("error: %s\n", e.what());
    return 1;
  }
}
