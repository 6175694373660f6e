/// \file quickstart.cpp
/// \brief Minimal tour of the public API: protect a sparse matrix and the
/// solver vectors — at either index width, in either storage format — flip a
/// bit, and watch the solve survive.
///
/// Usage: quickstart [scheme] [width] [--format csr|ell|sell|all]
///                   [--matrix file.mtx] [--crc-impl auto|sw|hw]
///                   [--threads N] [--nrhs K]
///   scheme: none|sed|secded64|secded128|crc32c|crc32c-tile   (default
///           secded64; crc32c-tile is the slab formats' unit-stride layout
///           and is unavailable on csr)
///   width:  32|64|both                           (default both)
///   format: csr|ell|sell|all                     (default all; 'both' is
///           accepted as a legacy alias)
///   matrix: a Matrix Market file to protect instead of the built-in
///           Laplacian — the io/ ingestion pipeline (matrix_doctor --matrix
///           runs the same loader with analysis and a format advisor on top)
///   nrhs:   solve K right-hand sides as one cg_solve_batch() (default 1 =
///           plain cg_solve); the batch verifies the matrix once per pass
///           for all K systems — examples/solve_service.cpp drives the same
///           API from a concurrent request queue
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "abft/abft.hpp"
#include "common/fault_log.hpp"
#include "faults/injector.hpp"
#include "io/io.hpp"
#include "solvers/solvers.hpp"
#include "sparse/generators.hpp"
#include "sparse/transform.hpp"

namespace {

using namespace abft;

/// Protect, inject one flip, CG-solve and report — for one
/// (format x width x scheme) combination picked at runtime through
/// dispatch_uniform_protection(), which instantiates only the uniform scheme
/// combinations (secded128 at 32-bit width is rejected first rather than
/// downgraded). With nrhs > 1 the K systems b_j = (j+1) * (A·1)
/// are solved as one cg_solve_batch() call (exact solutions u_j = (j+1)·1),
/// paying the matrix verification once per batch pass.
void run_protected_solve(const sparse::CsrMatrix& a32, MatrixFormat format,
                         IndexWidth width, ecc::Scheme scheme, std::size_t nrhs,
                         unsigned check_interval, std::size_t tile_slots) {
  FaultLog log;
  std::printf("-- %s, %s-bit indices --\n", to_string(format).data(),
              to_string(width).data());
  reject_unavailable_width_scheme(width, scheme);
  dispatch_uniform_protection(format, width, scheme,
                              [&]<class Fmt, class Index, class ES, class SS, class VS>() {
    using PM = typename Fmt::template protected_matrix<Index, ES, SS>;
    const auto a = Fmt::template make_plain<Index, ES>(a32);
    const std::size_t n = a.nrows();
    aligned_vector<double> ones(n, 1.0), rhs(n, 0.0);
    sparse::spmv(a, ones.data(), rhs.data());

    auto pa = PM::from_plain(a, &log, DuePolicy::record_only, tile_slots);

    faults::Injector injector(/*seed=*/7);
    auto vals = pa.raw_values();
    const auto fault = injector.inject_single(
        {reinterpret_cast<std::uint8_t*>(vals.data()), vals.size_bytes()});
    std::printf("injected a bit flip at bit offset %zu of the matrix value array\n",
                fault.bit_offset);

    solvers::SolveOptions opts;
    opts.tolerance = 1e-12;
    opts.check_policy = CheckIntervalPolicy(check_interval);
    if (nrhs == 1) {
      ProtectedVector<VS> b(n, &log, DuePolicy::record_only);
      ProtectedVector<VS> u(n, &log, DuePolicy::record_only);
      b.assign({rhs.data(), n});
      const auto res = solvers::cg_solve(pa, b, u, opts);

      aligned_vector<double> got(n, 0.0);
      u.extract(got);
      double max_err = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double e = got[i] > 1.0 ? got[i] - 1.0 : 1.0 - got[i];
        if (e > max_err) max_err = e;
      }
      std::printf("CG: %u iterations, converged=%s, max |u - 1| = %.3e\n",
                  res.iterations, res.converged ? "yes" : "no", max_err);
    } else {
      ProtectedMultiVector<VS> b(n), u(n);
      std::vector<double> scaled(n);
      for (std::size_t j = 0; j < nrhs; ++j) {
        auto& bj = b.add_column(&log, DuePolicy::record_only);
        u.add_column(&log, DuePolicy::record_only);
        for (std::size_t i = 0; i < n; ++i) {
          scaled[i] = static_cast<double>(j + 1) * rhs[i];
        }
        bj.assign({scaled.data(), scaled.size()});
      }
      const auto results = solvers::cg_solve_batch(pa, b, u, opts);
      for (std::size_t j = 0; j < nrhs; ++j) {
        const double want = static_cast<double>(j + 1);
        aligned_vector<double> got(n, 0.0);
        u.column(j).extract(got);
        double max_err = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double e = got[i] > want ? got[i] - want : want - got[i];
          if (e > max_err) max_err = e;
        }
        std::printf("CG column %zu: %u iterations, converged=%s, "
                    "max |u - %g| = %.3e\n",
                    j, results[j].iterations, results[j].converged ? "yes" : "no",
                    want, max_err);
      }
    }
  });
  std::printf("fault log: %llu checks, %llu corrected, %llu uncorrectable, "
              "%llu bounds-guard hits\n",
              static_cast<unsigned long long>(log.checks()),
              static_cast<unsigned long long>(log.corrected()),
              static_cast<unsigned long long>(log.uncorrectable()),
              static_cast<unsigned long long>(log.bounds_violations()));
}

}  // namespace

int main(int argc, char** argv) {
  const char* scheme_name = "secded64";
  const char* width_name = "both";
  const char* format_name = "both";
  const char* matrix_path = nullptr;
  std::size_t nrhs = 1;
  unsigned check_interval = 1;
  std::size_t tile_slots = 0;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "usage: quickstart [scheme] [width] [--format csr|ell|sell|all]\n"
          "                  [--matrix file.mtx] [--crc-impl auto|sw|hw]\n"
          "                  [--threads N] [--nrhs K]\n"
          "                  [--check-interval N] [--tile-slots 16|32|64|128|256]\n"
          "  scheme  none|sed|secded64|secded128|crc32c|crc32c-tile (default "
          "secded64)\n"
          "  width   32|64|both (default both)\n"
          "  --nrhs K  solve K right-hand sides as one cg_solve_batch(): the\n"
          "            matrix region is verified once per batch pass for all K\n"
          "            systems (see examples/solve_service.cpp for the\n"
          "            request-queue service built on the same API, and\n"
          "            bench/fig_service.cpp for its latency/throughput bench)\n"
          "  --check-interval N  run the matrix integrity checks every N-th CG\n"
          "            iteration, range-guarding in between (paper fig. 6-8;\n"
          "            0 clamps to 1, i.e. check every iteration)\n"
          "  --tile-slots N  crc32c-tile geometry: slots per tile, power of\n"
          "            two in 16..256 (default 64; ignored by other schemes)\n");
      return 0;
    }
    if (std::strcmp(argv[i], "--nrhs") == 0) {
      if (i + 1 >= argc) {
        std::printf("--nrhs requires a batch width\n");
        return 2;
      }
      nrhs = std::strtoull(argv[++i], nullptr, 10);
      if (nrhs == 0) nrhs = 1;
    } else if (std::strcmp(argv[i], "--check-interval") == 0) {
      if (i + 1 >= argc) {
        std::printf("--check-interval requires an iteration count\n");
        return 2;
      }
      // 0 clamps to 1 — the documented CheckIntervalPolicy(0) behavior.
      check_interval =
          static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--tile-slots") == 0) {
      if (i + 1 >= argc) {
        std::printf("--tile-slots requires a tile size\n");
        return 2;
      }
      try {
        tile_slots = abft::parse_tile_slots(argv[++i]);
      } catch (const std::invalid_argument& e) {
        std::printf("%s\n", e.what());
        return 2;
      }
    } else if (std::strcmp(argv[i], "--format") == 0) {
      if (i + 1 >= argc) {
        std::printf("--format requires a value (csr, ell, sell or all)\n");
        return 2;
      }
      format_name = argv[++i];
    } else if (std::strcmp(argv[i], "--matrix") == 0) {
      if (i + 1 >= argc) {
        std::printf("--matrix requires a Matrix Market file path\n");
        return 2;
      }
      matrix_path = argv[++i];
    } else if (std::strcmp(argv[i], "--crc-impl") == 0) {
      if (i + 1 >= argc) {
        std::printf("--crc-impl requires a value (auto, sw or hw)\n");
        return 2;
      }
      try {
        ecc::set_crc32c_impl(abft::parse_crc_impl(argv[++i]));
      } catch (const std::invalid_argument& e) {
        std::printf("%s\n", e.what());
        return 2;
      }
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      if (i + 1 >= argc) {
        std::printf("--threads requires a thread count\n");
        return 2;
      }
#if defined(_OPENMP)
      omp_set_num_threads(
          static_cast<int>(std::strtoul(argv[++i], nullptr, 10)));
#else
      ++i;  // accepted but moot without OpenMP
#endif
    } else if (positional == 0) {
      scheme_name = argv[i];
      ++positional;
    } else if (positional == 1) {
      width_name = argv[i];
      ++positional;
    } else {
      std::printf("unexpected argument: '%s'\n", argv[i]);
      return 2;
    }
  }
  std::printf("== abftsolve quickstart (scheme: %s, width: %s, format: %s) ==\n",
              scheme_name, width_name, format_name);

  // 1. Build a test problem with known solution u* = 1 (rhs = A * 1): the
  //    5-point Laplacian by default, or any Matrix Market file via --matrix
  //    (loaded through the io/ checksummed COO assembly pipeline; files past
  //    the uint32 boundary would auto-promote to the 64-bit stack, which this
  //    walkthrough keeps narrow). The format tags apply their own minimum-row
  //    remedies for the per-row CRC (CSR pads rows; ELL/SELL only need slab
  //    or slice width >= 4).
  const std::size_t nx = 128, ny = 128;
  sparse::CsrMatrix a;
  if (matrix_path != nullptr) {
    try {
      a = io::read_matrix_market(std::string(matrix_path),
                                 {.protected_assembly = true})
              .narrow();
    } catch (const std::exception& e) {
      std::printf("cannot load '%s': %s\n", matrix_path, e.what());
      return 1;
    }
    std::printf("loaded %s\n", matrix_path);
  } else {
    a = sparse::laplacian_2d(nx, ny);
  }
  std::printf("matrix: %zux%zu, %zu non-zeros\n", a.nrows(), a.ncols(), a.nnz());

  // 2. Protect matrix + vectors at the requested width(s) and format(s),
  //    inject one bit flip into the matrix values, solve, and report what the
  //    protection layer saw. secded128 demonstrates width-aware dispatch: it
  //    is a real 128-bit element codeword at 64-bit width and a clear error
  //    at 32-bit.
  ecc::Scheme scheme;
  bool both_widths, both_formats;
  try {
    scheme = abft::parse_scheme(scheme_name);
    both_widths = std::strcmp(width_name, "both") == 0;
    if (!both_widths) (void)abft::parse_index_width(width_name);  // reject typos loudly
    both_formats = std::strcmp(format_name, "both") == 0 ||
                   std::strcmp(format_name, "all") == 0;
    if (!both_formats) (void)abft::parse_format(format_name);
  } catch (const std::invalid_argument& e) {
    std::printf("%s\n", e.what());
    return 2;
  }
  const auto run_combo = [&](abft::MatrixFormat format, abft::IndexWidth width) {
    try {
      run_protected_solve(a, format, width, scheme, nrhs, check_interval,
                          tile_slots);
      return true;
    } catch (const abft::SchemeUnavailableError& e) {
      std::printf("scheme unavailable: %s\n", e.what());
      return false;
    }
  };
  bool any_ok = false;
  for (const char* fmt : {"csr", "ell", "sell"}) {
    if (!both_formats && std::strcmp(format_name, fmt) != 0) continue;
    const auto format = abft::parse_format(fmt);
    if (both_widths || std::strcmp(width_name, "32") == 0) {
      any_ok |= run_combo(format, abft::IndexWidth::i32);
    }
    if (both_widths || std::strcmp(width_name, "64") == 0) {
      any_ok |= run_combo(format, abft::IndexWidth::i64);
    }
  }
  if (!any_ok) return 1;
  if (scheme == abft::ecc::Scheme::none) {
    std::printf("(no protection: the flip either landed harmlessly or silently "
                "corrupted the answer above)\n");
  }
  return 0;
}
