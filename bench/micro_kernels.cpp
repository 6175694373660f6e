/// \file micro_kernels.cpp
/// \brief Kernel-level throughput per protection scheme: isolates the cost
/// of the three kernels the paper says dominate TeaLeaf's runtime (SpMV, dot
/// product, vector updates) so the figure-level overheads can be attributed;
/// the crc32c BLAS-1 legs run under both the software and hardware CRC32C.
/// BM_CgIteration times one whole CG iteration, kernel by kernel against the
/// two fused passes, so the fusion's gain is measured inside one binary.
/// Also benches the GroupReader stencil cache (paper §VI-C ablation).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <span>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "abft/abft.hpp"
#include "common/rng.hpp"
#include "sparse/generators.hpp"
#include "sparse/transform.hpp"

namespace {

using namespace abft;

constexpr std::size_t kGrid = 256;  // 65k rows, ~327k nnz

template <class ES, class RS, class VS>
struct SpmvFixture {
  sparse::CsrMatrix a;
  ProtectedCsr<std::uint32_t, ES, RS> pa;
  ProtectedVector<VS> x, y;

  SpmvFixture() {
    a = sparse::laplacian_2d(kGrid, kGrid);
    if constexpr (ES::kMinRowNnz > 1) a = sparse::pad_rows_to_min_nnz(a, ES::kMinRowNnz);
    pa = ProtectedCsr<std::uint32_t, ES, RS>::from_csr(a);
    x = ProtectedVector<VS>(a.ncols());
    y = ProtectedVector<VS>(a.nrows());
    Xoshiro256 rng(1);
    for (std::size_t i = 0; i < x.size(); ++i) x.store(i, rng.uniform(-1, 1));
  }
};

template <class ES, class RS, class VS>
void BM_Spmv(benchmark::State& state) {
  static SpmvFixture<ES, RS, VS> f;
  const CheckMode mode = state.range(0) != 0 ? CheckMode::full : CheckMode::bounds_only;
  for (auto _ : state) {
    spmv(f.pa, f.x, f.y, mode);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * f.a.nnz()));
}

#define SPMV_BENCH(name, ES, RS, VS)                                       \
  BENCHMARK(BM_Spmv<ES, RS, VS>)                                           \
      ->Name("BM_Spmv/" name)                                              \
      ->Arg(1)                                                             \
      ->Arg(0)                                                             \
      ->Unit(benchmark::kMicrosecond);

SPMV_BENCH("none", ElemNone, RowNone, VecNone)
SPMV_BENCH("sed", ElemSed, RowSed, VecNone)
SPMV_BENCH("secded64", ElemSecded, RowSecded64, VecNone)
SPMV_BENCH("crc32c", ElemCrc32c, RowCrc32c, VecNone)
#undef SPMV_BENCH

/// Runs a BLAS-1 bench body at the CRC32C kernel \p impl (the crc32c legs run
/// once per kernel; the hardware leg is skipped with a notice without SSE4.2).
template <class Body>
void at_crc_impl(benchmark::State& state, ecc::CrcImpl impl, const Body& body) {
  if (impl == ecc::CrcImpl::hardware && !ecc::crc32c_hw_available()) {
    state.SkipWithError("SSE4.2 unavailable");
    return;
  }
  ecc::set_crc32c_impl(impl);
  body();
  ecc::set_crc32c_impl(ecc::CrcImpl::auto_detect);
}

template <class VS, ecc::CrcImpl Impl = ecc::CrcImpl::auto_detect>
void BM_Dot(benchmark::State& state) {
  const std::size_t n = kGrid * kGrid;
  static ProtectedVector<VS> a(n), b(n);
  at_crc_impl(state, Impl, [&] {
    fill(a, 1.5);
    fill(b, 0.75);
    for (auto _ : state) {
      benchmark::DoNotOptimize(dot(a, b));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
  });
}

template <class VS, ecc::CrcImpl Impl = ecc::CrcImpl::auto_detect>
void BM_Axpy(benchmark::State& state) {
  const std::size_t n = kGrid * kGrid;
  static ProtectedVector<VS> x(n), y(n);
  at_crc_impl(state, Impl, [&] {
    fill(x, 1.0);
    fill(y, 2.0);
    for (auto _ : state) {
      axpy(1e-9, x, y);
      benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
  });
}

/// CG's direction update p = r + beta * p.
template <class VS, ecc::CrcImpl Impl = ecc::CrcImpl::auto_detect>
void BM_Xpby(benchmark::State& state) {
  const std::size_t n = kGrid * kGrid;
  static ProtectedVector<VS> x(n), y(n);
  at_crc_impl(state, Impl, [&] {
    fill(x, 1.0);
    fill(y, 2.0);
    for (auto _ : state) {
      xpby(x, 0.5, y);
      benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
  });
}

#define BLAS1_BENCH(fn)                                                              \
  BENCHMARK(fn<VecNone>)->Name(#fn "/none")->Unit(benchmark::kMicrosecond);          \
  BENCHMARK(fn<VecSed>)->Name(#fn "/sed")->Unit(benchmark::kMicrosecond);            \
  BENCHMARK(fn<VecSecded64>)->Name(#fn "/secded64")->Unit(benchmark::kMicrosecond);  \
  BENCHMARK(fn<VecSecded128>)->Name(#fn "/secded128")->Unit(benchmark::kMicrosecond); \
  BENCHMARK(fn<VecCrc32c, ecc::CrcImpl::software>)                                   \
      ->Name(#fn "/crc32c/sw")                                                       \
      ->Unit(benchmark::kMicrosecond);                                               \
  BENCHMARK(fn<VecCrc32c, ecc::CrcImpl::hardware>)                                   \
      ->Name(#fn "/crc32c/hw")                                                       \
      ->Unit(benchmark::kMicrosecond);

BLAS1_BENCH(BM_Dot)
BLAS1_BENCH(BM_Axpy)
BLAS1_BENCH(BM_Xpby)
#undef BLAS1_BENCH

/// One CG iteration on a 224^2 5-point operator in ELL at 1 thread: the
/// kernel-by-kernel sequence (xpby, spmv, dot, axpy, axpy, dot) against the
/// two fused passes (spmv_columns with the direction update and p·w, then
/// cg_calc_ur). Fixed small alpha and beta keep the vectors bounded over any
/// number of repetitions, so the timing never meets subnormals.
template <class ES, class SS, class VS, bool Fused>
void BM_CgIteration(benchmark::State& state) {
  using PM = EllFormat::protected_matrix<std::uint32_t, ES, SS>;
  struct Fixture {
    PM a;
    ProtectedVector<VS> u, r, p, w;
    std::vector<double> partials;
    Fixture() {
      constexpr std::size_t kCgGrid = 224;
      const auto csr = sparse::laplacian_2d(kCgGrid, kCgGrid);
      a = PM::from_plain(EllFormat::make_plain<std::uint32_t, ES>(csr));
      const std::size_t n = csr.nrows();
      u = ProtectedVector<VS>(n);
      r = ProtectedVector<VS>(n);
      p = ProtectedVector<VS>(n);
      w = ProtectedVector<VS>(n);
      Xoshiro256 rng(5);
      for (std::size_t i = 0; i < n; ++i) r.store(i, rng.uniform(-1, 1));
      copy(r, p);
      partials.resize(reduction_partials(r));
    }
  };
  static Fixture f;
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
#endif
  constexpr double kAlpha = 1e-9, kBeta = 0.5;
  for (auto _ : state) {
    double pw = 0.0, rr = 0.0;
    if constexpr (Fused) {
      const SpmvColumn<VS> col{&f.p, &f.w, &f.r, kBeta, &pw, f.partials};
      spmv_columns(f.a, std::span<const SpmvColumn<VS>>(&col, 1), CheckMode::full);
      rr = cg_calc_ur(kAlpha, f.p, f.w, f.u, f.r, f.partials);
    } else {
      xpby(f.r, kBeta, f.p);
      spmv(f.a, f.p, f.w);
      pw = dot(f.p, f.w);
      axpy(kAlpha, f.p, f.u);
      axpy(-kAlpha, f.w, f.r);
      rr = dot(f.r, f.r);
    }
    benchmark::DoNotOptimize(pw);
    benchmark::DoNotOptimize(rr);
    benchmark::ClobberMemory();
  }
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * f.r.size()));
}

#define CG_ITERATION_BENCH(name, ES, SS, VS)                      \
  BENCHMARK(BM_CgIteration<ES, SS, VS, false>)                   \
      ->Name("BM_CgIteration/" name "/unfused")                  \
      ->Unit(benchmark::kMicrosecond);                           \
  BENCHMARK(BM_CgIteration<ES, SS, VS, true>)                    \
      ->Name("BM_CgIteration/" name "/fused")                    \
      ->Unit(benchmark::kMicrosecond);

CG_ITERATION_BENCH("none", ElemNone, schemes::StructNone<std::uint32_t>, VecNone)
CG_ITERATION_BENCH("crc32c", ElemCrc32cTile, schemes::StructCrc32c<std::uint32_t>, VecCrc32c)
#undef CG_ITERATION_BENCH

/// GroupReader ablation: sequential scans through a CRC-grouped vector with
/// different cache sizes — Slots=1 thrashes under the 5-point stencil's
/// three row streams, Slots=8 (the kernel default) does not.
template <std::size_t Slots>
void BM_GroupReaderStencil(benchmark::State& state) {
  const std::size_t nx = kGrid, n = nx * nx;
  static ProtectedVector<VecCrc32c> v(n);
  fill(v, 1.0);
  for (auto _ : state) {
    double sum = 0.0;
    GroupReader<VecCrc32c, Slots> reader(v);
    for (std::size_t j = 1; j + 1 < nx; ++j) {
      for (std::size_t i = 1; i + 1 < nx; ++i) {
        const std::size_t c = j * nx + i;
        sum += reader.get(c - nx) + reader.get(c - 1) + reader.get(c) +
               reader.get(c + 1) + reader.get(c + nx);
      }
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * 5 * (nx - 2) * (nx - 2)));
}

BENCHMARK(BM_GroupReaderStencil<1>)
    ->Name("BM_GroupReaderStencil/slots:1")
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_GroupReaderStencil<2>)
    ->Name("BM_GroupReaderStencil/slots:2")
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_GroupReaderStencil<8>)
    ->Name("BM_GroupReaderStencil/slots:8")
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
