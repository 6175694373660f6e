/// \file probe.hpp
/// \brief Per-layer probe of the traced run: times each module's public API
/// directly on the workload's own operator and vectors.
///
/// Every number here is recorded only after the call's output has been
/// checked: kernels against the plain sparse::spmv / scalar reference at
/// |y - y_ref| <= eps * max_row_len * max|A| * max|x|, codecs by decoding
/// clean codewords to "ok", containers by verify_all finding nothing.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "abft/abft.hpp"
#include "common.hpp"
#include "common/rng.hpp"
#include "ecc/crc32c.hpp"
#include "io/matrix_market.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "spans.hpp"

namespace perfbench {

/// Tolerance factor of the kernel check (the bound of the kokkos-kernels
/// SpMV unit test: eps times the largest possible row sum magnitude). The
/// protected vectors keep redundancy in low mantissa bits, so the protected
/// result may differ from the plain one in the last ~10 bits.
inline constexpr double kKernelEps = 1e-11;

/// Median per-call milliseconds of fn() over at least \p min_seconds and
/// \p min_reps calls (one untimed warm-up call first).
template <class Fn>
double median_call_ms(Fn&& fn, double min_seconds = 0.25, std::size_t min_reps = 5) {
  fn();
  std::vector<double> ms;
  repeat_for(min_seconds, min_reps, [&](std::size_t) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
  });
  return median(ms);
}

/// Kernel costs feeding the solver self-time model (ms per call).
struct KernelCosts {
  double spmv_full_ms = 0.0;
  double spmv_bounds_ms = 0.0;
  double spmm_ms = 0.0;  ///< one k-column SpMM, full check
  std::size_t spmm_k = 0;
  double dot_ms = 0.0;
  double axpy_ms = 0.0;
  double xpby_ms = 0.0;

  /// One unpreconditioned CG iteration: 1 spmv + 2 dot + 2 axpy + 1 xpby,
  /// with the SpMV at full check on a \p full_ratio share of iterations.
  [[nodiscard]] double cg_iteration_ms(double full_ratio) const {
    return full_ratio * spmv_full_ms + (1.0 - full_ratio) * spmv_bounds_ms +
           2.0 * dot_ms + 2.0 * axpy_ms + xpby_ms;
  }
  /// One batched-CG iteration of one column at batch width spmm_k.
  [[nodiscard]] double batch_column_iteration_ms() const {
    return spmm_ms / static_cast<double>(spmm_k) + 2.0 * dot_ms + 2.0 * axpy_ms + xpby_ms;
  }
};

/// Largest |y - y_ref| allowed for y = A x (see kKernelEps).
[[nodiscard]] inline double spmv_tolerance(const abft::sparse::CsrMatrix& a,
                                           const std::vector<double>& x) {
  std::size_t max_row = 0;
  for (std::size_t r = 0; r < a.nrows(); ++r) max_row = std::max<std::size_t>(max_row, a.row_nnz(r));
  double max_a = 0.0, max_x = 0.0;
  for (const double v : a.values()) max_a = std::max(max_a, std::fabs(v));
  for (const double v : x) max_x = std::max(max_x, std::fabs(v));
  return kKernelEps * static_cast<double>(max_row) * max_a * max_x;
}

[[nodiscard]] inline double max_abs_diff(const std::vector<double>& a,
                                         const std::vector<double>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

template <class VS>
std::vector<double> extract(abft::ProtectedVector<VS>& v) {
  std::vector<double> out(v.size());
  v.extract({out.data(), out.size()});
  return out;
}

/// The codec, container and kernel layers on one operator. \p src is the
/// workload's operator as assembled (CSR); Fmt/ES/SS/VS are its protection.
template <class Fmt, class ES, class SS, class VS>
KernelCosts probe_kernels(const abft::sparse::CsrMatrix& src, std::size_t spmm_k,
                          Report& rep) {
  using namespace abft;
  using PM = typename Fmt::template protected_matrix<std::uint32_t, ES, SS>;
  using PlainNone = typename Fmt::template protected_matrix<std::uint32_t, ElemNone,
                                                            schemes::StructNone<std::uint32_t>>;
  const auto plain = Fmt::template make_plain<std::uint32_t, ES>(src);
  const double nnz = static_cast<double>(src.nnz());
  const std::size_t n = src.nrows();
  KernelCosts k;
  FaultLog log;

  // --- ecc: SECDED decode and CRC32C over this operator's own bytes -------
  {
    Span span("ecc.secded_decode");
    std::vector<double> vals(src.values().begin(), src.values().end());
    std::vector<std::uint32_t> cols(src.cols().begin(), src.cols().end());
    for (std::size_t e = 0; e < vals.size(); ++e) ElemSecded::encode(vals[e], cols[e]);
    std::size_t bad = 0;
    double sink = 0.0;
    const double ms = median_call_ms([&] {
      for (std::size_t e = 0; e < vals.size(); ++e) {
        double v = 0.0;
        std::uint32_t c = 0;
        bad += ElemSecded::decode(vals[e], cols[e], v, c) != CheckOutcome::ok;
        sink += v;
      }
    });
    if (bad != 0 || !std::isfinite(sink)) rep.fail("ecc: SECDED decode of clean codewords");
    rep.metric("ecc.secded_decode_ns_per_word", ms * 1e6 / nnz, "ns");
  }
  PM pm = PM::from_plain(plain, &log, DuePolicy::record_only);
  {
    Span span("ecc.crc32c");
    const auto vals = pm.raw_values();
    const auto cols = pm.raw_cols();
    const double bytes = static_cast<double>(vals.size_bytes() + cols.size_bytes());
    std::uint32_t sink = 0;
    const double ms = median_call_ms([&] {
      sink ^= ecc::crc32c(vals.data(), vals.size_bytes());
      sink ^= ecc::crc32c(cols.data(), cols.size_bytes());
    });
    std::printf("probe: crc32c over %.0f operator bytes (checksum %08x)\n", bytes, sink);
    rep.metric("ecc.crc32c_ns_per_kib", ms * 1e6 / (bytes / 1024.0), "ns");
  }

  // --- abft containers -----------------------------------------------------
  {
    Span span("abft.encode");
    const double ms = median_call_ms([&] {
      auto fresh = PM::from_plain(plain, &log, DuePolicy::record_only);
      (void)fresh;
    });
    rep.metric("abft.encode_ns_per_nnz", ms * 1e6 / nnz, "ns");
  }
  {
    Span span("abft.verify_all");
    std::size_t found = 0;
    const double ms = median_call_ms([&] { found += pm.verify_all(); });
    if (found != 0 || log.corrected() + log.uncorrectable() != 0) {
      rep.fail("abft: verify_all flagged a clean operator");
    }
    rep.metric("abft.verify_all_ns_per_nnz", ms * 1e6 / nnz, "ns");
  }

  // --- abft kernels ----------------------------------------------------------
  Xoshiro256 rng(0x5eed);
  std::vector<double> xin(n);
  for (auto& v : xin) v = rng.uniform(-1.0, 1.0);
  ProtectedVector<VS> x(n, &log, DuePolicy::record_only), y(n, &log, DuePolicy::record_only);
  x.assign({xin.data(), n});
  const std::vector<double> xs = extract(x);  // what the protected x holds
  std::vector<double> yref(n);
  sparse::spmv(src, xs.data(), yref.data());
  const double tol = spmv_tolerance(src, xs);
  const auto check_y = [&](const char* what, const std::vector<double>& got) {
    const double err = max_abs_diff(got, yref);
    if (!(err <= tol)) {
      rep.fail(std::string("kernel ") + what + ": |y - y_ref| = " + std::to_string(err) +
               " > " + std::to_string(tol));
    }
  };

  {
    Span span("abft.spmv_full");
    k.spmv_full_ms = median_call_ms([&] { spmv(pm, x, y, CheckMode::full); });
    check_y("spmv full", extract(y));
  }
  {
    Span span("abft.spmv_bounds");
    k.spmv_bounds_ms = median_call_ms([&] { spmv(pm, x, y, CheckMode::bounds_only); });
    check_y("spmv bounds", extract(y));
  }
  {
    Span span("abft.spmm");
    ProtectedMultiVector<VS> xm(n), ym(n);
    for (std::size_t j = 0; j < spmm_k; ++j) {
      xm.add_column(&log, DuePolicy::record_only).assign({xin.data(), n});
      ym.add_column(&log, DuePolicy::record_only);
    }
    k.spmm_k = spmm_k;
    k.spmm_ms = median_call_ms([&] { spmm(pm, xm, ym, CheckMode::full); });
    for (std::size_t j = 0; j < spmm_k; ++j) check_y("spmm", extract(ym.column(j)));
    rep.metric("abft.spmm_ns_per_nnz_rhs", k.spmm_ms * 1e6 / (nnz * static_cast<double>(spmm_k)),
               "ns");
  }
  double none_ms = 0.0;
  {
    Span span("abft.spmv_none");
    auto none_plain = Fmt::template make_plain<std::uint32_t, ElemNone>(src);
    auto pn = PlainNone::from_plain(none_plain);
    ProtectedVector<VecNone> xn(n), yn(n);
    xn.assign({xs.data(), n});
    none_ms = median_call_ms([&] { spmv(pn, xn, yn, CheckMode::full); });
    check_y("spmv none", extract(yn));
  }
  rep.metric("abft.spmv_full_ns_per_nnz", k.spmv_full_ms * 1e6 / nnz, "ns");
  rep.metric("abft.spmv_bounds_ns_per_nnz", k.spmv_bounds_ms * 1e6 / nnz, "ns");
  rep.metric("abft.spmv_overhead_x", k.spmv_full_ms / none_ms, "x");
  const double spmv_bytes = static_cast<double>(
      pm.raw_values().size_bytes() + pm.raw_cols().size_bytes() +
      pm.raw_structure().size_bytes() + x.raw().size_bytes() + y.raw().size_bytes());
  rep.metric("abft.spmv_gbps_computed", spmv_bytes / (k.spmv_full_ms * 1e-3) / 1e9, "GB/s");
  std::printf("probe: spmv bytes (computed from array sizes) %.0f, none-scheme spmv %.4f ms\n",
              spmv_bytes, none_ms);

  {
    Span span("abft.blas1");
    ProtectedVector<VS> a(n, &log, DuePolicy::record_only), b(n, &log, DuePolicy::record_only);
    a.assign({xin.data(), n});
    b.assign({xin.data(), n});
    const auto as = extract(a);
    double want = 0.0;
    for (const double v : as) want += v * v;
    double got = 0.0;
    k.dot_ms = median_call_ms([&] { got = dot(a, b); });
    if (!(std::fabs(got - want) <= kKernelEps * static_cast<double>(n))) {
      rep.fail("kernel dot: " + std::to_string(got) + " vs " + std::to_string(want));
    }
    // axpy with alpha 0 and xpby with beta 1 leave y's value unchanged, so
    // repeated timed calls keep a checkable result.
    k.axpy_ms = median_call_ms([&] { axpy(0.0, a, b); });
    k.xpby_ms = median_call_ms([&] { xpby(a, 0.0, b); });
    if (max_abs_diff(extract(b), as) > kKernelEps) rep.fail("kernel axpy/xpby result");
  }
  rep.metric("abft.dot_ns_per_elem", k.dot_ms * 1e6 / static_cast<double>(n), "ns");
  rep.metric("abft.axpy_ns_per_elem", k.axpy_ms * 1e6 / static_cast<double>(n), "ns");
  if (log.corrected() + log.uncorrectable() != 0) rep.fail("probe: faults on clean data");
  return k;
}

/// io: write \p a as Matrix Market and read it back; returns MB/s of the read.
inline double probe_mtx_read(const abft::sparse::CsrMatrix& a, const std::string& path,
                             Report& rep) {
  abft::io::write_matrix_market(path, a);
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  const double mb = static_cast<double>(f.tellg()) / 1e6;
  abft::io::LoadedMatrix back;
  const double ms = median_call_ms(
      [&] {
        Span span("io.read_matrix_market");
        back = abft::io::read_matrix_market(path);
      },
      0.5, 3);
  if (back.nnz() != a.nnz() || back.nrows() != a.nrows()) rep.fail("io: mtx round trip");
  return mb / (ms * 1e-3);
}

/// sparse: COO -> CSR assembly of \p a's triplets (ms per assembly).
inline double probe_coo_assembly(const abft::sparse::CsrMatrix& a, Report& rep) {
  abft::sparse::Coo<std::uint32_t> coo(a.nrows(), a.ncols());
  coo.reserve(a.nnz());
  for (std::size_t r = 0; r < a.nrows(); ++r) {
    for (auto e = a.row_ptr()[r]; e < a.row_ptr()[r + 1]; ++e) {
      coo.add(r, a.cols()[e], a.values()[e]);
    }
  }
  abft::sparse::CsrMatrix back;
  const double ms = median_call_ms([&] {
    Span span("sparse.coo_to_csr");
    back = coo.to_csr();
  });
  if (back.nnz() != a.nnz()) rep.fail("sparse: COO assembly nnz");
  return ms;
}

}  // namespace perfbench
