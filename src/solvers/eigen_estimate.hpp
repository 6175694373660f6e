/// \file eigen_estimate.hpp
/// \brief Spectral-bound estimation for the Chebyshev/PPCG solvers.
///
/// TeaLeaf estimates the operator's extreme eigenvalues (from CG's Lanczos
/// coefficients) before switching to Chebyshev iteration; we implement the
/// standalone power-iteration equivalent on the protected kernels.
#pragma once

#include <cmath>
#include <cstdint>

#include "abft/protected_csr.hpp"
#include "abft/protected_kernels.hpp"
#include "abft/protected_vector.hpp"
#include "common/rng.hpp"

namespace abft::solvers {

/// Estimated extreme eigenvalues of an SPD operator.
struct SpectralBounds {
  double lambda_min = 0.0;
  double lambda_max = 0.0;
};

/// v *= s (block-wise scale helper).
template <class VS>
void scale_in_place(ProtectedVector<VS>& v, double s) {
  abft::detail::map(v, [s](double vv) { return vv * s; }, v);
}

/// w = s*v - w (helper for the shifted power iteration).
template <class VS>
void xpby_scaled(ProtectedVector<VS>& v, double s, ProtectedVector<VS>& w) {
  abft::detail::map(w, [s](double vv, double vw) { return s * vv - vw; }, v, w);
}

/// Power iteration for lambda_max, then shifted power iteration on
/// (lambda_max I - A) for lambda_min. Deterministic in \p seed.
template <class VS, class Matrix>
[[nodiscard]] SpectralBounds estimate_spectral_bounds(Matrix& a,
                                                      unsigned iterations = 50,
                                                      std::uint64_t seed = 42) {
  const std::size_t n = a.nrows();
  ProtectedVector<VS> v(n), w(n);
  Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < n; ++i) v.store(i, rng.uniform(0.5, 1.5));

  // lambda_max via power iteration with Rayleigh quotient.
  double lambda_max = 0.0;
  for (unsigned it = 0; it < iterations; ++it) {
    const double nv = norm2(v);
    if (nv == 0.0) break;
    scale_in_place(v, 1.0 / nv);
    spmv(a, v, w);
    lambda_max = dot(v, w);
    copy(w, v);
  }

  // lambda_min via power iteration on the shifted operator s I - A, whose
  // dominant eigenvalue is s - lambda_min.
  const double shift = lambda_max * 1.01 + 1e-12;
  for (std::size_t i = 0; i < n; ++i) v.store(i, rng.uniform(0.5, 1.5));
  double mu = 0.0;
  for (unsigned it = 0; it < iterations; ++it) {
    const double nv = norm2(v);
    if (nv == 0.0) break;
    scale_in_place(v, 1.0 / nv);
    spmv(a, v, w);             // w = A v
    xpby_scaled(v, shift, w);  // w = shift*v - w
    mu = dot(v, w);
    copy(w, v);
  }
  return {shift - mu, lambda_max};
}

}  // namespace abft::solvers
