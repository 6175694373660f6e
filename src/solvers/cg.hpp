/// \file cg.hpp
/// \brief Conjugate Gradient over protected containers — the solver the
/// paper uses for every TeaLeaf time-step (§V-A).
///
/// All memory traffic goes through the protected kernels, so with non-trivial
/// schemes every access is integrity-checked (or range-guarded on
/// check-interval skip iterations). With the *None* schemes the templates
/// collapse to a plain CG, which is the measurement baseline.
#pragma once

#include <span>

#include "abft/protected_csr.hpp"
#include "abft/protected_vector.hpp"
#include "obs/solve_metrics.hpp"
#include "solvers/batch.hpp"
#include "solvers/types.hpp"

namespace abft::solvers {

/// Solve A u = b with (unpreconditioned) CG. \p u holds the initial guess on
/// entry and the solution on exit. \p Matrix is any protected matrix at
/// either index width. This is the one-column case of the lockstep
/// recurrence behind cg_solve_batch() (solvers/batch.hpp).
template <class Matrix, class VS>
SolveResult cg_solve(Matrix& a, ProtectedVector<VS>& b,
                     ProtectedVector<VS>& u, const SolveOptions& opts = {}) {
  SolveResult result;
  obs::SolveScope obs_scope("cg", &result);
  const detail::CgColumn<VS> col{&b, &u, opts.residual_history};
  detail::cg_lockstep<Matrix, VS>(a, std::span<const detail::CgColumn<VS>>(&col, 1), opts,
                                  &result);
  return result;
}

}  // namespace abft::solvers
