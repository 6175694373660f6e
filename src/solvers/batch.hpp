/// \file batch.hpp
/// \brief Conjugate Gradient in lockstep over k systems that share one
/// protected operator — the one CG recurrence behind both cg_solve() (k = 1)
/// and cg_solve_batch(), so the SpMM pass can amortize the matrix
/// verification over the whole batch.
///
/// Every column runs the same op sequence as a one-system solve — same
/// kernels, same fixed-order reductions, same convergence test, and every
/// norm of b committed before the first check decision — so a batched solve
/// is bit-identical to k sequential cg_solve() runs (the SpMM's guarded
/// column streams reproduce the full-check SpMV bit-for-bit on
/// clean-or-corrected data; see spmm()). What changes is the accounting: the
/// matrix region is verified once per SpMM pass instead of once per column
/// per pass, which is the whole point — the per-RHS protection overhead
/// falls toward the unprotected baseline as k grows.
///
/// Fault isolation: each column's vectors (b, u and the solver temporaries)
/// carry that request's own FaultLog and DuePolicy, so corruption in one
/// tenant's data is logged to — and policed by — that tenant alone.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <span>
#include <stdexcept>
#include <vector>

#include "abft/protected_kernels.hpp"
#include "abft/protected_multivector.hpp"
#include "obs/solve_metrics.hpp"
#include "solvers/types.hpp"

namespace abft::solvers {

/// Per-column residual histories of a batched solve (index = column).
using ResidualHistories = std::vector<std::vector<double>>;

namespace detail {

/// One system of a lockstep CG solve: the caller's b and u, and an optional
/// residual trace.
template <class VS>
struct CgColumn {
  ProtectedVector<VS>* b;
  ProtectedVector<VS>* u;
  std::vector<double>* history;
};

/// Unpreconditioned CG on every column in lockstep, writing column j's
/// outcome to results[j]. A column stops (converged, or broken down) on its
/// own and is left out of later passes; the solve runs until every column
/// has stopped or opts.max_iterations is hit.
///
/// Each iteration is two fused passes, after TeaLeaf's cg_calc_p / cg_calc_w
/// / cg_calc_ur: one spmv_columns() pass that first sets p = r + beta p
/// (from iteration 2 on; iteration 1's p is the initial r) and then forms
/// w = A p and p·w, and one cg_calc_ur() pass for u += alpha p, r -= alpha w
/// and the new r·r. Each column's vectors are checked 6 times a group per
/// iteration (r and p in the first pass; p, u, w and r in the second), and
/// the bits are those of the kernel-by-kernel recurrence spmv, dot, axpy,
/// axpy, dot, xpby.
template <class Matrix, class VS>
void cg_lockstep(Matrix& a, std::span<const CgColumn<VS>> cols, const SolveOptions& opts,
                 SolveResult* results) {
  const std::size_t k = cols.size();
  // The solve's bookkeeping lives in a stack arena (spilling to the heap only
  // for wide batches), so a one-column solve puts nothing on the heap but its
  // three temporaries and one reduction buffer: small buffers left between
  // them fragmented the heap and raised the TeaLeaf benchmark's peak RSS by
  // 13%.
  std::array<std::byte, 2048> arena;
  std::pmr::monotonic_buffer_resource mem(arena.data(), arena.size());
  std::pmr::vector<double> threshold(k, &mem), rr(k, 0.0, &mem), beta(k, 0.0, &mem),
      pw(k, 0.0, &mem);
  std::pmr::vector<SpmvColumn<VS>> pass(&mem);
  pass.reserve(k);
  const auto stopped = [&](std::size_t j) {
    return results[j].converged || results[j].breakdown;
  };

  // The committed-fault funnel for the adaptive policy: the shared matrix log
  // plus every column's own logs (deduplicated by pointer). All kernels
  // commit into these serially before each iteration's decision point, so
  // the decision inputs are deterministic at any thread count.
  std::pmr::vector<const FaultLog*> logs({a.fault_log()}, &mem);
  for (const auto& c : cols) {
    logs.push_back(c.u->fault_log());
    logs.push_back(c.b->fault_log());
  }
  const auto check_mode = [&](std::uint64_t iter) {
    if (opts.adaptive_policy != nullptr) {
      return opts.adaptive_policy->begin_iteration(
          iter, committed_fault_totals(logs.data(), logs.size()));
    }
    return opts.check_policy.mode_for_iteration(iter);
  };
  const auto record = [&](std::size_t j, double rr_j) {
    results[j].residual_norm = std::sqrt(rr_j);
    if (cols[j].history != nullptr) cols[j].history->push_back(results[j].residual_norm);
  };

  // Each system's temporaries, inheriting its log/policy from u, and its
  // slice of the one reduction buffer the fused passes share.
  struct Temporaries {
    ProtectedVector<VS> r, p, w;
    std::span<double> partials;
  };
  std::pmr::vector<Temporaries> tmp(&mem);
  tmp.reserve(k);
  for (const auto& c : cols) {
    const std::size_t n = c.u->size();
    tmp.push_back({ProtectedVector<VS>(n, c.u->fault_log(), c.u->due_policy()),
                   ProtectedVector<VS>(n, c.u->fault_log(), c.u->due_policy()),
                   ProtectedVector<VS>(n, c.u->fault_log(), c.u->due_policy()),
                   {}});
  }
  std::size_t nslots = 0;
  for (const auto& t : tmp) nslots = std::max(nslots, reduction_partials(t.r));
  std::vector<double> partials(k * nslots);
  for (std::size_t j = 0; j < k; ++j) tmp[j].partials = {partials.data() + j * nslots, nslots};

  // Every b's norm first: a fault in b is then committed before the
  // iteration-0 check decision reads the logs.
  for (std::size_t j = 0; j < k; ++j) {
    const double bnorm = norm2(*cols[j].b);
    threshold[j] = opts.tolerance * (bnorm > 0.0 ? bnorm : 1.0);
  }

  // r = b - A u ; p = r — one matrix verification for the batch.
  for (std::size_t j = 0; j < k; ++j) pass.push_back({cols[j].u, &tmp[j].w});
  spmv_columns<Matrix, VS>(a, pass, check_mode(0));
  std::size_t nactive = 0;
  for (std::size_t j = 0; j < k; ++j) {
    sub(*cols[j].b, tmp[j].w, tmp[j].r);
    copy(tmp[j].r, tmp[j].p);
    rr[j] = dot(tmp[j].r, tmp[j].r);
    record(j, rr[j]);
    results[j].converged = results[j].residual_norm <= threshold[j];
    if (!results[j].converged) ++nactive;
  }

  for (unsigned iter = 1; iter <= opts.max_iterations && nactive > 0; ++iter) {
    const CheckMode mode = check_mode(iter);
    // Pass 1: p = r + beta p, w = A p, p·w.
    pass.clear();
    for (std::size_t j = 0; j < k; ++j) {
      if (stopped(j)) continue;
      Temporaries& t = tmp[j];
      pass.push_back({&t.p, &t.w, iter > 1 ? &t.r : nullptr, beta[j], &pw[j], t.partials});
    }
    spmv_columns<Matrix, VS>(a, pass, mode);
    // Pass 2 per column: u += alpha p, r -= alpha w, r·r.
    for (std::size_t j = 0; j < k; ++j) {
      if (stopped(j)) continue;
      SolveResult& res = results[j];
      if (pw[j] == 0.0 || !std::isfinite(pw[j])) {  // breakdown (e.g. SDC damage)
        res.breakdown = true;
        --nactive;
        continue;
      }
      Temporaries& t = tmp[j];
      const double rr_new = cg_calc_ur(rr[j] / pw[j], t.p, t.w, *cols[j].u, t.r, t.partials);
      res.iterations = iter;
      record(j, rr_new);
      res.breakdown = !std::isfinite(rr_new);
      res.converged = !res.breakdown && res.residual_norm <= threshold[j];
      if (stopped(j)) {
        --nactive;
        continue;
      }
      beta[j] = rr_new / rr[j];
      rr[j] = rr_new;
    }
  }

  // End-of-solve sweep, once for the whole batch (the matrix is shared; with
  // check intervals > 1 this is what guarantees no corruption survives the
  // solve unnoticed, paper §VI-A2).
  if (opts.final_matrix_verify) a.verify_all();
}

}  // namespace detail

/// Solve A u_j = b_j for every column j with unpreconditioned CG in
/// lockstep. Each \p u column holds that request's initial guess on entry
/// and its solution on exit. Converged (or broken-down) columns are frozen
/// out of later SpMM passes; the batch runs until every column is done or
/// opts.max_iterations is hit. opts.residual_history is ignored (it has no
/// column dimension) — pass \p histories for per-column residual traces.
template <class Matrix, class VS>
std::vector<SolveResult> cg_solve_batch(Matrix& a, ProtectedMultiVector<VS>& b,
                                        ProtectedMultiVector<VS>& u,
                                        const SolveOptions& opts = {},
                                        ResidualHistories* histories = nullptr) {
  const std::size_t k = b.batch();
  if (u.batch() != k) {
    throw std::invalid_argument("cg_solve_batch: batch size mismatch");
  }
  std::vector<SolveResult> results(k);
  const auto obs_start = std::chrono::steady_clock::now();
  if (histories != nullptr) histories->assign(k, {});
  if (k == 0) return results;
  std::vector<detail::CgColumn<VS>> cols;
  cols.reserve(k);
  for (std::size_t j = 0; j < k; ++j) {
    cols.push_back({&b.column(j), &u.column(j),
                    histories != nullptr ? &(*histories)[j] : nullptr});
  }
  detail::cg_lockstep<Matrix, VS>(a, cols, opts, results.data());
  obs::record_batch_solve("cg-batch", results, obs_start);
  return results;
}

}  // namespace abft::solvers
