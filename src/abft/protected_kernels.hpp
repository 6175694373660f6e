/// \file protected_kernels.hpp
/// \brief Solver kernels over protected containers.
///
/// These are the three kernels the paper identifies as covering 98 % of
/// TeaLeaf's runtime — sparse matrix-vector product and the BLAS-1 vector
/// operations — rewritten to work on whole ECC codeword groups (paper §VI-C):
/// reads decode a group once, writes encode a whole group at a time, so
/// there are no read-modify-writes and no two threads ever write the same
/// codeword. SpMV/SpMM verify every x group once per pass, in a sweep ahead
/// of the row loop, and then gather x through side-effect-free masked loads
/// — the verify-then-masked-read contract the crc32c-tile matrix layout
/// already follows.
///
/// SpMV and SpMM are one format-generic pass driver, spmv_columns(): spmv is
/// its one-column call, spmm its k-column call. It drives the per-thread row
/// cursor published through MatrixTraits (abft/format_traits.hpp) and never
/// touches a container's internals, so one kernel serves ProtectedCsr,
/// ProtectedEll and ProtectedSell at either index width — and any future
/// format that supplies a cursor.
///
/// Error handling: outcomes are collected per operand in ErrorCaptures
/// during the OpenMP region and committed afterwards to each operand's own
/// FaultLog / DuePolicy (logging + optional UncorrectableError /
/// BoundsViolation) — corruption detected while decoding `b` is b's fault
/// event, never a's.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "abft/check_policy.hpp"
#include "abft/format_traits.hpp"
#include "abft/protected_multivector.hpp"
#include "abft/protected_vector.hpp"
#include "abft/spmv_chunk.hpp"

namespace abft {

namespace detail {

/// One operand's deferred outcomes and where they belong.
struct OperandCommit {
  const ErrorCapture* capture;
  FaultLog* log;
  DuePolicy policy;
};

/// Commit each operand's capture to its *own* fault log / DUE policy.
///
/// The BLAS-1 kernels decode several containers in one parallel region;
/// folding their outcomes into a single capture committed to one container
/// mis-attributed faults (corruption detected in `b` landed in `a`'s log and
/// was policed by `a`'s DuePolicy). Every log is updated before any policy
/// raises, so a throwing first operand cannot swallow a later operand's
/// accounting; when multiple operands hold a DUE, the first in argument
/// order raises.
inline void commit_each(std::initializer_list<OperandCommit> operands) {
  for (const auto& op : operands) op.capture->commit(op.log, DuePolicy::record_only);
  for (const auto& op : operands) op.capture->commit(nullptr, op.policy);
}

/// x-load callable over a verified protected vector: the stored value with
/// its redundancy bits masked off. No decode, no record, no cache — once the
/// pre-pass has corrected x in place, the masked storage is exactly the value
/// a decode would return (and for an uncorrectable group, the same masked
/// bits the decode would have handed back).
template <class VS>
struct MaskedXLoad {
  const double* x;
  template <class C>
  [[nodiscard]] double operator()(C c) const noexcept {
    return VS::mask(x[static_cast<std::size_t>(c)]);
  }
};

/// The chunk loop's x loader: the raw-gather marker for unprotected vectors
/// (which licenses the slab cursors' SIMD gather), masked loads otherwise.
template <class VS>
[[nodiscard]] auto x_loader(const ProtectedVector<VS>& x) noexcept {
  if constexpr (VS::kScheme == ecc::Scheme::none) {
    return RawXLoad{x.data()};
  } else {
    return MaskedXLoad<VS>{x.data()};
  }
}

/// Verify every codeword group of \p x exactly once, correcting in place and
/// recording into x's \p capture, which the whole team shares (its counters
/// add and its exemplars take the minimum, so the result is independent of
/// the thread split, as in dot()). Must be reached by every thread of the
/// enclosing parallel region: the orphaned worksharing loop
/// splits the groups in static kSpmvChunkRows-group blocks, and its implicit
/// barrier guarantees no thread gathers from x before x is clean. Each group
/// has exactly one verifier, so x's check count is x.groups() and each fault
/// is reported once at every thread count.
template <class VS>
void verify_x_pass(ProtectedVector<VS>& x, ErrorCapture& capture) {
  if constexpr (VS::kScheme != ecc::Scheme::none) {
    constexpr std::size_t G = VS::kGroup;
    const std::size_t ngroups = x.groups();
    const std::size_t nblocks = (ngroups + kSpmvChunkRows - 1) / kSpmvChunkRows;
#pragma omp for schedule(static)
    for (std::int64_t bi = 0; bi < static_cast<std::int64_t>(nblocks); ++bi) {
      const std::size_t g0 = static_cast<std::size_t>(bi) * kSpmvChunkRows;
      const std::size_t gend = std::min(g0 + kSpmvChunkRows, ngroups);
      for (std::size_t g = g0; g < gend; ++g) {
        double scratch[G];
        capture.record(Region::dense_vector, VS::decode_group(x.data() + g * G, scratch), g);
      }
      capture.add_checks(gend - g0);
    }
  }
}

/// One kSpmvChunkRows-row chunk \p ci of y = A x: the cursor's row sums,
/// encoded straight into y's codeword groups (a chunk holds whole groups, so
/// no two chunks write the same codeword).
template <class VS, class Cursor, class XLoad>
void spmv_chunk(Cursor& cursor, std::size_t ci, std::size_t nrows, std::size_t ngroups,
                CheckMode mode, const XLoad& xload, double* y) {
  constexpr std::size_t G = VS::kGroup;
  // SELL's chunk-local scatter assumes chunks stay at the shared granularity;
  // every current vector-group size (1/2/4) divides it.
  static_assert(kSpmvChunkRows % G == 0,
                "vector codeword group must divide the SpMV chunk size");
  const std::size_t row0 = ci * kSpmvChunkRows;  // < nrows: chunks tile the rows
  const std::size_t count = std::min(kSpmvChunkRows, nrows - row0);
  if constexpr (G == 1) {
    // Single-entry vector codewords: encode each row sum straight from the
    // register (no intermediate buffer; storage has no padding rows).
    cursor.accumulate(row0, count, mode, xload, [&](std::size_t i, double v) {
      VS::encode_group(&v, y + row0 + i);
    });
  } else {
    double sums[kSpmvChunkRows] = {};  // group-padding rows stay zero
    cursor.accumulate(row0, count, mode, xload,
                      [&](std::size_t i, double v) { sums[i] = v; });
    const std::size_t g0 = row0 / G;
    const std::size_t gend = std::min(g0 + kSpmvChunkRows / G, ngroups);
    for (std::size_t g = g0; g < gend; ++g) {
      VS::encode_group(sums + (g - g0) * G, y + g * G);
    }
  }
}

}  // namespace detail

/// One column of an SpMV pass: y = A * x over protected vectors.
template <class VS>
struct SpmvColumn {
  ProtectedVector<VS>* x;
  ProtectedVector<VS>* y;
};

/// The one SpMV pass driver: y_j = A * x_j for every listed column, in a
/// single parallel region that spmv() (one column) and spmm() (the active
/// columns of a batch) both run through.
///
/// Every x_j is verified once per pass by verify_x_pass, recording straight
/// into that column's own ErrorCapture (committed to x_j's FaultLog /
/// DuePolicy, so each column's log matches its independent spmv()'s
/// bit-for-bit). Then, per 64-row chunk, the *first* listed column runs at
/// \p mode and the rest stream the same chunk in CheckMode::bounds_only —
/// see spmm() for why that charges the matrix exactly one pass. The column
/// order is the caller's, so which column carries the full pass is a pure
/// function of the list, never of threading.
template <ProtectedMatrixType PM, class VS>
void spmv_columns(PM& a, std::span<const SpmvColumn<VS>> cols, CheckMode mode) {
  for (const auto& c : cols) {
    if (c.x->size() != a.ncols() || c.y->size() != a.nrows()) {
      throw std::invalid_argument("spmv: dimension mismatch");
    }
  }
  if (cols.empty()) return;
  const std::size_t nrows = a.nrows();
  const std::size_t nchunks = (nrows + detail::kSpmvChunkRows - 1) / detail::kSpmvChunkRows;
  ErrorCapture capture;  // matrix-region outcomes — one full pass's worth
  // One x capture per column (ErrorCapture is pinned, so sized once); the
  // lone column of spmv() needs no heap.
  ErrorCapture x_single;
  std::vector<ErrorCapture> x_many(cols.size() > 1 ? cols.size() : 0);
  ErrorCapture* const x_captures = cols.size() > 1 ? x_many.data() : &x_single;
  // Shared per-pass tile-decode arbitration for slab formats (empty for CSR).
  typename MatrixTraits<PM>::cursor_type::pass_state pass(a);

#pragma omp parallel
  {
    for (std::size_t j = 0; j < cols.size(); ++j) {
      detail::verify_x_pass(*cols[j].x, x_captures[j]);
    }
    ErrorCapture local;  // this thread's matrix outcomes
    {
      typename MatrixTraits<PM>::cursor_type cursor(a, &local, &pass);

#pragma omp for schedule(static)
      for (std::int64_t ci = 0; ci < static_cast<std::int64_t>(nchunks); ++ci) {
        // The first column's pass verifies (and corrects) this chunk's
        // matrix data, which is cache-hot for the guarded streams behind it.
        for (std::size_t j = 0; j < cols.size(); ++j) {
          detail::spmv_chunk<VS>(cursor, static_cast<std::size_t>(ci), nrows,
                                 cols[j].y->groups(), j == 0 ? mode : CheckMode::bounds_only,
                                 detail::x_loader(*cols[j].x), cols[j].y->data());
        }
      }
    }  // cursor destructor flushes its check counters
    capture.merge_from(local);
  }
  // As commit_each: every log is updated before any policy raises.
  capture.commit(a.fault_log(), DuePolicy::record_only);
  for (std::size_t j = 0; j < cols.size(); ++j) {
    x_captures[j].commit(cols[j].x->fault_log(), DuePolicy::record_only);
  }
  capture.commit(nullptr, a.due_policy());
  for (std::size_t j = 0; j < cols.size(); ++j) {
    x_captures[j].commit(nullptr, cols[j].x->due_policy());
  }
}

/// y = A * x with the requested per-access verification level, for any
/// protected matrix format — the one-column spmv_columns() pass.
///
/// In CheckMode::full every matrix element and structural entry touched is
/// verified (and corrected where the scheme allows). In
/// CheckMode::bounds_only the matrix checks are skipped and replaced by
/// range guards — row extents are validated against the container's bound
/// and column indices against ncols, exactly the segfault protection the
/// paper requires of skip iterations (§VI-A2). The x and y vectors are
/// always fully protected — they change every iteration, so their checks
/// cannot be deferred.
///
/// x is verified once per pass: a pre-pass sweep decodes every x codeword
/// group exactly once (correcting in place, one verifier thread per group),
/// and the barrier closing it hands a clean-or-corrected x to the row loop,
/// which gathers masked values with no per-access decode. x's log therefore
/// gains exactly x.groups() checks per call at any thread count, and a fault
/// in x is caught if it is present when the pass starts — including in groups
/// no row reads. A flip landing in x *during* the pass is not checked until
/// the next kernel that reads x, as with the crc32c-tile matrix layout.
///
/// Rows are processed in chunks of whole y codeword groups; the cursor owns
/// the per-row decode order, so each format keeps its natural memory access
/// pattern (CSR: row streams; ELL: unit-stride slab columns; SELL: rows of
/// each slice's slab, scattered through the permutation).
template <ProtectedMatrixType PM, class VS>
void spmv(PM& a, ProtectedVector<VS>& x, ProtectedVector<VS>& y,
          CheckMode mode = CheckMode::full) {
  const SpmvColumn<VS> col{&x, &y};
  spmv_columns(a, std::span<const SpmvColumn<VS>>(&col, 1), mode);
}

/// Y = A * X for a batch of k right-hand sides (SpMM), amortizing the matrix
/// verification over the batch — the spmv_columns() pass over the active
/// columns in column order.
///
/// Per 64-row chunk, the *first* active column runs at the requested check
/// mode — in CheckMode::full that decodes, verifies and (where the scheme
/// allows) corrects in place every matrix element, structure word and crc32c
/// tile the chunk touches. The remaining columns stream the same chunk in
/// CheckMode::bounds_only: masked loads plus range guards, exactly the
/// skip-iteration contract of §VI-A2. Values are stored plain, redundancy
/// lives in the index top bits, and corrections land in place before the
/// guarded columns run, so each guarded stream is bit-identical to a full
/// pass over the (clean-or-corrected) data: every column's y bits equal its
/// independent spmv()'s, while the matrix-region check accounting is that of
/// exactly ONE full pass — per SpMM call, at any thread count and any k.
/// (Data a full pass left uncorrectable stays dirty; a guarded column that
/// trips over its masked index records a bounds violation, again exactly as
/// a skip iteration would.)
///
/// Vector accounting keeps per-request isolation: each active x column is
/// verified once per call by the same pre-pass sweep as spmv() (x.groups()
/// checks per active column), into its own ErrorCapture committed to its own
/// FaultLog / DuePolicy. \p active (optional, size k, non-zero = solve)
/// masks converged columns out of the batch — neither read nor checked —
/// without disturbing the others.
template <ProtectedMatrixType PM, class VS>
void spmm(PM& a, ProtectedMultiVector<VS>& x, ProtectedMultiVector<VS>& y,
          CheckMode mode = CheckMode::full,
          const std::vector<std::uint8_t>* active = nullptr) {
  const std::size_t k = x.batch();
  if (y.batch() != k) throw std::invalid_argument("spmm: batch size mismatch");
  if (active != nullptr && active->size() != k) {
    throw std::invalid_argument("spmm: active mask size mismatch");
  }
  if (x.size() != a.ncols() || y.size() != a.nrows()) {
    throw std::invalid_argument("spmm: dimension mismatch");
  }
  std::vector<SpmvColumn<VS>> cols;
  for (std::size_t j = 0; j < k; ++j) {
    if (active == nullptr || (*active)[j] != 0) cols.push_back({&x.column(j), &y.column(j)});
  }
  spmv_columns<PM, VS>(a, cols, mode);
}

/// Dot product of two protected vectors (decodes each group once).
///
/// The reduction is a fixed-order two-level sum: each aligned block of
/// kDotBlockGroups codeword groups is summed serially into one partial, and
/// the partials are folded serially afterwards. The block an element falls in
/// — and therefore every rounding step — depends only on its index, so the
/// result is bit-identical at any thread count (an `omp reduction` combines
/// per-thread sums in whatever order threads finish).
template <class VS>
[[nodiscard]] double dot(ProtectedVector<VS>& a, ProtectedVector<VS>& b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: dimension mismatch");
  constexpr std::size_t G = VS::kGroup;
  constexpr std::size_t kDotBlockGroups = detail::kSpmvChunkRows;
  const std::size_t ngroups = a.groups();
  const std::size_t nblocks = (ngroups + kDotBlockGroups - 1) / kDotBlockGroups;
  ErrorCapture ca, cb;
  std::vector<double> partials(nblocks, 0.0);

#pragma omp parallel for schedule(static)
  for (std::int64_t bi = 0; bi < static_cast<std::int64_t>(nblocks); ++bi) {
    const std::size_t g0 = static_cast<std::size_t>(bi) * kDotBlockGroups;
    const std::size_t gend = std::min(g0 + kDotBlockGroups, ngroups);
    double acc = 0.0;
    for (std::size_t g = g0; g < gend; ++g) {
      double va[G], vb[G];
      const auto oa = VS::decode_group(a.data() + g * G, va);
      const auto ob = VS::decode_group(b.data() + g * G, vb);
      ca.record(Region::dense_vector, oa, g);
      cb.record(Region::dense_vector, ob, g);
      for (std::size_t e = 0; e < G; ++e) acc += va[e] * vb[e];
    }
    partials[static_cast<std::size_t>(bi)] = acc;
  }
  double sum = 0.0;
  for (const double p : partials) sum += p;
  ca.add_checks(ngroups);
  cb.add_checks(ngroups);
  detail::commit_each({{&ca, a.fault_log(), a.due_policy()},
                       {&cb, b.fault_log(), b.due_policy()}});
  return sum;
}

/// y += alpha * x, one decode of each input group and one encode of y.
template <class VS>
void axpy(double alpha, ProtectedVector<VS>& x, ProtectedVector<VS>& y) {
  if (x.size() != y.size()) throw std::invalid_argument("axpy: dimension mismatch");
  constexpr std::size_t G = VS::kGroup;
  const std::size_t ngroups = x.groups();
  ErrorCapture cx, cy;

#pragma omp parallel for schedule(static)
  for (std::int64_t g = 0; g < static_cast<std::int64_t>(ngroups); ++g) {
    double vx[G], vy[G];
    const auto ox = VS::decode_group(x.data() + static_cast<std::size_t>(g) * G, vx);
    const auto oy = VS::decode_group(y.data() + static_cast<std::size_t>(g) * G, vy);
    cx.record(Region::dense_vector, ox, static_cast<std::size_t>(g));
    cy.record(Region::dense_vector, oy, static_cast<std::size_t>(g));
    for (std::size_t e = 0; e < G; ++e) vy[e] += alpha * vx[e];
    VS::encode_group(vy, y.data() + static_cast<std::size_t>(g) * G);
  }
  cx.add_checks(ngroups);
  cy.add_checks(ngroups);
  detail::commit_each({{&cx, x.fault_log(), x.due_policy()},
                       {&cy, y.fault_log(), y.due_policy()}});
}

/// y = x + beta * y (CG direction update).
template <class VS>
void xpby(ProtectedVector<VS>& x, double beta, ProtectedVector<VS>& y) {
  if (x.size() != y.size()) throw std::invalid_argument("xpby: dimension mismatch");
  constexpr std::size_t G = VS::kGroup;
  const std::size_t ngroups = x.groups();
  ErrorCapture cx, cy;

#pragma omp parallel for schedule(static)
  for (std::int64_t g = 0; g < static_cast<std::int64_t>(ngroups); ++g) {
    double vx[G], vy[G];
    const auto ox = VS::decode_group(x.data() + static_cast<std::size_t>(g) * G, vx);
    const auto oy = VS::decode_group(y.data() + static_cast<std::size_t>(g) * G, vy);
    cx.record(Region::dense_vector, ox, static_cast<std::size_t>(g));
    cy.record(Region::dense_vector, oy, static_cast<std::size_t>(g));
    for (std::size_t e = 0; e < G; ++e) vy[e] = vx[e] + beta * vy[e];
    VS::encode_group(vy, y.data() + static_cast<std::size_t>(g) * G);
  }
  cx.add_checks(ngroups);
  cy.add_checks(ngroups);
  detail::commit_each({{&cx, x.fault_log(), x.due_policy()},
                       {&cy, y.fault_log(), y.due_policy()}});
}

/// dst = src (decode + re-encode; the write needs no prior read).
template <class VS>
void copy(ProtectedVector<VS>& src, ProtectedVector<VS>& dst) {
  if (src.size() != dst.size()) throw std::invalid_argument("copy: dimension mismatch");
  constexpr std::size_t G = VS::kGroup;
  const std::size_t ngroups = src.groups();
  ErrorCapture capture;

#pragma omp parallel for schedule(static)
  for (std::int64_t g = 0; g < static_cast<std::int64_t>(ngroups); ++g) {
    double v[G];
    const auto o = VS::decode_group(src.data() + static_cast<std::size_t>(g) * G, v);
    capture.record(Region::dense_vector, o, static_cast<std::size_t>(g));
    VS::encode_group(v, dst.data() + static_cast<std::size_t>(g) * G);
  }
  capture.add_checks(ngroups);
  // Only src is decoded (dst is written whole-group, no prior read), so the
  // single capture is already correctly attributed.
  capture.commit(src.fault_log(), src.due_policy());
}

/// y = alpha * x + beta * y (general two-term update).
template <class VS>
void axpby(double alpha, ProtectedVector<VS>& x, double beta, ProtectedVector<VS>& y) {
  if (x.size() != y.size()) throw std::invalid_argument("axpby: dimension mismatch");
  constexpr std::size_t G = VS::kGroup;
  const std::size_t ngroups = x.groups();
  ErrorCapture cx, cy;

#pragma omp parallel for schedule(static)
  for (std::int64_t g = 0; g < static_cast<std::int64_t>(ngroups); ++g) {
    double vx[G], vy[G];
    const auto ox = VS::decode_group(x.data() + static_cast<std::size_t>(g) * G, vx);
    const auto oy = VS::decode_group(y.data() + static_cast<std::size_t>(g) * G, vy);
    cx.record(Region::dense_vector, ox, static_cast<std::size_t>(g));
    cy.record(Region::dense_vector, oy, static_cast<std::size_t>(g));
    for (std::size_t e = 0; e < G; ++e) vy[e] = alpha * vx[e] + beta * vy[e];
    VS::encode_group(vy, y.data() + static_cast<std::size_t>(g) * G);
  }
  cx.add_checks(ngroups);
  cy.add_checks(ngroups);
  detail::commit_each({{&cx, x.fault_log(), x.due_policy()},
                       {&cy, y.fault_log(), y.due_policy()}});
}

/// r = a - b (residual assembly; the write needs no prior read of r).
template <class VS>
void sub(ProtectedVector<VS>& a, ProtectedVector<VS>& b, ProtectedVector<VS>& r) {
  if (a.size() != b.size() || a.size() != r.size()) {
    throw std::invalid_argument("sub: dimension mismatch");
  }
  constexpr std::size_t G = VS::kGroup;
  const std::size_t ngroups = a.groups();
  ErrorCapture ca, cb;

#pragma omp parallel for schedule(static)
  for (std::int64_t g = 0; g < static_cast<std::int64_t>(ngroups); ++g) {
    double va[G], vb[G];
    const auto oa = VS::decode_group(a.data() + static_cast<std::size_t>(g) * G, va);
    const auto ob = VS::decode_group(b.data() + static_cast<std::size_t>(g) * G, vb);
    ca.record(Region::dense_vector, oa, static_cast<std::size_t>(g));
    cb.record(Region::dense_vector, ob, static_cast<std::size_t>(g));
    for (std::size_t e = 0; e < G; ++e) va[e] -= vb[e];
    VS::encode_group(va, r.data() + static_cast<std::size_t>(g) * G);
  }
  ca.add_checks(ngroups);
  cb.add_checks(ngroups);
  // r is written whole-group without a prior read — no outcomes belong to it.
  detail::commit_each({{&ca, a.fault_log(), a.due_policy()},
                       {&cb, b.fault_log(), b.due_policy()}});
}

/// y[i] += s[i] * x[i] (pointwise fused multiply-add; Jacobi's D^-1 step).
template <class VS>
void pointwise_fma(ProtectedVector<VS>& s, ProtectedVector<VS>& x, ProtectedVector<VS>& y) {
  if (s.size() != x.size() || s.size() != y.size()) {
    throw std::invalid_argument("pointwise_fma: dimension mismatch");
  }
  constexpr std::size_t G = VS::kGroup;
  const std::size_t ngroups = s.groups();
  ErrorCapture cs, cx, cy;

#pragma omp parallel for schedule(static)
  for (std::int64_t g = 0; g < static_cast<std::int64_t>(ngroups); ++g) {
    double vs[G], vx[G], vy[G];
    const auto os = VS::decode_group(s.data() + static_cast<std::size_t>(g) * G, vs);
    const auto ox = VS::decode_group(x.data() + static_cast<std::size_t>(g) * G, vx);
    const auto oy = VS::decode_group(y.data() + static_cast<std::size_t>(g) * G, vy);
    cs.record(Region::dense_vector, os, static_cast<std::size_t>(g));
    cx.record(Region::dense_vector, ox, static_cast<std::size_t>(g));
    cy.record(Region::dense_vector, oy, static_cast<std::size_t>(g));
    for (std::size_t e = 0; e < G; ++e) vy[e] += vs[e] * vx[e];
    VS::encode_group(vy, y.data() + static_cast<std::size_t>(g) * G);
  }
  cs.add_checks(ngroups);
  cx.add_checks(ngroups);
  cy.add_checks(ngroups);
  detail::commit_each({{&cs, s.fault_log(), s.due_policy()},
                       {&cx, x.fault_log(), x.due_policy()},
                       {&cy, y.fault_log(), y.due_policy()}});
}

/// x[i] = value for i < size(); padding elements stay zero.
template <class VS>
void fill(ProtectedVector<VS>& x, double value) {
  constexpr std::size_t G = VS::kGroup;
  const std::size_t ngroups = x.groups();
  const std::size_t n = x.size();

#pragma omp parallel for schedule(static)
  for (std::int64_t g = 0; g < static_cast<std::int64_t>(ngroups); ++g) {
    double v[G];
    for (std::size_t e = 0; e < G; ++e) {
      const std::size_t i = static_cast<std::size_t>(g) * G + e;
      v[e] = i < n ? value : 0.0;
    }
    VS::encode_group(v, x.data() + static_cast<std::size_t>(g) * G);
  }
}

/// Euclidean norm.
template <class VS>
[[nodiscard]] double norm2(ProtectedVector<VS>& x) {
  return std::sqrt(dot(x, x));
}

}  // namespace abft
