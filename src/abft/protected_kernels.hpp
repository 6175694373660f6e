/// \file protected_kernels.hpp
/// \brief Solver kernels over protected containers.
///
/// These are the three kernels the paper identifies as covering 98 % of
/// TeaLeaf's runtime — sparse matrix-vector product and the BLAS-1 vector
/// operations — rewritten to work on whole ECC codeword groups (paper §VI-C).
/// Every vector pass has one shape: per block of kVecRunGroups codeword
/// groups it checks each operand's block with one check-only run-codec call
/// (vector_schemes.hpp; only groups that fail the check go through
/// decode_group's repair and record), computes on the masked storage, which
/// is then exactly the logical values, into a block-local buffer, and
/// encodes that output block with one run call. So there are no
/// read-modify-writes and no two threads ever write the same codeword.
/// SpMV/SpMM verify every x group once per pass the same way, in a sweep
/// ahead of the row loop, and then gather x through side-effect-free masked
/// loads — the verify-then-masked-read contract the crc32c-tile matrix
/// layout already follows.
///
/// SpMV and SpMM are one format-generic pass driver, spmv_columns(): spmv is
/// its one-column call, spmm its k-column call. It drives the per-thread row
/// cursor published through MatrixTraits (abft/format_traits.hpp) and never
/// touches a container's internals, so one kernel serves ProtectedCsr and
/// ProtectedSell (which also holds ELL) at either index width — and any
/// future format that supplies a cursor.
///
/// Reductions have one order everywhere: partials of kReduceLen (64)
/// elements, each summed serially in index order, folded in index order
/// (product_partials / fold). dot(), the x·y an SpMV pass can add per chunk,
/// and cg_calc_ur()'s r·r all use it, so a fused dot equals dot() on the
/// stored vectors bit for bit, at every thread count and in every format.
///
/// CG runs each iteration as two fused passes, after TeaLeaf's cg_calc_p /
/// cg_calc_w / cg_calc_ur: spmv_columns() with a column's optional direction
/// update (p = r + beta p, ahead of the product) and x·y, then cg_calc_ur().
///
/// Error handling: outcomes are collected per operand in ErrorCaptures
/// during the OpenMP region and committed afterwards to each operand's own
/// FaultLog / DuePolicy (logging + optional UncorrectableError /
/// BoundsViolation) — corruption detected while decoding `b` is b's fault
/// event, never a's.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
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
/// bits the decode would have handed back). VecNone's mask is the identity,
/// so one loader serves every scheme.
template <class VS>
struct MaskedXLoad {
  const double* x;
  template <class C>
  [[nodiscard]] double operator()(C c) const noexcept {
    return VS::mask(x[static_cast<std::size_t>(c)]);
  }
};

static_assert(kSpmvChunkRows == kVecRunGroups,
              "a vector block and an SpMV chunk share the 64-entry granularity");

/// One block's worth of logical values of a \p VS vector.
template <class VS>
using Block = double[kVecRunGroups * VS::kGroup];

/// Blocks of kVecRunGroups codeword groups covering \p ngroups groups.
[[nodiscard]] inline std::size_t blocks(std::size_t ngroups) noexcept {
  return (ngroups + kVecRunGroups - 1) / kVecRunGroups;
}

/// Check \p n groups of \p v from group \p g0 with one check-only run call;
/// each failed group then goes through decode_group, which repairs it in
/// place, and its outcome is recorded in \p capture. Afterwards the logical
/// values of every group are its masked storage (VS::mask) — the
/// verify-then-masked-read contract of x_pass, with no buffer to fill.
template <class VS>
void check_block(ProtectedVector<VS>& v, std::size_t g0, std::size_t n,
                 ErrorCapture& capture) noexcept {
  if constexpr (VS::kScheme != ecc::Scheme::none) {
    constexpr std::size_t G = VS::kGroup;
    double* const storage = v.data() + g0 * G;
    for (std::uint64_t failed = VS::decode_run(storage, nullptr, n); failed != 0;
         failed &= failed - 1) {
      const auto i = static_cast<std::size_t>(std::countr_zero(failed));
      double scratch[G];
      capture.record(Region::dense_vector, VS::decode_group(storage + i * G, scratch),
                     g0 + i);
    }
  }
}

/// Where a kernel puts the new logical values of \p v's block at group
/// \p g0: \p buf, or VecNone's storage itself.
template <class VS>
double* write_block(ProtectedVector<VS>& v, std::size_t g0, double* buf) noexcept {
  if constexpr (VS::kScheme == ecc::Scheme::none) {
    return v.data() + g0;
  } else {
    return buf;
  }
}

/// Encode the \p n groups write_block() handed out as \p out into \p v from
/// group \p g0 with one run call (nothing to do for VecNone).
template <class VS>
void encode_block(ProtectedVector<VS>& v, std::size_t g0, std::size_t n,
                  const double* out) noexcept {
  if constexpr (VS::kScheme != ecc::Scheme::none) {
    VS::encode_run(out, v.data() + g0 * VS::kGroup, n);
  }
}

/// Run `body(g0, n)` for every block of an \p ngroups-group vector pass
/// (first group g0, n groups), thread-parallel over static block ranges.
template <class Body>
void for_each_block(std::size_t ngroups, const Body& body) {
  const std::size_t nblocks = blocks(ngroups);
#pragma omp parallel for schedule(static)
  for (std::int64_t bi = 0; bi < static_cast<std::int64_t>(nblocks); ++bi) {
    const std::size_t g0 = static_cast<std::size_t>(bi) * kVecRunGroups;
    body(g0, std::min(kVecRunGroups, ngroups - g0));
  }
}

/// Elements per reduction partial: one SpMV chunk's rows.
inline constexpr std::size_t kReduceLen = kSpmvChunkRows;
/// Partials the reduction helper sums side by side.
inline constexpr std::size_t kReduceLanes = 4;

/// partials[q] = the serial, index-order sum of mask(a[e]) * mask(b[e]) over
/// e in [q * kReduceLen, (q + 1) * kReduceLen) ∩ [0, n): the one reduction
/// order of the library. kReduceLanes partials are summed side by side —
/// their chains are independent, so the adds overlap while each partial keeps
/// its serial order.
template <class VS>
void product_partials(const double* a, const double* b, std::size_t n,
                      double* partials) noexcept {
  constexpr std::size_t L = kReduceLen;
  std::size_t q = 0;
  for (; (q + kReduceLanes) * L <= n; q += kReduceLanes) {
    double acc[kReduceLanes] = {};
    for (std::size_t e = 0; e < L; ++e) {
      for (std::size_t k = 0; k < kReduceLanes; ++k) {
        acc[k] += VS::mask(a[(q + k) * L + e]) * VS::mask(b[(q + k) * L + e]);
      }
    }
    std::copy_n(acc, kReduceLanes, partials + q);
  }
  for (; q * L < n; ++q) {
    double acc = 0.0;
    for (std::size_t e = q * L; e < std::min((q + 1) * L, n); ++e) {
      acc += VS::mask(a[e]) * VS::mask(b[e]);
    }
    partials[q] = acc;
  }
}

/// The partials folded serially in index order.
[[nodiscard]] inline double fold(std::span<const double> partials) noexcept {
  double sum = 0.0;
  for (const double p : partials) sum += p;
  return sum;
}

/// Run `body(g0, n)` for every reduction span (kReduceLanes whole partials)
/// of an \p ngroups-group vector pass, thread-parallel over static spans.
template <class VS, class Body>
void for_each_span(std::size_t ngroups, const Body& body) {
  constexpr std::size_t S = kReduceLanes * kReduceLen / VS::kGroup;
  const std::size_t nspans = (ngroups + S - 1) / S;
#pragma omp parallel for schedule(static)
  for (std::int64_t si = 0; si < static_cast<std::int64_t>(nspans); ++si) {
    const std::size_t g0 = static_cast<std::size_t>(si) * S;
    body(g0, std::min(S, ngroups - g0));
  }
}

/// Run `f(g0, n)` over the blocks of kVecRunGroups groups that make up the
/// \p n groups from \p g0 (a span, for the run codec).
template <class F>
void for_each_run(std::size_t g0, std::size_t n, const F& f) {
  for (std::size_t s = 0; s < n; s += kVecRunGroups) f(g0 + s, std::min(kVecRunGroups, n - s));
}

/// The one element-wise BLAS-1 pass: out[i] = f(in[i]...). Per block, each
/// input is checked with one check-only run call into its own capture, f
/// runs on the masked storage into a block buffer, and out's block is
/// encoded with one run call. out is written whole-group with no prior read,
/// so it is checked only when it is also an input. Every input's log gains
/// out.groups() checks, and the inputs commit in argument order (see
/// commit_each).
template <class VS, class F, class... In>
void map(ProtectedVector<VS>& out, const F& f, In&... in) {
  constexpr std::size_t G = VS::kGroup;
  const std::size_t ngroups = out.groups();
  std::array<ErrorCapture, sizeof...(In)> captures;
  for_each_block(ngroups, [&](std::size_t g0, std::size_t n) {
    std::size_t i = 0;
    (check_block(in, g0, n, captures[i++]), ...);
    Block<VS> buf;
    double* const o = write_block(out, g0, buf);
    [&](const auto*... v) {
#pragma omp simd
      for (std::size_t e = 0; e < n * G; ++e) o[e] = f(VS::mask(v[e])...);
    }((in.data() + g0 * G)...);
    encode_block(out, g0, n, o);
  });
  for (auto& c : captures) c.add_checks(ngroups);
  std::size_t i = 0;
  commit_each({OperandCommit{&captures[i++], in.fault_log(), in.due_policy()}...});
}

/// Verify every codeword group of \p x exactly once, correcting in place and
/// recording into x's \p cx, which the whole team shares (its counters add
/// and its exemplars take the minimum, so the result is independent of the
/// thread split). With \p r set it is TeaLeaf's cg_calc_p as well: per block,
/// r's and x's groups are checked once each (r's into \p cr), x = r + beta x
/// is computed on the masked values — xpby(r, beta, x)'s bits — and encoded
/// with one run call. Must be reached by every thread of the enclosing
/// parallel region: the orphaned worksharing loop splits the groups in
/// static blocks, and its implicit barrier guarantees no thread gathers from
/// x before x is clean (and updated). Each group has exactly one verifier, so
/// x's check count (and r's) is x.groups() and each fault is reported once
/// at every thread count.
template <class VS>
void x_pass(ProtectedVector<VS>& x, ErrorCapture& cx, ProtectedVector<VS>* r, double beta,
            ErrorCapture& cr) {
  constexpr std::size_t G = VS::kGroup;
  if (VS::kScheme == ecc::Scheme::none && r == nullptr) return;
  const std::size_t ngroups = x.groups();
#pragma omp for schedule(static)
  for (std::int64_t bi = 0; bi < static_cast<std::int64_t>(blocks(ngroups)); ++bi) {
    const std::size_t g0 = static_cast<std::size_t>(bi) * kVecRunGroups;
    const std::size_t n = std::min(kVecRunGroups, ngroups - g0);
    cx.add_checks(n);
    if (r == nullptr) {
      check_block(x, g0, n, cx);
      continue;
    }
    check_block(*r, g0, n, cr);
    check_block(x, g0, n, cx);
    cr.add_checks(n);
    Block<VS> buf;
    double* const o = write_block(x, g0, buf);
    const double* const vr = r->data() + g0 * G;
    const double* const vx = x.data() + g0 * G;
#pragma omp simd
    for (std::size_t e = 0; e < n * G; ++e) o[e] = VS::mask(vr[e]) + beta * VS::mask(vx[e]);
    encode_block(x, g0, n, o);
  }
}

/// One kSpmvChunkRows-row chunk \p ci of y = A x: the cursor's row sums,
/// encoded into y's codeword groups with one run call (a chunk holds whole
/// groups, so no two chunks write the same codeword).
template <class VS, class Cursor>
void spmv_chunk(Cursor& cursor, std::size_t ci, std::size_t nrows, std::size_t ngroups,
                CheckMode mode, const double* x, double* y) {
  constexpr std::size_t G = VS::kGroup;
  // SELL's chunk-local scatter assumes chunks stay at the shared granularity;
  // every current vector-group size (1/2/4) divides it.
  static_assert(kSpmvChunkRows % G == 0,
                "vector codeword group must divide the SpMV chunk size");
  const std::size_t row0 = ci * kSpmvChunkRows;  // < nrows: chunks tile the rows
  const std::size_t count = std::min(kSpmvChunkRows, nrows - row0);
  const std::size_t g0 = row0 / G;
  const std::size_t n = std::min(kSpmvChunkRows / G, ngroups - g0);
  double sums[kSpmvChunkRows];
  cursor.accumulate(row0, count, mode, MaskedXLoad<VS>{x},
                    [&](std::size_t i, double v) { sums[i] = v; });
  std::fill(sums + count, sums + n * G, 0.0);  // group-padding rows
  VS::encode_run(sums, y + g0 * G, n);
}

}  // namespace detail

/// One column of an SpMV pass: y = A * x over protected vectors, with two
/// optional CG fusions.
template <class VS>
struct SpmvColumn {
  ProtectedVector<VS>* x;
  ProtectedVector<VS>* y;
  /// When set, x = r + beta * x runs ahead of the product (r's checks and
  /// faults go to r's own log). r must not alias x or y.
  ProtectedVector<VS>* r = nullptr;
  double beta = 0.0;
  /// When set, *xy = dot(x, y) on the pass's stored vectors, bit for bit;
  /// \p partials (one slot per kSpmvChunkRows rows) is its scratch.
  double* xy = nullptr;
  std::span<double> partials = {};
};

/// The one SpMV pass driver: y_j = A * x_j for every listed column, in a
/// single parallel region that spmv() (one column) and spmm() (the active
/// columns of a batch) both run through.
///
/// Every x_j is verified once per pass by the x pre-pass (x_pass), recording
/// straight into that column's own ErrorCapture (committed to x_j's FaultLog
/// / DuePolicy, so each column's log matches its independent spmv()'s
/// bit-for-bit); a column's r, when set, is checked there too and x_j
/// updated before any row reads it. Then, per 64-row chunk, the *first*
/// listed column runs at \p mode and the rest stream the same chunk in
/// CheckMode::bounds_only — see spmm() for why that charges the matrix
/// exactly one pass. The column order is the caller's, so which column
/// carries the full pass is a pure function of the list, never of threading.
/// Outcomes commit matrix first, then per column r before x (xpby's order).
template <ProtectedMatrixType PM, class VS>
void spmv_columns(PM& a, std::span<const SpmvColumn<VS>> cols, CheckMode mode) {
  const std::size_t nrows = a.nrows();
  const std::size_t nchunks = (nrows + detail::kSpmvChunkRows - 1) / detail::kSpmvChunkRows;
  for (const auto& c : cols) {
    if (c.x->size() != a.ncols() || c.y->size() != nrows ||
        (c.r != nullptr && c.r->size() != c.x->size()) ||
        (c.xy != nullptr && (c.x->size() != nrows || c.partials.size() < nchunks))) {
      throw std::invalid_argument("spmv: dimension mismatch");
    }
  }
  if (cols.empty()) return;
  ErrorCapture capture;  // matrix-region outcomes — one full pass's worth
  // Per column an x and an r capture (ErrorCapture is pinned, so sized once);
  // the lone column of spmv() needs no heap.
  std::array<ErrorCapture, 2> single;
  std::vector<ErrorCapture> many(cols.size() > 1 ? 2 * cols.size() : 0);
  ErrorCapture* const x_captures = cols.size() > 1 ? many.data() : single.data();
  ErrorCapture* const r_captures = x_captures + cols.size();
  // Shared per-pass tile-decode arbitration for slab formats (empty for CSR).
  typename MatrixTraits<PM>::cursor_type::pass_state pass(a);

#pragma omp parallel
  {
    for (std::size_t j = 0; j < cols.size(); ++j) {
      detail::x_pass(*cols[j].x, x_captures[j], cols[j].r, cols[j].beta, r_captures[j]);
    }
    ErrorCapture local;  // this thread's matrix outcomes
    {
      typename MatrixTraits<PM>::cursor_type cursor(a, &local, &pass);

      // Work is shared in spans of kReduceLanes chunks, so each span's x·y
      // partials (one per chunk, over the stored x and the just-encoded y in
      // row order, after any SELL scatter) are summed side by side.
      constexpr std::size_t kSpan = detail::kReduceLanes;
#pragma omp for schedule(static)
      for (std::int64_t si = 0; si < static_cast<std::int64_t>((nchunks + kSpan - 1) / kSpan);
           ++si) {
        const std::size_t c0 = static_cast<std::size_t>(si) * kSpan;
        const std::size_t c1 = std::min(c0 + kSpan, nchunks);
        for (std::size_t ci = c0; ci < c1; ++ci) {
          // The first column's pass verifies (and corrects) this chunk's
          // matrix data, which is cache-hot for the guarded streams behind it.
          for (std::size_t j = 0; j < cols.size(); ++j) {
            detail::spmv_chunk<VS>(cursor, ci, nrows, cols[j].y->groups(),
                                   j == 0 ? mode : CheckMode::bounds_only, cols[j].x->data(),
                                   cols[j].y->data());
          }
        }
        const std::size_t row0 = c0 * detail::kSpmvChunkRows;
        const std::size_t rows = std::min(c1 * detail::kSpmvChunkRows, nrows) - row0;
        for (const auto& c : cols) {
          if (c.xy != nullptr) {
            detail::product_partials<VS>(c.x->data() + row0, c.y->data() + row0, rows,
                                         c.partials.data() + c0);
          }
        }
      }
    }  // cursor destructor flushes its check counters
    capture.merge_from(local);
  }
  for (const auto& c : cols) {
    if (c.xy != nullptr) *c.xy = detail::fold(c.partials.first(nchunks));
  }
  // As commit_each: every log is updated before any policy raises.
  capture.commit(a.fault_log(), DuePolicy::record_only);
  for (std::size_t j = 0; j < cols.size(); ++j) {
    if (cols[j].r != nullptr) r_captures[j].commit(cols[j].r->fault_log(), DuePolicy::record_only);
    x_captures[j].commit(cols[j].x->fault_log(), DuePolicy::record_only);
  }
  capture.commit(nullptr, a.due_policy());
  for (std::size_t j = 0; j < cols.size(); ++j) {
    if (cols[j].r != nullptr) r_captures[j].commit(nullptr, cols[j].r->due_policy());
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
/// pattern (CSR: row streams; ELL/SELL: unit-stride slab columns of each
/// slice's share of the chunk, scattered through the permutation when sigma
/// > 1).
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

/// Reduction partials covering \p v, one per kReduceLen elements (padding
/// elements are zero, so covering them changes no sum): the scratch a fused
/// reduction needs (SpmvColumn::partials, cg_calc_ur). Allocate once per
/// solve.
template <class VS>
[[nodiscard]] std::size_t reduction_partials(const ProtectedVector<VS>& v) noexcept {
  return (v.groups() * VS::kGroup + detail::kReduceLen - 1) / detail::kReduceLen;
}

/// Dot product of two protected vectors (checks each group once; dot(x, x)
/// checks x once, so a fault in x is logged once).
///
/// The reduction is the library's one order (detail::product_partials):
/// partials of kReduceLen elements, each summed serially, folded serially
/// afterwards. The partial an element falls in — and therefore every
/// rounding step — depends only on its index, so the result is bit-identical
/// at any thread count (an `omp reduction` combines per-thread sums in
/// whatever order threads finish), and equals the x·y an SpMV pass fuses.
template <class VS>
[[nodiscard]] double dot(ProtectedVector<VS>& a, ProtectedVector<VS>& b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: dimension mismatch");
  constexpr std::size_t G = VS::kGroup;
  const bool self = &a == &b;
  const std::size_t ngroups = a.groups();
  ErrorCapture ca, cb;
  std::vector<double> partials(reduction_partials(a));
  detail::for_each_span<VS>(ngroups, [&](std::size_t g0, std::size_t n) {
    detail::for_each_run(g0, n, [&](std::size_t r0, std::size_t m) {
      detail::check_block(a, r0, m, ca);
      if (!self) detail::check_block(b, r0, m, cb);
    });
    detail::product_partials<VS>(a.data() + g0 * G, b.data() + g0 * G, n * G,
                                 partials.data() + g0 * G / detail::kReduceLen);
  });
  ca.add_checks(ngroups);
  if (self) {
    detail::commit_each({{&ca, a.fault_log(), a.due_policy()}});
  } else {
    cb.add_checks(ngroups);
    detail::commit_each({{&ca, a.fault_log(), a.due_policy()},
                         {&cb, b.fault_log(), b.due_policy()}});
  }
  return detail::fold(partials);
}

/// TeaLeaf's cg_calc_ur as one pass: u += alpha * p, r -= alpha * w, and the
/// new r·r. Per block, p, u, w and r are each checked once (one capture
/// each, committed in that order, as the two axpy calls did), both updates
/// run on the masked values — the bits of axpy(alpha, p, u) and
/// axpy(-alpha, w, r) — and u and r are encoded with one run call each. r·r
/// is summed in the one reduction order over r's stored, masked values (the
/// values a later read returns), so it equals dot(r, r) bit for bit.
/// \p partials needs reduction_partials(r) slots; the four vectors must be
/// distinct.
template <class VS>
[[nodiscard]] double cg_calc_ur(double alpha, ProtectedVector<VS>& p, ProtectedVector<VS>& w,
                                ProtectedVector<VS>& u, ProtectedVector<VS>& r,
                                std::span<double> partials) {
  if (p.size() != w.size() || p.size() != u.size() || p.size() != r.size() ||
      partials.size() < reduction_partials(r)) {
    throw std::invalid_argument("cg_calc_ur: dimension mismatch");
  }
  constexpr std::size_t G = VS::kGroup;
  const std::size_t ngroups = r.groups();
  std::array<ErrorCapture, 4> c;  // p, u, w, r
  detail::for_each_span<VS>(ngroups, [&](std::size_t g0, std::size_t n) {
    detail::for_each_run(g0, n, [&](std::size_t b0, std::size_t m) {
      detail::check_block(p, b0, m, c[0]);
      detail::check_block(u, b0, m, c[1]);
      detail::check_block(w, b0, m, c[2]);
      detail::check_block(r, b0, m, c[3]);
      detail::Block<VS> ubuf, rbuf;
      double* const uo = detail::write_block(u, b0, ubuf);
      double* const ro = detail::write_block(r, b0, rbuf);
      const double* const vp = p.data() + b0 * G;
      const double* const vu = u.data() + b0 * G;
      const double* const vw = w.data() + b0 * G;
      const double* const vr = r.data() + b0 * G;
#pragma omp simd
      for (std::size_t e = 0; e < m * G; ++e) {
        uo[e] = VS::mask(vu[e]) + alpha * VS::mask(vp[e]);
        ro[e] = VS::mask(vr[e]) + -alpha * VS::mask(vw[e]);
      }
      detail::encode_block(u, b0, m, uo);
      detail::encode_block(r, b0, m, ro);
    });
    const double* const vr = r.data() + g0 * G;
    detail::product_partials<VS>(vr, vr, n * G, partials.data() + g0 * G / detail::kReduceLen);
  });
  for (auto& ci : c) ci.add_checks(ngroups);
  detail::commit_each({{&c[0], p.fault_log(), p.due_policy()},
                       {&c[1], u.fault_log(), u.due_policy()},
                       {&c[2], w.fault_log(), w.due_policy()},
                       {&c[3], r.fault_log(), r.due_policy()}});
  return detail::fold(partials.first(reduction_partials(r)));
}

/// y += alpha * x, one check of each input group and one encode of y.
template <class VS>
void axpy(double alpha, ProtectedVector<VS>& x, ProtectedVector<VS>& y) {
  if (x.size() != y.size()) throw std::invalid_argument("axpy: dimension mismatch");
  detail::map(y, [alpha](double vx, double vy) { return vy + alpha * vx; }, x, y);
}

/// y = x + beta * y (CG direction update).
template <class VS>
void xpby(ProtectedVector<VS>& x, double beta, ProtectedVector<VS>& y) {
  if (x.size() != y.size()) throw std::invalid_argument("xpby: dimension mismatch");
  detail::map(y, [beta](double vx, double vy) { return vx + beta * vy; }, x, y);
}

/// y = alpha * x + beta * y (general two-term update).
template <class VS>
void axpby(double alpha, ProtectedVector<VS>& x, double beta, ProtectedVector<VS>& y) {
  if (x.size() != y.size()) throw std::invalid_argument("axpby: dimension mismatch");
  detail::map(
      y, [alpha, beta](double vx, double vy) { return alpha * vx + beta * vy; }, x, y);
}

/// dst = src (check + re-encode; the write needs no prior read).
template <class VS>
void copy(ProtectedVector<VS>& src, ProtectedVector<VS>& dst) {
  if (src.size() != dst.size()) throw std::invalid_argument("copy: dimension mismatch");
  detail::map(dst, [](double v) { return v; }, src);
}

/// r = a - b (residual assembly; the write needs no prior read of r).
template <class VS>
void sub(ProtectedVector<VS>& a, ProtectedVector<VS>& b, ProtectedVector<VS>& r) {
  if (a.size() != b.size() || a.size() != r.size()) {
    throw std::invalid_argument("sub: dimension mismatch");
  }
  detail::map(r, [](double va, double vb) { return va - vb; }, a, b);
}

/// y[i] += s[i] * x[i] (pointwise fused multiply-add; Jacobi's D^-1 step).
template <class VS>
void pointwise_fma(ProtectedVector<VS>& s, ProtectedVector<VS>& x, ProtectedVector<VS>& y) {
  if (s.size() != x.size() || s.size() != y.size()) {
    throw std::invalid_argument("pointwise_fma: dimension mismatch");
  }
  detail::map(y, [](double vs, double vx, double vy) { return vy + vs * vx; }, s, x, y);
}

/// x[i] = value for i < size(); padding elements stay zero.
template <class VS>
void fill(ProtectedVector<VS>& x, double value) {
  const std::size_t size = x.size();
  detail::for_each_block(x.groups(), [&](std::size_t g0, std::size_t n) {
    detail::Block<VS> buf;
    double* const out = detail::write_block(x, g0, buf);
    for (std::size_t e = 0; e < n * VS::kGroup; ++e) {
      out[e] = g0 * VS::kGroup + e < size ? value : 0.0;
    }
    detail::encode_block(x, g0, n, out);
  });
}

/// Euclidean norm.
template <class VS>
[[nodiscard]] double norm2(ProtectedVector<VS>& x) {
  return std::sqrt(dot(x, x));
}

}  // namespace abft
