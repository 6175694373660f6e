/// \file raw_spmv.hpp
/// \brief Shared chunked OpenMP driver behind the containers' raw-span spmv
/// members.
///
/// ProtectedCsr::spmv and ProtectedEll::spmv differ only in the row cursor
/// that decodes/guards their storage; the traversal, error capture and
/// commit logic live here once. (The protected-vector kernel in
/// protected_kernels.hpp is the third consumer of the cursors, reached
/// through MatrixTraits; it additionally encodes y codeword groups.)
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "abft/check_policy.hpp"
#include "abft/error_capture.hpp"
#include "common/fault_log.hpp"

namespace abft::detail {

/// x-load callable over a bare dense array (no vector scheme, no group
/// decode). The type is a marker as much as a closure: cursors test
/// kIsRawXLoad to know x needs no per-element transform, which is what
/// licenses the SIMD gather on the ELL slab-column fast path (a protected x
/// is read through a masking load that the gather kernel does not apply).
struct RawXLoad {
  const double* x;
  template <class C>
  [[nodiscard]] double operator()(C c) const noexcept {
    return x[static_cast<std::size_t>(c)];
  }
};

template <class XLoad>
inline constexpr bool kIsRawXLoad = std::is_same_v<std::remove_cvref_t<XLoad>, RawXLoad>;

/// Rows per work-sharing chunk in every SpMV driver (this one and the
/// protected-vector kernel, whose y codeword groups of 1/2/4 entries divide
/// it evenly). SELL-C-sigma's scatter step relies on this granularity: a
/// permutation confined to aligned kSpmvChunkRows-row blocks keeps every
/// finished row sum inside the chunk that computed it (see ProtectedSell).
inline constexpr std::size_t kSpmvChunkRows = 64;

/// y = A x over raw dense spans, driven by the container's row cursor.
///
/// Each thread accumulates outcomes into a private ErrorCapture, destroyed-
/// flushed and merged into the shared capture at the end of the region.
/// merge_from() is commutative (counts add, first-fault exemplars take the
/// minimum (region, index) key), so the committed FaultLog / DuePolicy
/// outcome is bit-identical at any thread count. The cursor's pass_state —
/// shared arbitration a pass needs across threads (today: the tile claim
/// table) — is built once before the region.
template <class Cursor, class Matrix>
void chunked_raw_spmv(Matrix& m, std::span<const double> x, std::span<double> y,
                      CheckMode mode, const char* what) {
  if (x.size() != m.ncols() || y.size() != m.nrows()) {
    throw std::invalid_argument(std::string(what) + ": dimension mismatch");
  }
  ErrorCapture capture;
  typename Cursor::pass_state pass(m);
  constexpr std::size_t kChunk = kSpmvChunkRows;
  const std::size_t nrows = m.nrows();
  const std::size_t nchunks = (nrows + kChunk - 1) / kChunk;

#pragma omp parallel
  {
    ErrorCapture local;
    {
      Cursor cursor(m, &local, &pass);

#pragma omp for schedule(static)
      for (std::int64_t ci = 0; ci < static_cast<std::int64_t>(nchunks); ++ci) {
        const std::size_t r0 = static_cast<std::size_t>(ci) * kChunk;
        cursor.accumulate(r0, std::min(kChunk, nrows - r0), mode,
                          RawXLoad{x.data()},
                          [&](std::size_t i, double v) { y[r0 + i] = v; });
      }
    }  // cursor destructor flushes its local check counters into `local`
    capture.merge_from(local);
  }
  capture.commit(m.fault_log(), m.due_policy());
}

}  // namespace abft::detail
