/// \file protected_csr.hpp
/// \brief CSR matrix whose three vectors all carry embedded redundancy
/// (paper §VI-A): elements via an element scheme (Fig. 1), the row-pointer
/// vector via a row scheme (Fig. 2). Zero additional storage is used.
///
/// One width-parameterized container serves both the paper's 32-bit setting
/// and the §V-B 64-bit extension: the index type is the first template
/// parameter and the schemes must be instantiated at the same width.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "abft/check_policy.hpp"
#include "abft/element_schemes.hpp"
#include "abft/error_capture.hpp"
#include "abft/protected_index_array.hpp"
#include "abft/scheme_errors.hpp"
#include "abft/spmv_chunk.hpp"
#include "common/aligned.hpp"
#include "common/fault_log.hpp"
#include "sparse/csr.hpp"

namespace abft {

namespace detail {

/// Accumulate one protected CSR row into a dot product, with x accessed
/// through \p xload: CsrRowCursor's per-row decode/range-guard loop, which
/// the one SpMV pass driver in protected_kernels.hpp runs for spmv and for
/// every spmm column alike. In CheckMode::full every element is verified
/// (per element, or per row for row-granular schemes); in bounds_only the
/// integrity checks are skipped but every column index is still
/// range-guarded (paper §VI-A2).
template <class ES, class Index, class XLoad>
[[nodiscard]] double protected_row_sum(double* values, Index* cols, std::size_t begin,
                                       std::size_t end, std::size_t ncols, std::size_t r,
                                       CheckMode mode, ErrorCapture& capture,
                                       std::uint64_t& checks, XLoad&& xload) {
  double sum = 0.0;
  if constexpr (ES::kScheme == ecc::Scheme::none) {
    // ElemNone decodes to the identity, so the full-check loop collapses to
    // the masked reads with bulk check accounting (ported from the SELL
    // cursor) — the unprotected baseline pays no per-element dispatch.
    for (std::size_t k = begin; k < end; ++k) {
      const Index c = cols[k] & ES::kColMask;
      if (c >= ncols) [[unlikely]] {
        capture.record_bounds(Region::csr_cols, k);
        continue;
      }
      sum += values[k] * xload(c);
    }
    if (mode == CheckMode::full) checks += end - begin;
    return sum;
  }
  if (mode == CheckMode::full) {
    if constexpr (ES::kRowGranular) {
      const auto outcome = ES::decode_row(values + begin, cols + begin, end - begin);
      ++checks;
      capture.record(Region::csr_values, outcome, r);
      for (std::size_t k = begin; k < end; ++k) {
        const Index c = cols[k] & ES::kColMask;
        if (c >= ncols) {
          capture.record_bounds(Region::csr_cols, k);
          continue;
        }
        sum += values[k] * xload(c);
      }
    } else {
      for (std::size_t k = begin; k < end; ++k) {
        double v;
        Index c;
        const auto outcome = ES::decode(values[k], cols[k], v, c);
        ++checks;
        capture.record(Region::csr_values, outcome, k);
        if (c >= ncols) {
          capture.record_bounds(Region::csr_cols, k);
          continue;
        }
        sum += v * xload(c);
      }
    }
  } else {
    for (std::size_t k = begin; k < end; ++k) {
      const Index c = cols[k] & ES::kColMask;
      if (c >= ncols) {
        capture.record_bounds(Region::csr_cols, k);
        continue;
      }
      sum += values[k] * xload(c);
    }
  }
  return sum;
}

}  // namespace detail

/// Sparse matrix in CSR format, fully protected with no storage overhead.
///
/// \tparam Index index width (std::uint32_t or std::uint64_t)
/// \tparam ES element scheme (schemes::ElemNone / ElemSed / ElemSecded /
///            ElemCrc32c at the same width)
/// \tparam RS row-pointer scheme (schemes::RowNone / RowSed / RowSecded /
///            RowSecded128 / RowCrc32c at the same width)
///
/// The matrix is immutable after construction (the paper exploits exactly
/// this: during a time-step's CG solve the matrix never changes, §V-A), so
/// encoding happens once in from_csr(). Reads go through the decoding
/// accessors; SECDED corrections are written back in place.
template <class Index, class ES, class RS>
class ProtectedCsr {
  static_assert(std::is_same_v<Index, typename ES::index_type>,
                "ProtectedCsr: element scheme instantiated at a different index width");
  static_assert(std::is_same_v<Index, typename RS::index_type>,
                "ProtectedCsr: row scheme instantiated at a different index width");

 public:
  using elem_scheme = ES;
  using row_scheme = RS;
  using struct_scheme = RS;
  using index_type = Index;
  using csr_type = sparse::Csr<Index>;
  /// The unprotected matrix this container encodes/decodes — the uniform name
  /// format-generic code (recovery, dispatch format tags) programs against.
  using plain_type = csr_type;

  ProtectedCsr() = default;

  /// Encode \p a. Throws std::invalid_argument when the matrix violates the
  /// scheme's index-range constraints (paper: at 32-bit width SED needs
  /// < 2^31 columns, SECDED/CRC < 2^24; grouped row schemes need NNZ < 2^28;
  /// the 64-bit layouts allow < 2^63 / 2^56 respectively; per-row CRC needs
  /// >= 4 non-zeros per row — see sparse::pad_rows_to_min_nnz).
  ///
  /// \p tile_slots exists for format uniformity with the slab containers: it
  /// is validated whenever non-zero (so a bad --tile-slots fails identically
  /// on every format) and otherwise ignored — CSR rejects the tile-granular
  /// scheme itself below.
  static ProtectedCsr from_csr(const csr_type& a, FaultLog* log = nullptr,
                               DuePolicy policy = DuePolicy::throw_exception,
                               std::size_t tile_slots = 0) {
    if (tile_slots != 0) (void)TileGeometry(tile_slots);
    if constexpr (ES::kTileGranular) {
      // The tile-codeword CRC tiles a physical slab; CSR's rows are already
      // unit-stride, so the per-row codeword is its contiguous layout.
      // Format-blind dispatch still instantiates this container, so the
      // refusal is a runtime error, not a static_assert.
      throw SchemeUnavailableError(
          "ProtectedCsr: element scheme 'crc32c-tile' is unavailable for the csr "
          "format (CSR rows are already unit-stride; use 'crc32c')");
    }
    a.validate();
    if (a.ncols() > 0 && a.ncols() - 1 > ES::kColMask) {
      throw std::invalid_argument(
          "ProtectedCsr: matrix has too many columns for the element scheme (max " +
          std::to_string(static_cast<std::uint64_t>(ES::kColMask) + 1) + ")");
    }
    if (a.nnz() > RS::kValueMask) {
      throw std::invalid_argument(
          "ProtectedCsr: matrix has too many non-zeros for the row scheme (max " +
          std::to_string(static_cast<std::uint64_t>(RS::kValueMask)) + ")");
    }
    if constexpr (ES::kMinRowNnz > 0) {
      for (std::size_t r = 0; r < a.nrows(); ++r) {
        if (a.row_nnz(r) < ES::kMinRowNnz) {
          throw std::invalid_argument(
              "ProtectedCsr: row " + std::to_string(r) + " has fewer than " +
              std::to_string(ES::kMinRowNnz) +
              " non-zeros required by the per-row CRC scheme; "
              "pad the matrix with sparse::pad_rows_to_min_nnz()");
        }
      }
    }

    ProtectedCsr p;
    p.nrows_ = a.nrows();
    p.ncols_ = a.ncols();
    p.nnz_ = a.nnz();
    p.log_ = log;
    p.policy_ = policy;

    // Elements: copy + encode in the same aligned 64-row static partition
    // the SpMV pass driver later reads with. The storage is uninitialised
    // until this loop writes it, so on a first-touch NUMA policy each page
    // lands on the node of the thread that will stream it.
    p.values_.resize(p.nnz_);
    p.cols_.resize(p.nnz_);
    const std::size_t nrows = a.nrows();
    constexpr std::size_t kChunk = detail::kSpmvChunkRows;
    const std::size_t nchunks = (nrows + kChunk - 1) / kChunk;
#pragma omp parallel for schedule(static) if (nrows >= kParallelRows)
    for (std::int64_t ci = 0; ci < static_cast<std::int64_t>(nchunks); ++ci) {
      const std::size_t r0 = static_cast<std::size_t>(ci) * kChunk;
      const std::size_t r1 = std::min(r0 + kChunk, nrows);
      const std::size_t k0 = a.row_ptr()[r0];
      const std::size_t k1 = a.row_ptr()[r1];
      std::copy(a.values().begin() + k0, a.values().begin() + k1, p.values_.begin() + k0);
      std::copy(a.cols().begin() + k0, a.cols().begin() + k1, p.cols_.begin() + k0);
      if constexpr (ES::kRowGranular) {
        for (std::size_t r = r0; r < r1; ++r) {
          const std::size_t begin = a.row_ptr()[r];
          const std::size_t end = a.row_ptr()[r + 1];
          ES::encode_row(p.values_.data() + begin, p.cols_.data() + begin, end - begin);
        }
      } else {
        for (std::size_t k = k0; k < k1; ++k) {
          ES::encode(p.values_[k], p.cols_[k]);
        }
      }
    }

    // Row pointers, encoded straight from the source; the group padding
    // holds NNZ, a valid offset.
    p.row_ptr_ = ProtectedIndexArray<Index, RS>(
        Region::csr_row_ptr, a.nrows() + 1, static_cast<index_type>(a.nnz()),
        [&](std::size_t i) { return a.row_ptr()[i]; });
    return p;
  }

  /// Format-uniform spelling of from_csr (see plain_type).
  static ProtectedCsr from_plain(const plain_type& a, FaultLog* log = nullptr,
                                 DuePolicy policy = DuePolicy::throw_exception,
                                 std::size_t tile_slots = 0) {
    return from_csr(a, log, policy, tile_slots);
  }

  [[nodiscard]] std::size_t nrows() const noexcept { return nrows_; }
  [[nodiscard]] std::size_t ncols() const noexcept { return ncols_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return nnz_; }
  /// Format-uniform tile-geometry surface: CSR never carries a tile slab.
  [[nodiscard]] std::size_t tile_slots() const noexcept { return 0; }
  [[nodiscard]] FaultLog* fault_log() const noexcept { return log_; }
  [[nodiscard]] DuePolicy due_policy() const noexcept { return policy_; }

  /// Raw storage, exposed for the kernels and for fault injection.
  [[nodiscard]] double* values_data() noexcept { return values_.data(); }
  [[nodiscard]] index_type* cols_data() noexcept { return cols_.data(); }
  [[nodiscard]] std::span<double> raw_values() noexcept { return values_; }
  [[nodiscard]] std::span<index_type> raw_cols() noexcept { return cols_; }
  /// Format-uniform name for the structural index array (CSR: row pointers)
  /// and its protected reads (checked, masked, cached).
  [[nodiscard]] std::span<index_type> raw_structure() noexcept { return row_ptr_.raw(); }
  [[nodiscard]] ProtectedIndexArray<Index, RS>& structure() noexcept { return row_ptr_; }

  /// Checked element read (slow path; kernels iterate rows directly).
  /// For the row-granular CRC scheme this verifies the whole containing row.
  struct Element {
    double value;
    index_type col;
  };

  /// Checked number of non-zeros in row \p r (slow path). Offsets that
  /// survive the scheme corrupted (begin > end, or past NNZ) yield an empty
  /// row and a logged bounds violation rather than an underflowed count —
  /// the no-out-of-range-access guarantee of §VI-A2.
  [[nodiscard]] std::size_t row_nnz_at(std::size_t r) {
    const std::size_t begin = row_ptr_.at(r, log_, policy_);
    const std::size_t end = row_ptr_.at(r + 1, log_, policy_);
    if (begin > end || end > nnz_) {
      if (log_ != nullptr) log_->record_bounds_violation(Region::csr_row_ptr, r);
      return 0;
    }
    return end - begin;
  }

  /// Checked \p j-th element of row \p r — the format-uniform slow-path
  /// accessor (solver setup code iterates j in [0, row_nnz_at(r))). A slot
  /// beyond the guarded row extent raises BoundsViolation so recovery
  /// wrappers can checkpoint-restart.
  [[nodiscard]] Element element_in_row(std::size_t r, std::size_t j) {
    const std::size_t begin = row_ptr_.at(r, log_, policy_);
    const std::size_t end = row_ptr_.at(r + 1, log_, policy_);
    if (begin > end || end > nnz_ || j >= end - begin) {
      if (log_ != nullptr) log_->record_bounds_violation(Region::csr_row_ptr, r);
      throw BoundsViolation(Region::csr_row_ptr, r);
    }
    const std::size_t k = begin + j;
    if constexpr (ES::kRowGranular) {
      account_check(log_, policy_, Region::csr_values,
                    ES::decode_row(values_.data() + begin, cols_.data() + begin, end - begin),
                    r);
      return {values_[k], static_cast<index_type>(cols_[k] & ES::kColMask)};
    } else {
      double v;
      index_type c;
      account_check(log_, policy_, Region::csr_values, ES::decode(values_[k], cols_[k], v, c),
                    k);
      return {v, c};
    }
  }

  /// Full-matrix integrity sweep (paper: run at the end of every time-step
  /// in check-interval mode so no error escapes unnoticed). Returns the
  /// number of uncorrectable codewords; corrections are applied in place.
  std::size_t verify_all() { return verify_all(log_, policy_); }

  /// Same sweep with the accounting target supplied by the caller: the
  /// worker fleet routes each batch's final verify into a private per-batch
  /// log (see service::MatrixLogView) so concurrent workers never contend on
  /// — or nondeterministically interleave — the shared matrix log.
  /// Under throw_exception the error names the first failure's region and
  /// index, as in ProtectedSell.
  std::size_t verify_all(FaultLog* log, DuePolicy policy) {
    SweepTally tally;
    row_ptr_.sweep(log, tally);
    // Elements: iterate rows through the (just verified) row pointers, but
    // guard the offsets so a DUE in the row pointers cannot fault us.
    std::size_t prev_end = 0;
    for (std::size_t r = 0; r < nrows_; ++r) {
      std::size_t begin = row_ptr_.masked(r);
      std::size_t end = row_ptr_.masked(r + 1);
      if (begin > end || end > nnz_) {
        tally.bounds_hit(log, Region::csr_row_ptr, r);
        begin = end = prev_end;
      }
      prev_end = end;
      if constexpr (ES::kRowGranular) {
        tally.check(log, Region::csr_values,
                    ES::decode_row(values_.data() + begin, cols_.data() + begin, end - begin),
                    r);
      } else {
        for (std::size_t k = begin; k < end; ++k) {
          double v;
          index_type c;
          tally.check(log, Region::csr_values, ES::decode(values_[k], cols_[k], v, c), k);
        }
      }
    }
    return tally.finish(policy);
  }

  /// Decode back into an unprotected CSR matrix (checks everything).
  [[nodiscard]] csr_type to_csr() {
    csr_type out(nrows_, ncols_);
    out.reserve(nnz_);
    auto& row_ptr = out.row_ptr();
    auto& cols = out.cols();
    auto& values = out.values();
    for (std::size_t i = 0; i <= nrows_; ++i) row_ptr[i] = row_ptr_.at(i, log_, policy_);
    values.resize(nnz_);
    cols.resize(nnz_);
    for (std::size_t r = 0; r < nrows_; ++r) {
      const index_type begin = row_ptr[r];
      const index_type end = row_ptr[r + 1];
      if constexpr (ES::kRowGranular) {
        account_check(log_, policy_, Region::csr_values,
                      ES::decode_row(values_.data() + begin, cols_.data() + begin, end - begin),
                      r);
      }
      for (index_type k = begin; k < end; ++k) {
        if constexpr (ES::kRowGranular) {
          values[k] = values_[k];
          cols[k] = cols_[k] & ES::kColMask;
        } else {
          double v;
          index_type c;
          account_check(log_, policy_, Region::csr_values,
                        ES::decode(values_[k], cols_[k], v, c), k);
          values[k] = v;
          cols[k] = c;
        }
      }
    }
    return out;
  }

  /// Format-uniform spelling of to_csr (see plain_type).
  [[nodiscard]] plain_type to_plain() { return to_csr(); }

 private:
  /// Serial-encode threshold: matrices below it (every unit-test case) are
  /// not worth a fork-join, and first touch only matters at page scale.
  static constexpr std::size_t kParallelRows = std::size_t{1} << 14;

  std::size_t nrows_ = 0;
  std::size_t ncols_ = 0;
  std::size_t nnz_ = 0;
  aligned_uninit_vector<double> values_;
  aligned_uninit_vector<index_type> cols_;
  ProtectedIndexArray<Index, RS> row_ptr_;
  FaultLog* log_ = nullptr;
  DuePolicy policy_ = DuePolicy::throw_exception;
};

/// Per-thread row accessor driving SpMV over one protected CSR matrix: wraps
/// the cached row-pointer decode, the offset bounds guard and the row
/// decode/accumulate loop behind the accumulate() surface the format-generic
/// kernels program against (see abft/format_traits.hpp). Checks are counted
/// locally and flushed into the capture on destruction.
template <class Index, class ES, class RS>
class CsrRowCursor {
 public:
  using matrix_type = ProtectedCsr<Index, ES, RS>;

  /// Shared per-pass state. CSR needs none — a chunk's row streams are
  /// private to it — but the slot keeps the cursor construction protocol
  /// uniform across formats (the slab cursors carry a tile claim table).
  struct pass_state {
    explicit pass_state(matrix_type&) noexcept {}
  };

  CsrRowCursor(matrix_type& m, ErrorCapture* capture, pass_state* = nullptr) noexcept
      : capture_(capture),
        rp_(m.structure().reader(0, capture)),
        values_(m.values_data()),
        cols_(m.cols_data()),
        nnz_(m.nnz()),
        ncols_(m.ncols()) {}

  ~CsrRowCursor() { flush_checks(); }
  CsrRowCursor(const CsrRowCursor&) = delete;
  CsrRowCursor& operator=(const CsrRowCursor&) = delete;

  /// Compute (A x)[first_row + i] for i in [0, n) and hand each finished row
  /// sum to `store(i, sum)`, with x accessed through \p xload. The sink
  /// formulation lets the caller encode each sum straight from the register
  /// (single-entry vector codewords) or gather whole groups — no mandatory
  /// spill to an intermediate buffer. CheckMode semantics are the
  /// container's: full verifies every element and row pointer touched,
  /// bounds_only only range-guards (paper §VI-A2); rows whose offsets fail
  /// the guard produce 0.
  template <class XLoad, class Store>
  void accumulate(std::size_t first_row, std::size_t n, CheckMode mode, XLoad&& xload,
                  Store&& store) {
    // One accumulate call is one chunk: start it cache-clean so the row
    // pointer decode pattern is chunk-pure (cross-thread-count determinism).
    rp_.invalidate();
    // Hot state lives in locals for the duration of the chunk; the check
    // counter is written back once so the row loop carries no member stores.
    double* const values = values_;
    Index* const cols = cols_;
    const std::size_t nnz = nnz_;
    const std::size_t ncols = ncols_;
    ErrorCapture& capture = *capture_;
    std::uint64_t checks = checks_;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t r = first_row + i;
      std::size_t begin, end;
      if (mode == CheckMode::full) {
        begin = rp_.get(r);
        end = rp_.get(r + 1);
      } else {
        begin = rp_.get_bounds_only(r);
        end = rp_.get_bounds_only(r + 1);
      }
      if (begin > end || end > nnz) {
        capture.record_bounds(Region::csr_row_ptr, r);
        store(i, 0.0);
        continue;
      }
      store(i, detail::protected_row_sum<ES>(values, cols, begin, end, ncols, r, mode,
                                             capture, checks, xload));
    }
    checks_ = checks;
  }

  void flush_checks() noexcept {
    rp_.flush_checks();
    if (checks_ > 0) {
      capture_->add_checks(checks_);
      checks_ = 0;
    }
  }

 private:
  ErrorCapture* capture_;
  typename ProtectedIndexArray<Index, RS>::Reader rp_;
  double* values_;
  Index* cols_;
  std::size_t nnz_;
  std::size_t ncols_;
  std::uint64_t checks_ = 0;
};

/// The §V-B wide-index container.
template <class ES, class RS>
using ProtectedCsr64 = ProtectedCsr<std::uint64_t, ES, RS>;

}  // namespace abft
