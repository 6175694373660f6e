/// \file ell.hpp
/// \brief ELLPACK sparse matrix — the second storage format the protection
/// stack covers.
///
/// A m x n sparse matrix is held as two column-major nrows x width slabs plus
/// one tiny length array (ELLPACK-R layout):
///   - values  : nrows * width doubles, slot (r, j) at index j*nrows + r;
///   - cols    : nrows * width column indices, same layout;
///   - row_nnz : per-row count of *real* (non-padding) slots, <= width.
/// width is the length of the longest row; shorter rows are padded with
/// zero-valued entries carrying an in-range column index, so every slot is
/// safe to read. The per-row lengths let SpMV skip the padding, which keeps
/// row sums bit-identical to the CSR traversal of the same matrix.
///
/// This is exactly the shape TeaLeaf's 5-point stencils want: a near-constant
/// row length means almost no padding waste, SpMV streams the slabs with unit
/// stride, and the CSR row-pointer array (m+1 offsets) collapses into m tiny
/// row widths — a smaller, cheaper structural region to protect.
///
/// The protected stack holds ELL as single-slice SELL (sparse::Sell with
/// C = nrows and sigma = 1, abft::EllFormat), whose slab is this one slot for
/// slot. This class stays as the plain reference that layout is tested
/// against, and as the baseline SpMV kernel.
///
/// The index width is a template parameter, mirroring sparse::Csr: 32-bit
/// indices (`EllMatrix`) for the paper's main setting, 64-bit (`Ell64Matrix`)
/// for the §V-B wide-index scenario.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "common/aligned.hpp"
#include "sparse/csr.hpp"

namespace abft::sparse {

/// Unprotected ELLPACK matrix; the baseline for the ELL overhead story.
///
/// \tparam Index unsigned integer type of the column indices / row widths
///         (std::uint32_t or std::uint64_t).
template <class Index>
class Ell {
  static_assert(std::is_same_v<Index, std::uint32_t> || std::is_same_v<Index, std::uint64_t>,
                "Ell: index type must be uint32_t or uint64_t");

 public:
  using index_type = Index;

  Ell() = default;

  /// Construct a zero matrix with \p nrows rows, \p ncols columns and a fixed
  /// slab width of \p width slots per row (all padding until filled in).
  Ell(std::size_t nrows, std::size_t ncols, std::size_t width)
      : nrows_(nrows), ncols_(ncols), width_(width) {
    row_nnz_.assign(nrows, 0);
    values_.assign(nrows * width, 0.0);
    cols_.assign(nrows * width, 0);
  }

  /// Convert from CSR. The slab width is the longest row, or \p min_width if
  /// that is larger (protection schemes that store per-row redundancy in the
  /// first slots need a minimum width — see ProtectedSell). Padding slots get
  /// value 0.0 and the row's last real column (an in-range index).
  static Ell from_csr(const Csr<Index>& a, std::size_t min_width = 0) {
    std::size_t width = min_width;
    for (std::size_t r = 0; r < a.nrows(); ++r) width = std::max(width, a.row_nnz(r));

    Ell m(a.nrows(), a.ncols(), width);
    for (std::size_t r = 0; r < a.nrows(); ++r) {
      const std::size_t begin = a.row_ptr()[r];
      const std::size_t nnz = a.row_nnz(r);
      m.row_nnz_[r] = static_cast<Index>(nnz);
      Index pad_col = static_cast<Index>(a.ncols() > 0 ? std::min(r, a.ncols() - 1) : 0);
      for (std::size_t j = 0; j < width; ++j) {
        const std::size_t slot = j * a.nrows() + r;
        if (j < nnz) {
          m.values_[slot] = a.values()[begin + j];
          m.cols_[slot] = pad_col = a.cols()[begin + j];
        } else {
          m.values_[slot] = 0.0;
          m.cols_[slot] = pad_col;
        }
      }
    }
    return m;
  }

  /// Convert back to CSR (drops the padding).
  [[nodiscard]] Csr<Index> to_csr() const {
    Csr<Index> out(nrows_, ncols_);
    out.reserve(nnz());
    auto& row_ptr = out.row_ptr();
    auto& cols = out.cols();
    auto& values = out.values();
    for (std::size_t r = 0; r < nrows_; ++r) {
      row_ptr[r] = static_cast<Index>(values.size());
      for (std::size_t j = 0; j < row_nnz_[r]; ++j) {
        values.push_back(values_[j * nrows_ + r]);
        cols.push_back(cols_[j * nrows_ + r]);
      }
    }
    row_ptr[nrows_] = static_cast<Index>(values.size());
    return out;
  }

  [[nodiscard]] std::size_t nrows() const noexcept { return nrows_; }
  [[nodiscard]] std::size_t ncols() const noexcept { return ncols_; }
  /// Slots per row (padded length of the longest row).
  [[nodiscard]] std::size_t width() const noexcept { return width_; }
  /// Real (non-padding) non-zero count.
  [[nodiscard]] std::size_t nnz() const noexcept {
    std::size_t total = 0;
    for (const auto rl : row_nnz_) total += rl;
    return total;
  }
  /// Total slots including padding.
  [[nodiscard]] std::size_t slots() const noexcept { return nrows_ * width_; }

  [[nodiscard]] aligned_vector<double>& values() noexcept { return values_; }
  [[nodiscard]] const aligned_vector<double>& values() const noexcept { return values_; }
  [[nodiscard]] aligned_vector<index_type>& cols() noexcept { return cols_; }
  [[nodiscard]] const aligned_vector<index_type>& cols() const noexcept { return cols_; }
  [[nodiscard]] aligned_vector<index_type>& row_nnz() noexcept { return row_nnz_; }
  [[nodiscard]] const aligned_vector<index_type>& row_nnz() const noexcept {
    return row_nnz_;
  }

  /// Index of slot (row, j) in the column-major slabs.
  [[nodiscard]] std::size_t slot(std::size_t r, std::size_t j) const noexcept {
    return j * nrows_ + r;
  }

  /// Entry lookup by (row, col); returns 0 for structural zeros. O(width).
  [[nodiscard]] double at(std::size_t r, std::size_t c) const noexcept {
    for (std::size_t j = 0; j < row_nnz_[r]; ++j) {
      if (cols_[j * nrows_ + r] == c) return values_[j * nrows_ + r];
    }
    return 0.0;
  }

  /// Structural sanity check; throws std::invalid_argument on malformed data.
  /// Padding slots must carry in-range columns too — the protection layer
  /// encodes and range-guards every slot.
  void validate() const {
    if (row_nnz_.size() != nrows_) {
      throw std::invalid_argument("ELL: row_nnz size != nrows");
    }
    if (values_.size() != nrows_ * width_ || cols_.size() != nrows_ * width_) {
      throw std::invalid_argument("ELL: slab size != nrows*width");
    }
    for (std::size_t r = 0; r < nrows_; ++r) {
      if (row_nnz_[r] > width_) {
        throw std::invalid_argument("ELL: row_nnz > width at row " + std::to_string(r));
      }
      for (std::size_t j = 0; j < width_; ++j) {
        const std::size_t k = j * nrows_ + r;
        if (cols_[k] >= ncols_) {
          throw std::invalid_argument("ELL: column index out of range at row " +
                                      std::to_string(r));
        }
        if (j > 0 && j < row_nnz_[r] && cols_[k] <= cols_[(j - 1) * nrows_ + r]) {
          throw std::invalid_argument("ELL: columns not strictly increasing in row " +
                                      std::to_string(r));
        }
      }
    }
  }

 private:
  std::size_t nrows_ = 0;
  std::size_t ncols_ = 0;
  std::size_t width_ = 0;
  aligned_vector<index_type> row_nnz_;
  aligned_vector<index_type> cols_;
  aligned_vector<double> values_;
};

/// The paper's main setting: 32-bit indices.
using EllMatrix = Ell<std::uint32_t>;
/// The §V-B wide-index setting: 64-bit indices.
using Ell64Matrix = Ell<std::uint64_t>;

/// y = A * x for an unprotected ELL matrix (baseline SpMV kernel). Row sums
/// accumulate in ascending-slot order, which matches the CSR traversal of the
/// same matrix bit for bit.
template <class Index>
void spmv(const Ell<Index>& a, const double* x, double* y) noexcept {
  const auto* row_nnz = a.row_nnz().data();
  const auto* cols = a.cols().data();
  const auto* values = a.values().data();
  const std::size_t nrows = a.nrows();
#pragma omp parallel for schedule(static)
  for (std::int64_t r = 0; r < static_cast<std::int64_t>(nrows); ++r) {
    double sum = 0.0;
    for (std::size_t j = 0; j < row_nnz[r]; ++j) {
      sum += values[j * nrows + r] * x[cols[j * nrows + r]];
    }
    y[r] = sum;
  }
}

}  // namespace abft::sparse
