/// \file sell.hpp
/// \brief SELL-C-sigma (sliced ELLPACK) sparse matrix — the third storage
/// format the protection stack covers.
///
/// The rows of an m x n matrix are cut into slices of a fixed height C.
/// Within a sorting window of sigma consecutive rows, rows are reordered by
/// descending length (a permutation recorded per stored row), so the rows
/// sharing a slice have near-equal lengths. Each slice then stores its own
/// small column-major slab of C x width(slice) slots:
///   - values / cols : the slice slabs, concatenated; slot (i, j) of slice s
///     lives at slice_begin(s) + j*C + i — traversing a slice is one
///     *contiguous* stream, unlike plain ELLPACK whose full-height slabs
///     stride by nrows;
///   - slice_width   : per-slice padded width (the length of the slice's
///     longest row);
///   - row_nnz       : per *stored* row count of real slots (ELLPACK-R
///     style, so SpMV skips the padding and row sums stay bit-identical to
///     the CSR traversal);
///   - perm          : stored row i holds original row perm[i]; SpMV
///     scatters each finished sum to y[perm[i]].
/// slice_ptr (slot offsets per slice) is derived from the widths and kept
/// for O(1) slab addressing.
///
/// Compared to ELLPACK this trades one extra tiny structural array (the
/// permutation) for two wins: padding shrinks from (longest row anywhere)
/// to (longest row per slice), and the value/column streams become fully
/// contiguous — the layout kokkos-kernels uses to close exactly the
/// ELL-vs-CSR single-thread gap this repo's ROADMAP tracks.
///
/// ELLPACK itself is the special case C = nrows, sigma = 1 (Kreutzer et al.,
/// arXiv:1307.6209): one slice whose slab is the nrows x width column-major
/// ELL slab, slot (r, j) at j*nrows + r, under the identity permutation. The
/// protected stack runs ELL exactly that way (abft::EllFormat), so C has no
/// upper bound: the kernels walk any slice in 64-row segments and size no
/// buffer by C.
///
/// The index width is a template parameter, mirroring sparse::Csr/Ell:
/// `SellMatrix` is the paper's 32-bit setting, `Sell64Matrix` the §V-B
/// wide-index scenario.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/aligned.hpp"
#include "sparse/csr.hpp"

namespace abft::sparse {

/// Unprotected SELL-C-sigma matrix; the baseline for the SELL overhead story.
///
/// \tparam Index unsigned integer type of the column indices and the
///         structural arrays (std::uint32_t or std::uint64_t).
template <class Index>
class Sell {
  static_assert(std::is_same_v<Index, std::uint32_t> || std::is_same_v<Index, std::uint64_t>,
                "Sell: index type must be uint32_t or uint64_t");

 public:
  using index_type = Index;

  /// Default slice height C. 16 rows keep every slice slab L1-resident while
  /// bounding padding waste; any C works, this is the measured sweet spot
  /// for the protected SpMV path on current CPUs.
  static constexpr std::size_t kDefaultSliceHeight = 16;
  /// Default sorting window sigma. Independent of the slice height; the
  /// protected container requires the permutation to stay within aligned
  /// 64-row blocks (see ProtectedSell), which any window that divides 64
  /// satisfies — 64 is the largest such window.
  static constexpr std::size_t kDefaultSortWindow = 64;

  Sell() = default;

  /// Construct a zero matrix: \p nrows rows, \p ncols columns, slices of
  /// height \p slice_height whose widths are given by \p widths (one entry
  /// per slice — ceil(nrows / slice_height) of them). The permutation is the
  /// identity and every slot is padding until filled in.
  Sell(std::size_t nrows, std::size_t ncols, std::size_t slice_height,
       std::span<const Index> widths, std::size_t sort_window = kDefaultSortWindow)
      : nrows_(nrows), ncols_(ncols), slice_(clamp_slice(slice_height)),
        window_(sort_window == 0 ? 1 : sort_window) {
    const std::size_t nslices = (nrows_ + slice_ - 1) / slice_;
    if (widths.size() != nslices) {
      throw std::invalid_argument("SELL: widths size != nslices");
    }
    slice_width_.assign(widths.begin(), widths.end());
    build_slice_ptr();
    perm_.resize(nrows_);
    std::iota(perm_.begin(), perm_.end(), Index{0});
    row_nnz_.assign(nrows_, 0);
    values_.assign(slots(), 0.0);
    cols_.assign(slots(), 0);
  }

  /// Convert from CSR. Within each \p sort_window rows are stably reordered
  /// by descending length; slices of \p slice_height rows are then cut in
  /// stored order. Each slice's width is its longest row, raised to
  /// \p min_width when larger (protection schemes that keep per-row
  /// redundancy in the first slots need a minimum width — see
  /// ProtectedSell). Padding slots get value 0.0 and the row's last real
  /// column (an in-range index).
  static Sell from_csr(const Csr<Index>& a, std::size_t min_width = 0,
                       std::size_t slice_height = kDefaultSliceHeight,
                       std::size_t sort_window = kDefaultSortWindow) {
    const std::size_t nrows = a.nrows();
    const std::size_t slice = clamp_slice(slice_height);
    const std::size_t window = sort_window == 0 ? 1 : sort_window;

    // Sort each window's rows by descending length (stable: equal-length
    // rows keep their original order, so the permutation is deterministic).
    // A window of one row sorts nothing: the permutation is the identity.
    std::vector<Index> perm(nrows);
    std::iota(perm.begin(), perm.end(), Index{0});
    for (std::size_t w0 = 0; window > 1 && w0 < nrows; w0 += window) {
      const std::size_t w1 = std::min(w0 + window, nrows);
      std::stable_sort(perm.begin() + static_cast<std::ptrdiff_t>(w0),
                       perm.begin() + static_cast<std::ptrdiff_t>(w1),
                       [&](Index lhs, Index rhs) {
                         return a.row_nnz(lhs) > a.row_nnz(rhs);
                       });
    }

    const std::size_t nslices = (nrows + slice - 1) / slice;
    aligned_vector<Index> widths(nslices, static_cast<Index>(min_width));
    for (std::size_t i = 0; i < nrows; ++i) {
      auto& w = widths[i / slice];
      w = std::max(w, static_cast<Index>(a.row_nnz(perm[i])));
    }

    Sell m(nrows, a.ncols(), slice, widths, window);
    for (std::size_t i = 0; i < nrows; ++i) m.perm_[i] = perm[i];
    for (std::size_t s = 0; s < nslices; ++s) {
      const std::size_t base = m.slice_ptr_[s];
      const std::size_t width = widths[s];
      for (std::size_t e = 0; e < slice; ++e) {
        const std::size_t i = s * slice + e;
        const std::size_t r = i < nrows ? perm[i] : 0;  // virtual rows pad as row 0
        const std::size_t nnz = i < nrows ? a.row_nnz(r) : 0;
        const std::size_t begin = a.row_ptr()[r];
        if (i < nrows) m.row_nnz_[i] = static_cast<Index>(nnz);
        Index pad_col = static_cast<Index>(a.ncols() > 0 ? std::min(r, a.ncols() - 1) : 0);
        for (std::size_t j = 0; j < width; ++j) {
          const std::size_t slot = base + j * slice + e;
          if (j < nnz) {
            m.values_[slot] = a.values()[begin + j];
            m.cols_[slot] = pad_col = a.cols()[begin + j];
          } else {
            m.values_[slot] = 0.0;
            m.cols_[slot] = pad_col;
          }
        }
      }
    }
    return m;
  }

  /// Convert back to CSR (drops the padding and undoes the permutation).
  [[nodiscard]] Csr<Index> to_csr() const {
    // Scatter stored-row lengths back to original rows, then prefix-sum.
    Csr<Index> out(nrows_, ncols_);
    out.reserve(nnz());
    auto& row_ptr = out.row_ptr();
    for (std::size_t i = 0; i < nrows_; ++i) row_ptr[perm_[i] + 1] = row_nnz_[i];
    for (std::size_t r = 0; r < nrows_; ++r) row_ptr[r + 1] += row_ptr[r];
    auto& cols = out.cols();
    auto& values = out.values();
    values.resize(row_ptr[nrows_]);
    cols.resize(row_ptr[nrows_]);
    for (std::size_t i = 0; i < nrows_; ++i) {
      const std::size_t s = i / slice_;
      const std::size_t base = slice_ptr_[s] + (i - s * slice_);
      std::size_t k = row_ptr[perm_[i]];
      for (std::size_t j = 0; j < row_nnz_[i]; ++j, ++k) {
        values[k] = values_[base + j * slice_];
        cols[k] = cols_[base + j * slice_];
      }
    }
    return out;
  }

  [[nodiscard]] std::size_t nrows() const noexcept { return nrows_; }
  [[nodiscard]] std::size_t ncols() const noexcept { return ncols_; }
  /// Slice height C (storage rows per slice; the last slice keeps C storage
  /// rows too — rows past nrows() are all-padding "virtual" rows).
  [[nodiscard]] std::size_t slice_height() const noexcept { return slice_; }
  /// Sorting window sigma the permutation was built with.
  [[nodiscard]] std::size_t sort_window() const noexcept { return window_; }
  [[nodiscard]] std::size_t nslices() const noexcept { return slice_width_.size(); }
  /// Total slots including padding.
  [[nodiscard]] std::size_t slots() const noexcept {
    return slice_ptr_.empty() ? 0 : slice_ptr_.back();
  }
  /// Real (non-padding) non-zero count.
  [[nodiscard]] std::size_t nnz() const noexcept {
    std::size_t total = 0;
    for (const auto rl : row_nnz_) total += rl;
    return total;
  }

  /// Slot offset of slice \p s within the slabs.
  [[nodiscard]] std::size_t slice_begin(std::size_t s) const noexcept {
    return slice_ptr_[s];
  }
  /// Padded width of slice \p s.
  [[nodiscard]] std::size_t slice_width(std::size_t s) const noexcept {
    return slice_width_[s];
  }
  /// Index of slot (stored row i, position j) in the slabs.
  [[nodiscard]] std::size_t slot(std::size_t i, std::size_t j) const noexcept {
    const std::size_t s = i / slice_;
    return slice_ptr_[s] + j * slice_ + (i - s * slice_);
  }

  [[nodiscard]] aligned_vector<double>& values() noexcept { return values_; }
  [[nodiscard]] const aligned_vector<double>& values() const noexcept { return values_; }
  [[nodiscard]] aligned_vector<index_type>& cols() noexcept { return cols_; }
  [[nodiscard]] const aligned_vector<index_type>& cols() const noexcept { return cols_; }
  [[nodiscard]] aligned_vector<index_type>& row_nnz() noexcept { return row_nnz_; }
  [[nodiscard]] const aligned_vector<index_type>& row_nnz() const noexcept {
    return row_nnz_;
  }
  [[nodiscard]] aligned_vector<index_type>& perm() noexcept { return perm_; }
  [[nodiscard]] const aligned_vector<index_type>& perm() const noexcept { return perm_; }
  [[nodiscard]] const aligned_vector<index_type>& slice_widths() const noexcept {
    return slice_width_;
  }
  [[nodiscard]] const aligned_vector<index_type>& slice_ptr() const noexcept {
    return slice_ptr_;
  }

  /// Entry lookup by (original row, col); returns 0 for structural zeros.
  /// O(nrows) for the inverse-permutation scan plus O(width).
  [[nodiscard]] double at(std::size_t r, std::size_t c) const noexcept {
    for (std::size_t i = 0; i < nrows_; ++i) {
      if (perm_[i] != r) continue;
      const std::size_t s = i / slice_;
      const std::size_t base = slice_ptr_[s] + (i - s * slice_);
      for (std::size_t j = 0; j < row_nnz_[i]; ++j) {
        if (cols_[base + j * slice_] == c) return values_[base + j * slice_];
      }
      return 0.0;
    }
    return 0.0;
  }

  /// Structural sanity check; throws std::invalid_argument on malformed
  /// data. Padding slots must carry in-range columns too — the protection
  /// layer encodes and range-guards every slot.
  void validate() const {
    if (slice_ == 0) throw std::invalid_argument("SELL: slice height is zero");
    const std::size_t nslices_want = (nrows_ + slice_ - 1) / slice_;
    if (slice_width_.size() != nslices_want || slice_ptr_.size() != nslices_want + 1) {
      throw std::invalid_argument("SELL: slice arrays sized inconsistently");
    }
    if (perm_.size() != nrows_ || row_nnz_.size() != nrows_) {
      throw std::invalid_argument("SELL: perm/row_nnz size != nrows");
    }
    if (slice_ptr_.empty() || slice_ptr_.front() != 0) {
      throw std::invalid_argument("SELL: slice_ptr[0] != 0");
    }
    for (std::size_t s = 0; s < nslices_want; ++s) {
      if (slice_ptr_[s + 1] - slice_ptr_[s] != slice_ * slice_width_[s]) {
        throw std::invalid_argument("SELL: slice_ptr inconsistent with width at slice " +
                                    std::to_string(s));
      }
    }
    if (values_.size() != slots() || cols_.size() != slots()) {
      throw std::invalid_argument("SELL: slab size != total slots");
    }
    // A sort window of one row sorts nothing: its permutation must be the
    // identity, which the protected container then does not store.
    std::vector<bool> seen(window_ > 1 ? nrows_ : 0, false);
    for (std::size_t i = 0; i < nrows_; ++i) {
      const bool bad =
          window_ > 1 ? perm_[i] >= nrows_ || seen[perm_[i]] : perm_[i] != i;
      if (bad) {
        throw std::invalid_argument(
            "SELL: perm is not a permutation (the identity under sort window 1) at "
            "stored row " + std::to_string(i));
      }
      if (window_ > 1) seen[perm_[i]] = true;
    }
    for (std::size_t s = 0; s < nslices_want; ++s) {
      const std::size_t rend = std::min((s + 1) * slice_, nrows_);
      for (std::size_t i = s * slice_; i < rend; ++i) {
        if (row_nnz_[i] > slice_width_[s]) {
          throw std::invalid_argument("SELL: row_nnz > slice width at stored row " +
                                      std::to_string(i));
        }
      }
    }
    for (std::size_t s = 0; s < nslices_want; ++s) {
      const std::size_t base = slice_ptr_[s];
      const std::size_t width = slice_width_[s];
      for (std::size_t e = 0; e < slice_; ++e) {
        const std::size_t i = s * slice_ + e;
        const std::size_t rl = i < nrows_ ? row_nnz_[i] : 0;
        for (std::size_t j = 0; j < width; ++j) {
          const std::size_t k = base + j * slice_ + e;
          if (cols_[k] >= ncols_) {
            throw std::invalid_argument("SELL: column index out of range at stored row " +
                                        std::to_string(i));
          }
          if (j > 0 && j < rl && cols_[k] <= cols_[k - slice_]) {
            throw std::invalid_argument(
                "SELL: columns not strictly increasing in stored row " + std::to_string(i));
          }
        }
      }
    }
  }

 private:
  [[nodiscard]] static std::size_t clamp_slice(std::size_t slice_height) {
    if (slice_height == 0) throw std::invalid_argument("SELL: slice height must be >= 1");
    return slice_height;
  }

  void build_slice_ptr() {
    slice_ptr_.assign(slice_width_.size() + 1, 0);
    for (std::size_t s = 0; s < slice_width_.size(); ++s) {
      slice_ptr_[s + 1] =
          static_cast<Index>(slice_ptr_[s] + slice_ * slice_width_[s]);
    }
  }

  std::size_t nrows_ = 0;
  std::size_t ncols_ = 0;
  std::size_t slice_ = kDefaultSliceHeight;
  std::size_t window_ = kDefaultSortWindow;
  aligned_vector<index_type> perm_;
  aligned_vector<index_type> row_nnz_;
  aligned_vector<index_type> slice_width_;
  aligned_vector<index_type> slice_ptr_;
  aligned_vector<index_type> cols_;
  aligned_vector<double> values_;
};

/// The paper's main setting: 32-bit indices.
using SellMatrix = Sell<std::uint32_t>;
/// The §V-B wide-index setting: 64-bit indices.
using Sell64Matrix = Sell<std::uint64_t>;

/// y = A * x for an unprotected SELL matrix (baseline SpMV kernel). Each
/// stored row accumulates in ascending-slot order — bit-identical to the CSR
/// traversal of original row perm[i] — and the finished sum is scattered to
/// y[perm[i]]. Slices are independent and the permutation is a bijection, so
/// parallelising over slices is race-free.
///
/// Rows are accumulated CSR-style with the sum in a register; a stored row's
/// slots sit at stride C inside its slice's own small slab (C * width
/// doubles — L1-resident), so the traversal still consumes one contiguous
/// slab after another, and the sigma-sorted lengths keep the inner trip
/// counts uniform within a slice.
template <class Index>
void spmv(const Sell<Index>& a, const double* x, double* y) noexcept {
  const auto* row_nnz = a.row_nnz().data();
  const auto* perm = a.perm().data();
  const auto* cols = a.cols().data();
  const auto* values = a.values().data();
  const auto* slice_ptr = a.slice_ptr().data();
  const std::size_t nrows = a.nrows();
  const std::size_t slice = a.slice_height();
#pragma omp parallel for schedule(static)
  for (std::int64_t s = 0; s < static_cast<std::int64_t>(a.nslices()); ++s) {
    const std::size_t base = slice_ptr[s];
    const std::size_t r0 = static_cast<std::size_t>(s) * slice;
    const std::size_t count = std::min(slice, nrows - r0);
    for (std::size_t e = 0; e < count; ++e) {
      const std::size_t row_base = base + e;
      double sum = 0.0;
      for (std::size_t j = 0; j < row_nnz[r0 + e]; ++j) {
        sum += values[row_base + j * slice] * x[cols[row_base + j * slice]];
      }
      y[perm[r0 + e]] = sum;
    }
  }
}

}  // namespace abft::sparse
