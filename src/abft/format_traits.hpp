/// \file format_traits.hpp
/// \brief The format axis of the protection stack.
///
/// The 32/64-bit stacks share one width parameter; this layer does the same
/// for the storage format. It has two faces:
///
///   - MatrixTraits<PM>: the per-thread row cursor of a *protected matrix
///     type*, which the generic kernels in protected_kernels.hpp drive.
///     Kernels and solvers talk only to this surface and the containers'
///     format-uniform accessors, never to container internals.
///   - Format tags (CsrFormat / EllFormat / SellFormat): the compile-time
///     handle a *runtime* format selection dispatches onto
///     (abft/dispatch.hpp). A tag maps (Index, ES, SS) onto the protected
///     container and builds the plain matrix from the CSR assembly every
///     generator/driver produces, applying the format's own minimum-row-size
///     remedy (CSR pads rows for the per-row CRC; the slab formats only need
///     a minimum slab width).
///
/// There are two containers, not three: ELLPACK is SELL-C-sigma with one
/// slice (C = nrows) and sigma = 1, so EllFormat maps onto ProtectedSell and
/// only its make_plain differs from SellFormat's.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <utility>

#include "abft/protected_csr.hpp"
#include "abft/protected_sell.hpp"
#include "sparse/csr.hpp"
#include "sparse/sell.hpp"
#include "sparse/transform.hpp"

namespace abft {

/// Sparse storage format of the protected matrix stack.
enum class MatrixFormat : std::uint8_t {
  csr,   ///< compressed sparse row — the paper's setting (§V-B)
  ell,   ///< ELLPACK(-R) — padded slabs + row widths; the stencil-shaped format,
         ///< held as single-slice SELL
  sell,  ///< SELL-C-sigma — sliced ELLPACK with sigma-window row sorting
};

[[nodiscard]] constexpr std::string_view to_string(MatrixFormat f) noexcept {
  switch (f) {
    case MatrixFormat::csr: return "csr";
    case MatrixFormat::ell: return "ell";
    case MatrixFormat::sell: return "sell";
  }
  return "?";
}

/// Traits of a protected matrix type; specialized per container.
template <class PM>
struct MatrixTraits;

template <class Index, class ES, class RS>
struct MatrixTraits<ProtectedCsr<Index, ES, RS>> {
  using cursor_type = CsrRowCursor<Index, ES, RS>;
};

template <class Index, class ES, class SS>
struct MatrixTraits<ProtectedSell<Index, ES, SS>> {
  using cursor_type = SellRowCursor<Index, ES, SS>;
};

/// A type the protected kernels can run over: any container with a
/// MatrixTraits specialization (and thus a row cursor).
template <class PM>
concept ProtectedMatrixType = requires { typename MatrixTraits<PM>::cursor_type; };

namespace detail {

/// Re-index a CSR assembly to the dispatch width. The io loader assembles
/// wide operators natively (no 32-bit intermediate ever exists for matrices
/// past the uint32 promotion boundary), so make_plain accepts either source
/// width. Narrowing is a checked copy: a runtime format/width dispatch
/// instantiates every (Index, SrcIndex) pair, so the conversion must exist —
/// it throws when the wide matrix genuinely exceeds the narrow range.
template <class Index, class SrcIndex>
[[nodiscard]] sparse::Csr<Index> csr_at_width(const sparse::Csr<SrcIndex>& a) {
  if constexpr (std::is_same_v<Index, SrcIndex>) {
    return a;
  } else if constexpr (sizeof(SrcIndex) < sizeof(Index)) {
    return sparse::Csr<Index>::from_csr(a);
  } else {
    constexpr std::size_t kMax = std::numeric_limits<Index>::max();
    if (a.nrows() > kMax || a.ncols() > kMax || a.nnz() > kMax) {
      throw std::invalid_argument(
          "make_plain: matrix exceeds the 32-bit index range and cannot be "
          "demoted from the wide assembly");
    }
    sparse::Csr<Index> m(a.nrows(), a.ncols());
    m.values().assign(a.values().begin(), a.values().end());
    m.cols().assign(a.cols().begin(), a.cols().end());
    m.row_ptr().assign(a.row_ptr().begin(), a.row_ptr().end());
    return m;
  }
}

}  // namespace detail

/// Format tag: CSR. Drivers assemble CSR operators at either width;
/// make_plain re-indexes to the requested width and applies the element
/// scheme's minimum-row-NNZ remedy (explicit zero fill-in,
/// sparse::pad_rows_to_min_nnz).
struct CsrFormat {
  static constexpr MatrixFormat kFormat = MatrixFormat::csr;

  template <class Index>
  using plain_matrix = sparse::Csr<Index>;

  template <class Index, class ES, class SS>
  using protected_matrix = ProtectedCsr<Index, ES, SS>;

  template <class Index, class ES, class SrcIndex>
  [[nodiscard]] static sparse::Csr<Index> make_plain(const sparse::Csr<SrcIndex>& src) {
    auto a = detail::csr_at_width<Index>(src);
    if constexpr (ES::kMinRowNnz > 1) {
      a = sparse::pad_rows_to_min_nnz(a, ES::kMinRowNnz);
    }
    return a;
  }
};

/// Format tag: ELLPACK, held as single-slice SELL (C = nrows, sigma = 1):
/// the slab is ELL's nrows x width column-major slab, slot (r, j) at
/// j*nrows + r, exactly as sparse::Ell lays it out, under the identity
/// permutation (which ProtectedSell then does not store). The per-row CRC's
/// minimum becomes a minimum slab *width* (the checksum lives in the first
/// slots of the padded row), so no fill-in entries are ever added.
struct EllFormat {
  static constexpr MatrixFormat kFormat = MatrixFormat::ell;

  template <class Index>
  using plain_matrix = sparse::Sell<Index>;

  template <class Index, class ES, class SS>
  using protected_matrix = ProtectedSell<Index, ES, SS>;

  template <class Index, class ES, class SrcIndex>
  [[nodiscard]] static sparse::Sell<Index> make_plain(const sparse::Csr<SrcIndex>& src) {
    auto a = detail::csr_at_width<Index>(src);
    const std::size_t c = std::max<std::size_t>(a.nrows(), 1);
    return sparse::Sell<Index>::from_csr(a, ES::kMinRowNnz, c, 1);
  }
};

/// Format tag: SELL-C-sigma. make_plain converts the CSR assembly into
/// sigma-sorted slice slabs with the default slice height and sort window
/// (which keep the permutation local to the SpMV chunks, as ProtectedSell
/// requires); the per-row CRC's minimum becomes a minimum slice *width*, so
/// no fill-in entries are ever added.
struct SellFormat {
  static constexpr MatrixFormat kFormat = MatrixFormat::sell;

  template <class Index>
  using plain_matrix = sparse::Sell<Index>;

  template <class Index, class ES, class SS>
  using protected_matrix = ProtectedSell<Index, ES, SS>;

  template <class Index, class ES, class SrcIndex>
  [[nodiscard]] static sparse::Sell<Index> make_plain(const sparse::Csr<SrcIndex>& src) {
    return sparse::Sell<Index>::from_csr(detail::csr_at_width<Index>(src), ES::kMinRowNnz);
  }
};

}  // namespace abft
