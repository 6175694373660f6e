/// \file dispatch.hpp
/// \brief Runtime scheme selection -> compile-time template instantiation.
///
/// Benches, examples and fault campaigns pick protection schemes, the index
/// width and the storage format from the command line; this header maps an
/// ecc::Scheme value (plus an IndexWidth and a MatrixFormat) onto the
/// corresponding policy/container types and invokes a generic callable with
/// them. Dispatchers are per-axis (element / structure / dense-vector /
/// format) so binaries instantiate only the combinations they actually
/// measure; dispatch_protection() composes the axes — (width x element x
/// structure x vector) for the CSR-only entry point, and additionally the
/// format for full-matrix drivers that take a MatrixFormat first argument.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "abft/element_schemes.hpp"
#include "abft/format_traits.hpp"
#include "abft/scheme_errors.hpp"
#include "abft/structure_schemes.hpp"
#include "abft/vector_schemes.hpp"
#include "ecc/crc32c.hpp"
#include "ecc/scheme.hpp"
#include "ecc/simd.hpp"

namespace abft {

/// Index width of the protected CSR stack being dispatched.
enum class IndexWidth : std::uint8_t {
  i32,  ///< 32-bit indices (the paper's main setting)
  i64,  ///< 64-bit indices (§V-B "easily extended" scenario)
};

[[nodiscard]] constexpr std::string_view to_string(IndexWidth w) noexcept {
  return w == IndexWidth::i32 ? "32" : "64";
}

namespace detail {

/// The one home of the width-axis hole's message (see dispatch_elem).
[[noreturn]] inline void throw_secded128_unavailable_at_32bit() {
  throw SchemeUnavailableError(
      "element scheme 'secded128' is unavailable at 32-bit index width: the "
      "element codeword is only 96 bits (SECDED(96,88)); use 'secded64' or "
      "switch to 64-bit indices");
}

}  // namespace detail

/// Throw the SchemeUnavailableError dispatch_protection raises for a
/// secded128 element request at 32-bit width. Drivers that dispatch a uniform
/// scheme through dispatch_uniform_protection (which would downgrade that
/// request) call this first to keep the explicit-selection behaviour.
inline void reject_unavailable_width_scheme(IndexWidth width, ecc::Scheme elem) {
  if (width == IndexWidth::i32 && elem == ecc::Scheme::secded128) {
    detail::throw_secded128_unavailable_at_32bit();
  }
}

/// Invoke `f.template operator()<ElemScheme>()` for the element scheme
/// matching \p s at index width \p Index (default: 32-bit).
///
/// secded128 is width-aware: at 64-bit width it selects the real 128-bit
/// element codeword (SECDED(128,120), schemes::ElemSecded<uint64_t>); at
/// 32-bit width the element codeword is only 96 bits, so the request is
/// rejected with a clear error instead of being silently downgraded.
template <class Index = std::uint32_t, class F>
decltype(auto) dispatch_elem(ecc::Scheme s, F&& f) {
  switch (s) {
    case ecc::Scheme::none:
      return std::forward<F>(f).template operator()<schemes::ElemNone<Index>>();
    case ecc::Scheme::sed:
      return std::forward<F>(f).template operator()<schemes::ElemSed<Index>>();
    case ecc::Scheme::secded64:
      return std::forward<F>(f).template operator()<schemes::ElemSecded<Index>>();
    case ecc::Scheme::secded128:
      if constexpr (sizeof(Index) == 8) {
        return std::forward<F>(f).template operator()<schemes::ElemSecded<Index>>();
      } else {
        detail::throw_secded128_unavailable_at_32bit();
      }
    case ecc::Scheme::crc32c:
      return std::forward<F>(f).template operator()<schemes::ElemCrc32c<Index>>();
    case ecc::Scheme::crc32c_tile:
      // Valid at both widths; the *format* hole (CSR has no slab to tile) is
      // rejected by the format-aware dispatchers and by ProtectedCsr itself.
      return std::forward<F>(f).template operator()<schemes::ElemCrc32cTile<Index>>();
  }
  throw std::invalid_argument("dispatch_elem: unknown scheme");
}

/// Invoke `f.template operator()<RowScheme>()` for the row-pointer scheme
/// matching \p s at index width \p Index. Every scheme has a layout at both
/// widths (see structure_schemes.hpp for the group-size table).
template <class Index = std::uint32_t, class F>
decltype(auto) dispatch_row(ecc::Scheme s, F&& f) {
  switch (s) {
    case ecc::Scheme::none:
      return std::forward<F>(f).template operator()<schemes::RowNone<Index>>();
    case ecc::Scheme::sed:
      return std::forward<F>(f).template operator()<schemes::RowSed<Index>>();
    case ecc::Scheme::secded64:
      return std::forward<F>(f).template operator()<schemes::RowSecded<Index>>();
    case ecc::Scheme::secded128:
      return std::forward<F>(f).template operator()<schemes::RowSecded128<Index>>();
    case ecc::Scheme::crc32c:
    // The tile layout exists only on the element axis; structural arrays are
    // already contiguous, so their per-group CRC *is* the unit-stride layout.
    case ecc::Scheme::crc32c_tile:
      return std::forward<F>(f).template operator()<schemes::RowCrc32c<Index>>();
  }
  throw std::invalid_argument("dispatch_row: unknown scheme");
}

/// Invoke `f.template operator()<VecScheme>()` for the dense-vector scheme.
/// Dense vectors hold doubles at either index width, so there is no width
/// parameter on this axis.
template <class F>
decltype(auto) dispatch_vec(ecc::Scheme s, F&& f) {
  switch (s) {
    case ecc::Scheme::none: return std::forward<F>(f).template operator()<VecNone>();
    case ecc::Scheme::sed: return std::forward<F>(f).template operator()<VecSed>();
    case ecc::Scheme::secded64:
      return std::forward<F>(f).template operator()<VecSecded64>();
    case ecc::Scheme::secded128:
      return std::forward<F>(f).template operator()<VecSecded128>();
    case ecc::Scheme::crc32c:
    // Dense vectors are contiguous; the grouped CRC is already unit-stride.
    case ecc::Scheme::crc32c_tile:
      return std::forward<F>(f).template operator()<VecCrc32c>();
  }
  throw std::invalid_argument("dispatch_vec: unknown scheme");
}

/// One runtime protection selection: a scheme per protected structure.
struct SchemeTriple {
  ecc::Scheme elem = ecc::Scheme::none;  ///< CSR elements (value + column)
  ecc::Scheme row = ecc::Scheme::none;   ///< CSR row pointers
  ecc::Scheme vec = ecc::Scheme::none;   ///< dense solver vectors

  SchemeTriple() = default;
  constexpr SchemeTriple(ecc::Scheme e, ecc::Scheme r, ecc::Scheme v) noexcept
      : elem(e), row(r), vec(v) {}
  /// Uniform protection: the same scheme on all three structures.
  explicit constexpr SchemeTriple(ecc::Scheme s) noexcept : elem(s), row(s), vec(s) {}
};

/// Invoke `f.template operator()<Fmt>()` for the format tag matching \p fmt
/// (CsrFormat / EllFormat / SellFormat, see format_traits.hpp).
template <class F>
decltype(auto) dispatch_format(MatrixFormat fmt, F&& f) {
  switch (fmt) {
    case MatrixFormat::csr: return std::forward<F>(f).template operator()<CsrFormat>();
    case MatrixFormat::ell: return std::forward<F>(f).template operator()<EllFormat>();
    case MatrixFormat::sell:
      return std::forward<F>(f).template operator()<SellFormat>();
  }
  throw std::invalid_argument("dispatch_format: unknown format");
}

/// Invoke `f.template operator()<Index, ES, RS, VS>()` for the full
/// (width x element x structure x vector) combination selected at runtime —
/// the single entry point for CSR-only drivers covering the whole matrix.
/// Format-aware drivers use the MatrixFormat overload below.
template <class F>
decltype(auto) dispatch_protection(IndexWidth width, const SchemeTriple& t, F&& f) {
  const auto with_index = [&]<class Index>() -> decltype(auto) {
    return dispatch_elem<Index>(t.elem, [&]<class ES>() -> decltype(auto) {
      return dispatch_row<Index>(t.row, [&]<class RS>() -> decltype(auto) {
        return dispatch_vec(t.vec, [&]<class VS>() -> decltype(auto) {
          return std::forward<F>(f).template operator()<Index, ES, RS, VS>();
        });
      });
    });
  };
  return width == IndexWidth::i64
             ? with_index.template operator()<std::uint64_t>()
             : with_index.template operator()<std::uint32_t>();
}

namespace detail {

/// The one home of the per-format element-axis hole: the tile-codeword CRC
/// tiles a physical slab, and CSR has none — its rows are already
/// unit-stride, so the per-row 'crc32c' layout is the contiguous one there.
inline void reject_unavailable_format_scheme(MatrixFormat fmt, ecc::Scheme elem) {
  if (fmt == MatrixFormat::csr && elem == ecc::Scheme::crc32c_tile) {
    throw SchemeUnavailableError(
        "element scheme 'crc32c-tile' is unavailable for the csr format: CSR rows "
        "are already unit-stride, so the per-row codeword ('crc32c') is the "
        "contiguous layout; crc32c-tile applies to the slab formats (ell, sell)");
  }
}

}  // namespace detail

/// Invoke `f.template operator()<Fmt, Index, ES, SS, VS>()` for the full
/// (format x width x element x structure x vector) combination selected at
/// runtime. `Fmt` is a format tag; the callable obtains the container as
/// `Fmt::template protected_matrix<Index, ES, SS>` and builds its plain
/// matrix with `Fmt::template make_plain<Index, ES>(csr)`.
template <class F>
decltype(auto) dispatch_protection(MatrixFormat fmt, IndexWidth width,
                                   const SchemeTriple& t, F&& f) {
  detail::reject_unavailable_format_scheme(fmt, t.elem);
  return dispatch_format(fmt, [&]<class Fmt>() -> decltype(auto) {
    return dispatch_protection(
        width, t, [&]<class Index, class ES, class SS, class VS>() -> decltype(auto) {
          return std::forward<F>(f).template operator()<Fmt, Index, ES, SS, VS>();
        });
  });
}

/// Invoke `f.template operator()<Index, ES, RS, VS>()` for the *uniform*
/// protection selection most drivers use (the same scheme on all three
/// structures), instantiating only the five uniform combinations per width
/// instead of dispatch_protection's full cross product.
///
/// The policy for the one hole in the matrix lives here, once: at 32-bit
/// width secded128 has no element codeword, so the element axis uses the
/// closest available code (SECDED(96,88)) while the row and vector axes keep
/// their genuine 128-bit layouts. Callers that must not downgrade should use
/// dispatch_protection with an explicit SchemeTriple and catch
/// SchemeUnavailableError.
template <class F>
decltype(auto) dispatch_uniform_protection(IndexWidth width, ecc::Scheme s, F&& f) {
  const auto with_index = [&]<class Index>() -> decltype(auto) {
    switch (s) {
      case ecc::Scheme::none:
        return std::forward<F>(f)
            .template operator()<Index, schemes::ElemNone<Index>, schemes::RowNone<Index>,
                                 VecNone>();
      case ecc::Scheme::sed:
        return std::forward<F>(f)
            .template operator()<Index, schemes::ElemSed<Index>, schemes::RowSed<Index>,
                                 VecSed>();
      case ecc::Scheme::secded64:
        return std::forward<F>(f)
            .template operator()<Index, schemes::ElemSecded<Index>,
                                 schemes::RowSecded<Index>, VecSecded64>();
      case ecc::Scheme::secded128:
        // ElemSecded<Index> is the genuine 128-bit codeword at 64-bit width
        // and the documented closest-available downgrade at 32-bit width.
        return std::forward<F>(f)
            .template operator()<Index, schemes::ElemSecded<Index>,
                                 schemes::RowSecded128<Index>, VecSecded128>();
      case ecc::Scheme::crc32c:
        return std::forward<F>(f)
            .template operator()<Index, schemes::ElemCrc32c<Index>,
                                 schemes::RowCrc32c<Index>, VecCrc32c>();
      case ecc::Scheme::crc32c_tile:
        // The tile layout is an element-axis concept; structure and vector
        // arrays are contiguous already, so uniform crc32c-tile keeps their
        // grouped-CRC layouts.
        return std::forward<F>(f)
            .template operator()<Index, schemes::ElemCrc32cTile<Index>,
                                 schemes::RowCrc32c<Index>, VecCrc32c>();
    }
    throw std::invalid_argument("dispatch_uniform_protection: unknown scheme");
  };
  return width == IndexWidth::i64
             ? with_index.template operator()<std::uint64_t>()
             : with_index.template operator()<std::uint32_t>();
}

/// Uniform protection with a format axis: invoke
/// `f.template operator()<Fmt, Index, ES, SS, VS>()`.
template <class F>
decltype(auto) dispatch_uniform_protection(MatrixFormat fmt, IndexWidth width,
                                           ecc::Scheme s, F&& f) {
  detail::reject_unavailable_format_scheme(fmt, s);
  return dispatch_format(fmt, [&]<class Fmt>() -> decltype(auto) {
    return dispatch_uniform_protection(
        width, s, [&]<class Index, class ES, class SS, class VS>() -> decltype(auto) {
          return std::forward<F>(f).template operator()<Fmt, Index, ES, SS, VS>();
        });
  });
}

/// Every dispatchable index width (drivers and tests iterate this instead of
/// hand-rolling the list).
inline constexpr IndexWidth kAllIndexWidths[] = {IndexWidth::i32, IndexWidth::i64};

/// Every dispatchable storage format, in declaration order (drivers and
/// tests iterate this instead of hand-rolling the list).
inline constexpr MatrixFormat kAllFormats[] = {MatrixFormat::csr, MatrixFormat::ell,
                                               MatrixFormat::sell};

namespace detail {

/// The one "valid <what>s are ..." formatter behind every parse_* error in
/// this header, so the three lists cannot drift apart. \p all is any range
/// whose elements \p to_str renders.
template <class Range, class ToString>
[[nodiscard]] std::string unknown_name_message(std::string_view what,
                                               std::string_view name, const Range& all,
                                               ToString&& to_str) {
  std::string msg = "unknown ";
  msg += what;
  msg += ": '";
  msg += name;
  msg += "' (valid ";
  msg += what;
  msg += "s are: ";
  bool first = true;
  for (const auto& v : all) {
    if (!first) msg += ", ";
    first = false;
    msg += to_str(v);
  }
  msg += ")";
  return msg;
}

}  // namespace detail

/// Parse a scheme name ("none", "sed", "secded64", "secded128", "crc32c",
/// "crc32c-tile").
[[nodiscard]] inline ecc::Scheme parse_scheme(std::string_view name) {
  for (auto s : ecc::kAllSchemes) {
    if (ecc::to_string(s) == name) return s;
  }
  throw std::invalid_argument(detail::unknown_name_message(
      "scheme name", name, ecc::kAllSchemes, [](auto s) { return ecc::to_string(s); }));
}

/// Parse an index width ("32" or "64").
[[nodiscard]] inline IndexWidth parse_index_width(std::string_view name) {
  for (const auto w : kAllIndexWidths) {
    if (to_string(w) == name) return w;
  }
  throw std::invalid_argument(detail::unknown_name_message(
      "index width", name, kAllIndexWidths, [](auto w) { return to_string(w); }));
}

/// Parse a storage format ("csr", "ell" or "sell").
[[nodiscard]] inline MatrixFormat parse_format(std::string_view name) {
  for (const auto f : kAllFormats) {
    if (to_string(f) == name) return f;
  }
  throw std::invalid_argument(detail::unknown_name_message(
      "matrix format", name, kAllFormats, [](auto f) { return to_string(f); }));
}

/// Every selectable CRC32C kernel, in declaration order.
inline constexpr ecc::CrcImpl kAllCrcImpls[] = {
    ecc::CrcImpl::auto_detect, ecc::CrcImpl::software, ecc::CrcImpl::hardware};

[[nodiscard]] constexpr std::string_view to_string(ecc::CrcImpl impl) noexcept {
  switch (impl) {
    case ecc::CrcImpl::auto_detect: return "auto";
    case ecc::CrcImpl::software: return "sw";
    case ecc::CrcImpl::hardware: return "hw";
  }
  return "?";
}

/// Parse a CRC32C kernel selection ("auto", "sw" or "hw").
[[nodiscard]] inline ecc::CrcImpl parse_crc_impl(std::string_view name) {
  for (const auto impl : kAllCrcImpls) {
    if (to_string(impl) == name) return impl;
  }
  throw std::invalid_argument(detail::unknown_name_message(
      "crc impl", name, kAllCrcImpls, [](auto i) { return to_string(i); }));
}

/// Every selectable SIMD batch-predicate implementation, in declaration order.
inline constexpr ecc::SimdImpl kAllSimdImpls[] = {
    ecc::SimdImpl::auto_detect, ecc::SimdImpl::scalar, ecc::SimdImpl::vector};

[[nodiscard]] constexpr std::string_view to_string(ecc::SimdImpl impl) noexcept {
  switch (impl) {
    case ecc::SimdImpl::auto_detect: return "auto";
    case ecc::SimdImpl::scalar: return "scalar";
    case ecc::SimdImpl::vector: return "vector";
  }
  return "?";
}

/// Parse a SIMD batch-predicate selection ("auto", "scalar" or "vector").
[[nodiscard]] inline ecc::SimdImpl parse_simd_impl(std::string_view name) {
  for (const auto impl : kAllSimdImpls) {
    if (to_string(impl) == name) return impl;
  }
  throw std::invalid_argument(detail::unknown_name_message(
      "simd impl", name, kAllSimdImpls, [](auto i) { return to_string(i); }));
}

/// Every legal crc32c-tile geometry, in ascending order (the power-of-two
/// sizes TileGeometry accepts).
inline constexpr std::size_t kAllTileSlots[] = {16, 32, 64, 128, 256};

/// Parse a crc32c-tile size ("16", "32", "64", "128" or "256" — the
/// --tile-slots flag). Errors use the same valid-values formatter as the
/// other parse_* functions.
[[nodiscard]] inline std::size_t parse_tile_slots(std::string_view name) {
  for (const auto s : kAllTileSlots) {
    if (std::to_string(s) == name) return s;
  }
  throw std::invalid_argument(detail::unknown_name_message(
      "tile-slot", name, kAllTileSlots,
      [](auto s) { return std::to_string(s); }));
}

}  // namespace abft
