// Runtime scheme selection -> compile-time policy dispatch, across the full
// (width x element x row x vector) matrix.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>

#include "abft/dispatch.hpp"

namespace {

using namespace abft;

TEST(ParseScheme, RoundTripsAllNames) {
  for (auto s : ecc::kAllSchemes) {
    EXPECT_EQ(parse_scheme(ecc::to_string(s)), s);
  }
  EXPECT_THROW((void)parse_scheme("hamming"), std::invalid_argument);
  EXPECT_THROW((void)parse_scheme(""), std::invalid_argument);
  EXPECT_THROW((void)parse_scheme("SED"), std::invalid_argument);  // case-sensitive
}

TEST(ParseScheme, ErrorListsValidNames) {
  try {
    (void)parse_scheme("hamming");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    for (auto s : ecc::kAllSchemes) {
      EXPECT_NE(what.find(ecc::to_string(s)), std::string::npos)
          << "missing '" << ecc::to_string(s) << "' in: " << what;
    }
  }
}

TEST(ParseIndexWidth, RoundTripsAndRejects) {
  EXPECT_EQ(parse_index_width("32"), IndexWidth::i32);
  EXPECT_EQ(parse_index_width("64"), IndexWidth::i64);
  for (auto w : kAllIndexWidths) {
    EXPECT_EQ(parse_index_width(to_string(w)), w);
  }
  EXPECT_THROW((void)parse_index_width("128"), std::invalid_argument);
}

TEST(ParseErrors, AllThreeParsersShareTheValidValuesFormatter) {
  // One formatter behind parse_scheme / parse_index_width / parse_format:
  // the same "(valid <what>s are: ...)" shape, each enumerating its whole
  // registry, so the lists cannot drift apart.
  const auto message_of = [](auto&& fn) -> std::string {
    try {
      fn();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  const std::string scheme_msg = message_of([] { (void)parse_scheme("bogus"); });
  const std::string width_msg = message_of([] { (void)parse_index_width("bogus"); });
  const std::string format_msg = message_of([] { (void)parse_format("bogus"); });

  EXPECT_NE(scheme_msg.find("(valid scheme names are: "), std::string::npos)
      << scheme_msg;
  EXPECT_NE(width_msg.find("(valid index widths are: "), std::string::npos) << width_msg;
  EXPECT_NE(format_msg.find("(valid matrix formats are: "), std::string::npos)
      << format_msg;
  for (auto s : ecc::kAllSchemes) {
    EXPECT_NE(scheme_msg.find(ecc::to_string(s)), std::string::npos);
  }
  for (auto w : kAllIndexWidths) {
    EXPECT_NE(width_msg.find(to_string(w)), std::string::npos);
  }
  for (auto f : kAllFormats) {
    EXPECT_NE(format_msg.find(to_string(f)), std::string::npos);
  }
}

TEST(ParseFormat, RoundTripsAndRejects) {
  EXPECT_EQ(parse_format("csr"), MatrixFormat::csr);
  EXPECT_EQ(parse_format("ell"), MatrixFormat::ell);
  EXPECT_EQ(parse_format("sell"), MatrixFormat::sell);
  for (auto f : kAllFormats) {
    EXPECT_EQ(parse_format(to_string(f)), f);
  }
  EXPECT_THROW((void)parse_format("coo"), std::invalid_argument);
  EXPECT_THROW((void)parse_format("ELL"), std::invalid_argument);  // case-sensitive
  EXPECT_THROW((void)parse_format("sell-c-sigma"), std::invalid_argument);
  EXPECT_THROW((void)parse_format(""), std::invalid_argument);
}

TEST(ParseFormat, ErrorListsValidFormats) {
  try {
    (void)parse_format("coo");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    for (auto f : kAllFormats) {
      EXPECT_NE(what.find(to_string(f)), std::string::npos)
          << "missing '" << to_string(f) << "' in: " << what;
    }
  }
}

TEST(DispatchFormat, MapsFormatsToTags) {
  const auto fmt = [](MatrixFormat f) {
    return dispatch_format(f, []<class Fmt>() { return Fmt::kFormat; });
  };
  EXPECT_EQ(fmt(MatrixFormat::csr), MatrixFormat::csr);
  EXPECT_EQ(fmt(MatrixFormat::ell), MatrixFormat::ell);
  EXPECT_EQ(fmt(MatrixFormat::sell), MatrixFormat::sell);
}

TEST(DispatchElem, MapsSchemesToPolicies32) {
  const auto name = [](ecc::Scheme s) {
    return dispatch_elem(s, []<class ES>() { return ES::kScheme; });
  };
  EXPECT_EQ(name(ecc::Scheme::none), ecc::Scheme::none);
  EXPECT_EQ(name(ecc::Scheme::sed), ecc::Scheme::sed);
  EXPECT_EQ(name(ecc::Scheme::secded64), ecc::Scheme::secded64);
  EXPECT_EQ(name(ecc::Scheme::crc32c), ecc::Scheme::crc32c);
  EXPECT_EQ(name(ecc::Scheme::crc32c_tile), ecc::Scheme::crc32c_tile);
}

TEST(DispatchElem, TileCrcSelectsTileSchemeAtBothWidths) {
  const auto tile32 = dispatch_elem<std::uint32_t>(
      ecc::Scheme::crc32c_tile, []<class ES>() { return ES::kTileGranular; });
  const auto tile64 = dispatch_elem<std::uint64_t>(
      ecc::Scheme::crc32c_tile, []<class ES>() { return ES::kTileGranular; });
  EXPECT_TRUE(tile32);
  EXPECT_TRUE(tile64);
}

TEST(DispatchRowAndVec, TileCrcFallsBackToTheUnitStrideGroupedCrc) {
  // Structural arrays and dense vectors are contiguous already: on those
  // axes 'crc32c-tile' selects the same layouts as 'crc32c'.
  const auto row_scheme = dispatch_row(ecc::Scheme::crc32c_tile,
                                       []<class RS>() { return RS::kScheme; });
  EXPECT_EQ(row_scheme, ecc::Scheme::crc32c);
  const auto vec_scheme = dispatch_vec(ecc::Scheme::crc32c_tile,
                                       []<class VS>() { return VS::kScheme; });
  EXPECT_EQ(vec_scheme, ecc::Scheme::crc32c);
}

TEST(DispatchProtection, TileCrcUnavailableOnCsrAvailableOnSlabFormats) {
  for (auto width : {IndexWidth::i32, IndexWidth::i64}) {
    const SchemeTriple t(ecc::Scheme::crc32c_tile, ecc::Scheme::sed, ecc::Scheme::sed);
    try {
      dispatch_protection(MatrixFormat::csr, width, t,
                          []<class Fmt, class Index, class ES, class SS, class VS>() {});
      FAIL() << "expected SchemeUnavailableError at width " << to_string(width);
    } catch (const SchemeUnavailableError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("crc32c-tile"), std::string::npos) << what;
      EXPECT_NE(what.find("csr"), std::string::npos) << what;
    }
    for (auto fmt : {MatrixFormat::ell, MatrixFormat::sell}) {
      const bool tile = dispatch_protection(
          fmt, width, t, []<class Fmt, class Index, class ES, class SS, class VS>() {
            return ES::kTileGranular && std::is_same_v<typename ES::index_type, Index>;
          });
      EXPECT_TRUE(tile) << to_string(fmt) << "/" << to_string(width);
    }
  }
}

TEST(DispatchUniformProtection, TileCrcKeepsGroupedCrcOnStructureAndVectorAxes) {
  const auto schemes_of = [](IndexWidth w) {
    return dispatch_uniform_protection(
        w, ecc::Scheme::crc32c_tile,
        []<class Index, class ES, class RS, class VS>() {
          return std::tuple(ES::kScheme, RS::kScheme, VS::kScheme);
        });
  };
  for (auto w : kAllIndexWidths) {
    const auto [es, rs, vs] = schemes_of(w);
    EXPECT_EQ(es, ecc::Scheme::crc32c_tile) << to_string(w);
    EXPECT_EQ(rs, ecc::Scheme::crc32c) << to_string(w);
    EXPECT_EQ(vs, ecc::Scheme::crc32c) << to_string(w);
  }
  // And the format-aware uniform overload refuses the CSR hole loudly.
  EXPECT_THROW(dispatch_uniform_protection(
                   MatrixFormat::csr, IndexWidth::i32, ecc::Scheme::crc32c_tile,
                   []<class Fmt, class Index, class ES, class SS, class VS>() {}),
               SchemeUnavailableError);
}

TEST(DispatchElem, Secded128UnavailableAt32Bits) {
  // No 128-bit element codeword exists in the 96-bit layout: a clear error,
  // not a silent downgrade onto SECDED(96,88).
  try {
    dispatch_elem(ecc::Scheme::secded128, []<class ES>() {});
    FAIL() << "expected SchemeUnavailableError";
  } catch (const SchemeUnavailableError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("secded128"), std::string::npos);
    EXPECT_NE(what.find("32-bit"), std::string::npos);
  }
}

TEST(DispatchElem, Secded128SelectsReal128BitLayoutAt64Bits) {
  // The lambda instantiates for every scheme branch, so probe Code's
  // existence instead of assuming it.
  const unsigned data_bits = dispatch_elem<std::uint64_t>(
      ecc::Scheme::secded128, []<class ES>() -> unsigned {
        if constexpr (requires { typename ES::Code; }) {
          return ES::Code::kDataBits;
        } else {
          return 0;
        }
      });
  EXPECT_EQ(data_bits, 120u);  // SECDED(128,120): the full 128-bit codeword
  const bool wide = dispatch_elem<std::uint64_t>(ecc::Scheme::secded128, []<class ES>() {
    return std::is_same_v<typename ES::index_type, std::uint64_t>;
  });
  EXPECT_TRUE(wide);
}

TEST(DispatchRow, MapsSchemesToPolicies32) {
  const auto group = [](ecc::Scheme s) {
    return dispatch_row(s, []<class RS>() { return RS::kGroup; });
  };
  EXPECT_EQ(group(ecc::Scheme::none), 1u);
  EXPECT_EQ(group(ecc::Scheme::sed), 1u);
  EXPECT_EQ(group(ecc::Scheme::secded64), 2u);
  EXPECT_EQ(group(ecc::Scheme::secded128), 4u);
  EXPECT_EQ(group(ecc::Scheme::crc32c), 8u);
}

TEST(DispatchRow, MapsSchemesToPolicies64) {
  // A spare byte per entry halves/quarters the group sizes (§V-B).
  const auto group = [](ecc::Scheme s) {
    return dispatch_row<std::uint64_t>(s, []<class RS>() { return RS::kGroup; });
  };
  EXPECT_EQ(group(ecc::Scheme::none), 1u);
  EXPECT_EQ(group(ecc::Scheme::sed), 1u);
  EXPECT_EQ(group(ecc::Scheme::secded64), 1u);
  EXPECT_EQ(group(ecc::Scheme::secded128), 2u);
  EXPECT_EQ(group(ecc::Scheme::crc32c), 4u);
}

TEST(DispatchVec, MapsSchemesToPolicies) {
  const auto group = [](ecc::Scheme s) {
    return dispatch_vec(s, []<class VS>() { return VS::kGroup; });
  };
  EXPECT_EQ(group(ecc::Scheme::none), 1u);
  EXPECT_EQ(group(ecc::Scheme::sed), 1u);
  EXPECT_EQ(group(ecc::Scheme::secded64), 1u);
  EXPECT_EQ(group(ecc::Scheme::secded128), 2u);
  EXPECT_EQ(group(ecc::Scheme::crc32c), 4u);
}

TEST(DispatchReturn, ForwardsReturnValues) {
  const std::string label = dispatch_vec(ecc::Scheme::crc32c, []<class VS>() {
    return std::string(ecc::to_string(VS::kScheme));
  });
  EXPECT_EQ(label, "crc32c");
}

TEST(DispatchProtection, CoversFullWidthSchemeMatrix) {
  // Every (width x element x row x vector) combination the CLI can request
  // must resolve to a consistent set of policy types.
  for (auto width : {IndexWidth::i32, IndexWidth::i64}) {
    for (auto es : ecc::kAllSchemes) {
      if (width == IndexWidth::i32 && es == ecc::Scheme::secded128) {
        EXPECT_THROW(dispatch_protection(
                         width, SchemeTriple(es, ecc::Scheme::sed, ecc::Scheme::sed),
                         []<class Index, class ES, class RS, class VS>() {}),
                     SchemeUnavailableError);
        continue;
      }
      for (auto rs : ecc::kAllSchemes) {
        const bool ok = dispatch_protection(
            width, SchemeTriple(es, rs, ecc::Scheme::secded64),
            []<class Index, class ES, class RS, class VS>() {
              constexpr bool widths_agree =
                  std::is_same_v<typename ES::index_type, Index> &&
                  std::is_same_v<typename RS::index_type, Index>;
              return widths_agree && std::is_same_v<VS, VecSecded64>;
            });
        EXPECT_TRUE(ok) << ecc::to_string(es) << "/" << ecc::to_string(rs);
      }
    }
  }
}

TEST(DispatchUniformProtection, AppliesElementDowngradePolicyOnce) {
  // The one hole in the matrix: secded128's element axis at 32-bit width
  // falls back to the 96-bit SECDED code instead of throwing — this is the
  // single home of that policy for all uniform-protection drivers.
  const auto elem_bits = [](IndexWidth w) {
    return dispatch_uniform_protection(
        w, ecc::Scheme::secded128,
        []<class Index, class ES, class RS, class VS>() -> unsigned {
          // The lambda instantiates for every scheme branch; only the SECDED
          // element schemes carry a Code.
          if constexpr (requires { typename ES::Code; }) {
            return ES::Code::kDataBits;
          } else {
            return 0;
          }
        });
  };
  EXPECT_EQ(elem_bits(IndexWidth::i32), 88u);   // SECDED(96,88) downgrade
  EXPECT_EQ(elem_bits(IndexWidth::i64), 120u);  // genuine SECDED(128,120)
  // Row and vector axes keep their 128-bit layouts at both widths.
  const auto row_group = [](IndexWidth w) {
    return dispatch_uniform_protection(
        w, ecc::Scheme::secded128,
        []<class Index, class ES, class RS, class VS>() { return RS::kGroup; });
  };
  EXPECT_EQ(row_group(IndexWidth::i32), 4u);
  EXPECT_EQ(row_group(IndexWidth::i64), 2u);
}

TEST(DispatchProtection, InvalidFormatSchemeComboRaisesSchemeUnavailable) {
  // The secded128-at-32-bit hole applies on every format axis: the
  // format-aware overload must surface the same clear error, not a silent
  // downgrade, for each storage format.
  for (auto fmt : kAllFormats) {
    EXPECT_THROW(
        dispatch_protection(fmt, IndexWidth::i32,
                            SchemeTriple(ecc::Scheme::secded128, ecc::Scheme::sed,
                                         ecc::Scheme::sed),
                            []<class Fmt, class Index, class ES, class SS, class VS>() {}),
        SchemeUnavailableError)
        << to_string(fmt);
    // The same triple is valid at 64-bit width on every format.
    EXPECT_NO_THROW(dispatch_protection(
        fmt, IndexWidth::i64,
        SchemeTriple(ecc::Scheme::secded128, ecc::Scheme::sed, ecc::Scheme::sed),
        []<class Fmt, class Index, class ES, class SS, class VS>() {}));
  }
}

TEST(DispatchProtection, FormatAxisComposesWithSchemeMatrix) {
  // The 5-parameter overload hands the callable a format tag whose container
  // and plain-matrix templates agree with the dispatched width and schemes.
  for (auto fmt : kAllFormats) {
    for (auto width : {IndexWidth::i32, IndexWidth::i64}) {
      const bool ok = dispatch_protection(
          fmt, width, SchemeTriple(ecc::Scheme::secded64),
          []<class Fmt, class Index, class ES, class SS, class VS>() {
            using PM = typename Fmt::template protected_matrix<Index, ES, SS>;
            return std::is_same_v<typename PM::plain_type,
                                  typename Fmt::template plain_matrix<Index>> &&
                   std::is_same_v<typename ES::index_type, Index>;
          });
      EXPECT_TRUE(ok) << to_string(fmt) << "/" << to_string(width);
    }
  }
}

TEST(DispatchUniformProtection, FormatOverloadForwards) {
  const auto fmt_of = [](MatrixFormat f) {
    return dispatch_uniform_protection(
        f, IndexWidth::i32, ecc::Scheme::crc32c,
        []<class Fmt, class Index, class ES, class SS, class VS>() {
          return Fmt::kFormat;
        });
  };
  EXPECT_EQ(fmt_of(MatrixFormat::csr), MatrixFormat::csr);
  EXPECT_EQ(fmt_of(MatrixFormat::ell), MatrixFormat::ell);
  EXPECT_EQ(fmt_of(MatrixFormat::sell), MatrixFormat::sell);
}

TEST(RegionNames, CoverEveryRegion) {
  for (auto r : {Region::csr_values, Region::csr_cols, Region::csr_row_ptr,
                 Region::sell_values, Region::sell_cols, Region::sell_structure,
                 Region::dense_vector, Region::other}) {
    EXPECT_STRNE(to_string(r), "?");
  }
  EXPECT_STREQ(to_string(Region::sell_values), "sell_values");
  EXPECT_STREQ(to_string(Region::sell_cols), "sell_cols");
  EXPECT_STREQ(to_string(Region::sell_structure), "sell_structure");
}

TEST(DispatchProtection, UniformTripleBroadcastsScheme) {
  const SchemeTriple t(ecc::Scheme::crc32c);
  EXPECT_EQ(t.elem, ecc::Scheme::crc32c);
  EXPECT_EQ(t.row, ecc::Scheme::crc32c);
  EXPECT_EQ(t.vec, ecc::Scheme::crc32c);
}

TEST(SchemeCapability, MatchesPaperTable) {
  using ecc::capability;
  EXPECT_EQ(capability(ecc::Scheme::none).detect_bits, 0u);
  EXPECT_EQ(capability(ecc::Scheme::sed).detect_bits, 1u);
  EXPECT_EQ(capability(ecc::Scheme::sed).correct_bits, 0u);
  EXPECT_EQ(capability(ecc::Scheme::secded64).correct_bits, 1u);
  EXPECT_EQ(capability(ecc::Scheme::secded64).detect_bits, 2u);
  EXPECT_EQ(capability(ecc::Scheme::crc32c).detect_bits, 5u);
  // Tile codewords are larger than the HD=6 range but inside HD=4.
  EXPECT_EQ(capability(ecc::Scheme::crc32c_tile).detect_bits, 3u);
}

}  // namespace
