// TileGeometry: the runtime crc32c-tile partition (power-of-two slots in
// [16, 256], tail folding, >= 4-slot tiles). Scheme-level round-trip and
// flip tests at every geometry live in test_element_schemes.cpp; this suite
// covers the partition arithmetic itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>

#include "abft/dispatch.hpp"
#include "abft/tile_geometry.hpp"

namespace {

using namespace abft;

constexpr std::size_t kValid[] = {16, 32, 64, 128, 256};

TEST(TileGeometry, DefaultIsTheOriginalFixed64) {
  const TileGeometry g;
  EXPECT_EQ(g.slots(), 64u);
  EXPECT_EQ(g.slots(), TileGeometry::kDefaultSlots);
  EXPECT_EQ(g, TileGeometry{64});
}

TEST(TileGeometry, AcceptsEveryPowerOfTwoInRange) {
  for (const std::size_t s : kValid) {
    SCOPED_TRACE(s);
    EXPECT_TRUE(TileGeometry::valid_slots(s));
    EXPECT_EQ(TileGeometry{s}.slots(), s);
    EXPECT_EQ(TileGeometry{s}.max_tile_span(), s + TileGeometry::kSpareSlots - 1);
  }
}

TEST(TileGeometry, RejectsEverythingElse) {
  for (const std::size_t s : {0u, 1u, 4u, 8u, 15u, 17u, 24u, 48u, 63u, 65u,
                              96u, 129u, 255u, 257u, 512u, 1024u}) {
    SCOPED_TRACE(s);
    EXPECT_FALSE(TileGeometry::valid_slots(s));
    EXPECT_THROW(TileGeometry{s}, std::invalid_argument);
  }
}

TEST(TileGeometry, InvalidSizeErrorNamesTheValidValues) {
  // The same typed error and valid-values phrasing the parse_* helpers use,
  // so CLI layers can surface either identically.
  try {
    TileGeometry g{48};
    FAIL() << "48 slots must not construct";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "invalid tile-slots: '48' (valid tile-slots are: "
                 "16, 32, 64, 128, 256)");
  }
}

TEST(TileGeometry, ParseTileSlotsAgreesWithValidation) {
  for (const std::size_t s : kValid) {
    EXPECT_EQ(parse_tile_slots(std::to_string(s)), s);
  }
  EXPECT_THROW((void)parse_tile_slots("0"), std::invalid_argument);
  EXPECT_THROW((void)parse_tile_slots("48"), std::invalid_argument);
  EXPECT_THROW((void)parse_tile_slots("sixty-four"), std::invalid_argument);
}

TEST(TileGeometry, NumTilesTailFoldRule) {
  const TileGeometry g{64};
  EXPECT_EQ(g.num_tiles(0), 0u);
  EXPECT_EQ(g.num_tiles(64), 1u);
  EXPECT_EQ(g.num_tiles(128), 2u);
  // Tails shorter than kSpareSlots fold backwards into the previous tile...
  EXPECT_EQ(g.num_tiles(65), 1u);
  EXPECT_EQ(g.num_tiles(67), 1u);
  // ...tails of kSpareSlots or more stand alone...
  EXPECT_EQ(g.num_tiles(68), 2u);
  EXPECT_EQ(g.num_tiles(127), 2u);
  // ...and a slab smaller than one tile is its own (short) tile.
  EXPECT_EQ(g.num_tiles(3), 1u);
  EXPECT_EQ(g.num_tiles(4), 1u);
  EXPECT_EQ(g.num_tiles(63), 1u);
}

TEST(TileGeometry, PartitionInvariantsAtEverySizeAndTotal) {
  for (const std::size_t s : kValid) {
    const TileGeometry g{s};
    for (std::size_t total = TileGeometry::kSpareSlots; total <= 3 * s + 9; ++total) {
      SCOPED_TRACE(::testing::Message() << "slots=" << s << " total=" << total);
      const std::size_t n = g.num_tiles(total);
      ASSERT_GE(n, 1u);

      // Tiles partition [0, total): contiguous, exhaustive, within span
      // bounds, and never shorter than the spare-slot floor.
      std::size_t covered = 0;
      for (std::size_t t = 0; t < n; ++t) {
        ASSERT_EQ(g.tile_begin(t), covered);
        const std::size_t span = g.tile_slots(t, total);
        ASSERT_GE(span, std::min(total, TileGeometry::kSpareSlots));
        ASSERT_LE(span, g.max_tile_span());
        covered += span;
      }
      ASSERT_EQ(covered, total);

      // tile_of agrees with the partition for every slot, including the
      // folded-tail slots past the last nominal boundary.
      for (std::size_t slot = 0; slot < total; ++slot) {
        const std::size_t t = g.tile_of(slot, total);
        ASSERT_LT(t, n);
        ASSERT_GE(slot, g.tile_begin(t));
        ASSERT_LT(slot, g.tile_begin(t) + g.tile_slots(t, total));
      }
    }
  }
}

TEST(TileGeometry, TileOfClampsFoldedTailSlots) {
  const TileGeometry g{16};
  // total = 33: tiles [0,16) [16,33) — the 1-slot tail folded into tile 1.
  EXPECT_EQ(g.num_tiles(33), 2u);
  EXPECT_EQ(g.tile_slots(1, 33), 17u);
  EXPECT_EQ(g.tile_of(32, 33), 1u);  // nominal tile 2 clamps to the last tile
  EXPECT_EQ(g.tile_of(15, 33), 0u);
  EXPECT_EQ(g.tile_of(16, 33), 1u);
}

}  // namespace
