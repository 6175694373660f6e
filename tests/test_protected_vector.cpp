// ProtectedVector container semantics: element access, bulk assign/extract,
// group padding, reader caching, writer buffering, verification and error
// policy (paper §VI-B / §VI-C); and the run codec the kernels decode and
// encode whole blocks with, against the per-group codec, under both CRC32C
// implementations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "abft/protected_kernels.hpp"
#include "abft/protected_vector.hpp"
#include "common/rng.hpp"
#include "faults/injector.hpp"

namespace {

using namespace abft;

template <class S>
class ProtectedVectorTest : public ::testing::Test {};

using AllSchemes = ::testing::Types<VecNone, VecSed, VecSecded64, VecSecded128, VecCrc32c>;
TYPED_TEST_SUITE(ProtectedVectorTest, AllSchemes);

TYPED_TEST(ProtectedVectorTest, FreshVectorIsZeroAndValid) {
  ProtectedVector<TypeParam> v(37);
  EXPECT_EQ(v.size(), 37u);
  EXPECT_EQ(v.verify_all(), 0u);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(v.load(i), 0.0);
}

TYPED_TEST(ProtectedVectorTest, StorageIsPaddedToWholeGroups) {
  for (std::size_t n : {1u, 7u, 8u, 9u, 63u, 64u, 65u}) {
    ProtectedVector<TypeParam> v(n);
    EXPECT_EQ(v.raw().size() % TypeParam::kGroup, 0u) << n;
    EXPECT_GE(v.raw().size(), n);
    EXPECT_LT(v.raw().size(), n + TypeParam::kGroup);
  }
}

TYPED_TEST(ProtectedVectorTest, StoreLoadRoundTrip) {
  Xoshiro256 rng(1);
  ProtectedVector<TypeParam> v(101);
  std::vector<double> expected(101);
  for (std::size_t i = 0; i < 101; ++i) {
    expected[i] = TypeParam::mask(rng.uniform(-50, 50));
    v.store(i, expected[i]);
  }
  for (std::size_t i = 0; i < 101; ++i) EXPECT_EQ(v.load(i), expected[i]);
  EXPECT_EQ(v.verify_all(), 0u);
}

TYPED_TEST(ProtectedVectorTest, AssignExtractRoundTrip) {
  Xoshiro256 rng(2);
  std::vector<double> raw(77);
  for (auto& x : raw) x = rng.uniform(-5, 5);
  ProtectedVector<TypeParam> v(0);
  v.assign({raw.data(), raw.size()});
  EXPECT_EQ(v.size(), 77u);
  std::vector<double> out(77, -1);
  v.extract(out);
  for (std::size_t i = 0; i < 77; ++i) EXPECT_EQ(out[i], TypeParam::mask(raw[i]));
}

TYPED_TEST(ProtectedVectorTest, GroupReaderReturnsSameAsLoad) {
  Xoshiro256 rng(3);
  ProtectedVector<TypeParam> v(64);
  for (std::size_t i = 0; i < 64; ++i) v.store(i, rng.uniform(-10, 10));
  GroupReader<TypeParam> reader(v);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(reader.get(i), v.load(i));
  // Strided access patterns too (the SpMV column pattern).
  GroupReader<TypeParam> reader2(v);
  for (std::size_t i = 0; i < 64; i += 5) EXPECT_EQ(reader2.get(i), v.load(i));
}

TYPED_TEST(ProtectedVectorTest, GroupWriterMatchesStores) {
  Xoshiro256 rng(4);
  std::vector<double> raw(50);
  for (auto& x : raw) x = rng.uniform(-10, 10);

  ProtectedVector<TypeParam> via_writer(50);
  {
    GroupWriter<TypeParam> writer(via_writer);
    for (double x : raw) writer.push(x);
  }
  ProtectedVector<TypeParam> via_store(50);
  for (std::size_t i = 0; i < 50; ++i) via_store.store(i, raw[i]);

  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(via_writer.load(i), via_store.load(i)) << i;
  }
  EXPECT_EQ(via_writer.verify_all(), 0u);
}

TYPED_TEST(ProtectedVectorTest, ChecksAreCounted) {
  FaultLog log;
  ProtectedVector<TypeParam> v(16, &log);
  (void)v.load(3);
  EXPECT_GE(log.checks(), 1u);
}

// ---------------------------------------------------------------------------
// Fault response (skipping VecNone, which cannot detect anything).
// ---------------------------------------------------------------------------

template <class S>
class ProtectedVectorFaultTest : public ::testing::Test {};

using DetectingSchemes = ::testing::Types<VecSed, VecSecded64, VecSecded128, VecCrc32c>;
TYPED_TEST_SUITE(ProtectedVectorFaultTest, DetectingSchemes);

TYPED_TEST(ProtectedVectorFaultTest, RandomFlipIsNeverSilent) {
  // Any single flip must be reported (corrected or uncorrectable): sweep
  // random positions over the raw storage.
  Xoshiro256 rng(5);
  for (int rep = 0; rep < 64; ++rep) {
    FaultLog log;
    ProtectedVector<TypeParam> v(32, &log, DuePolicy::record_only);
    for (std::size_t i = 0; i < 32; ++i) v.store(i, rng.uniform(-10, 10));
    log.clear();

    auto bytes = std::span<std::uint8_t>(reinterpret_cast<std::uint8_t*>(v.data()),
                                         v.raw().size_bytes());
    const std::size_t bit = rng.below(bytes.size() * 8);
    faults::flip_bit(bytes, bit);
    (void)v.verify_all();
    const bool dead_bit = log.corrected() == 0 && log.uncorrectable() == 0;
    if (dead_bit) {
      // Only allowed for schemes with unused storage slots (SECDED64 bit 7,
      // SECDED128 slots 3-4 of the second element).
      const bool may_have_dead_bits =
          std::is_same_v<TypeParam, VecSecded64> || std::is_same_v<TypeParam, VecSecded128>;
      EXPECT_TRUE(may_have_dead_bits) << "silent flip at bit " << bit;
    }
  }
}

TYPED_TEST(ProtectedVectorFaultTest, CorrectingSchemesRepairInPlace) {
  if (TypeParam::kScheme == ecc::Scheme::sed) {
    GTEST_SKIP() << "SED cannot correct";
  }
  Xoshiro256 rng(6);
  FaultLog log;
  ProtectedVector<TypeParam> v(24, &log, DuePolicy::record_only);
  std::vector<double> expected(24);
  for (std::size_t i = 0; i < 24; ++i) {
    expected[i] = TypeParam::mask(rng.uniform(-10, 10));
    v.store(i, expected[i]);
  }
  // Flip a data bit (bit 30 of element 5's storage, well above the
  // redundancy slots).
  auto bytes = std::span<std::uint8_t>(reinterpret_cast<std::uint8_t*>(v.data()),
                                       v.raw().size_bytes());
  faults::flip_bit(bytes, 5 * 64 + 30);
  EXPECT_EQ(v.verify_all(), 0u);
  EXPECT_GE(log.corrected(), 1u);
  for (std::size_t i = 0; i < 24; ++i) EXPECT_EQ(v.load(i), expected[i]) << i;
}

TEST(ProtectedVectorPolicy, SedThrowsOnDetectionByDefault) {
  ProtectedVector<VecSed> v(8);
  v.store(2, 1.5);
  auto bytes = std::span<std::uint8_t>(reinterpret_cast<std::uint8_t*>(v.data()),
                                       v.raw().size_bytes());
  faults::flip_bit(bytes, 2 * 64 + 17);
  EXPECT_THROW((void)v.load(2), UncorrectableError);
}

TEST(ProtectedVectorPolicy, RecordOnlyDoesNotThrow) {
  FaultLog log;
  ProtectedVector<VecSed> v(8, &log, DuePolicy::record_only);
  v.store(2, 1.5);
  auto bytes = std::span<std::uint8_t>(reinterpret_cast<std::uint8_t*>(v.data()),
                                       v.raw().size_bytes());
  faults::flip_bit(bytes, 2 * 64 + 17);
  EXPECT_NO_THROW((void)v.load(2));
  EXPECT_EQ(log.uncorrectable(), 1u);
  EXPECT_EQ(v.verify_all(), 1u);
}

TEST(ProtectedVectorPolicy, UncorrectableErrorCarriesLocation) {
  ProtectedVector<VecSed> v(8);
  v.store(0, 2.0);
  auto bytes = std::span<std::uint8_t>(reinterpret_cast<std::uint8_t*>(v.data()),
                                       v.raw().size_bytes());
  faults::flip_bit(bytes, 20);
  try {
    (void)v.load(0);
    FAIL() << "expected UncorrectableError";
  } catch (const UncorrectableError& e) {
    EXPECT_EQ(e.region(), Region::dense_vector);
    EXPECT_EQ(e.index(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Run codec: decode_run / encode_run against decode_group / encode_group, for
// every scheme under the software and the hardware CRC32C kernel.
// ---------------------------------------------------------------------------

template <class VS, ecc::CrcImpl Impl>
struct RunCase {
  using scheme = VS;
  static constexpr ecc::CrcImpl kImpl = Impl;
};

template <class C>
class RunCodecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (C::kImpl == ecc::CrcImpl::hardware && !ecc::crc32c_hw_available()) {
      GTEST_SKIP() << "SSE4.2 crc32 unavailable on this CPU: hardware leg skipped";
    }
    ecc::set_crc32c_impl(C::kImpl);
  }
  void TearDown() override { ecc::set_crc32c_impl(ecc::CrcImpl::auto_detect); }
};

using RunCases = ::testing::Types<
    RunCase<VecNone, ecc::CrcImpl::software>, RunCase<VecNone, ecc::CrcImpl::hardware>,
    RunCase<VecSed, ecc::CrcImpl::software>, RunCase<VecSed, ecc::CrcImpl::hardware>,
    RunCase<VecSecded64, ecc::CrcImpl::software>,
    RunCase<VecSecded64, ecc::CrcImpl::hardware>,
    RunCase<VecSecded128, ecc::CrcImpl::software>,
    RunCase<VecSecded128, ecc::CrcImpl::hardware>,
    RunCase<VecCrc32c, ecc::CrcImpl::software>, RunCase<VecCrc32c, ecc::CrcImpl::hardware>>;
TYPED_TEST_SUITE(RunCodecTest, RunCases);

/// Element counts whose group counts are not multiples of 4 or of 64 at any
/// group size (the last group padded where the size allows), plus exact
/// block multiples.
const std::vector<std::size_t> kRunSizes{1, 3, 7, 37, 255, 256, 257, 1001, 1024};

struct Decoded {
  std::vector<double> storage, logical;
  std::uint64_t checks = 0, corrected = 0, uncorrectable = 0;
  std::vector<FaultEvent> events;
};

/// Decode every group of \p v's storage the way the kernels do — one
/// detail::check_block per 64-group block — or, with \p per_group, with one
/// decode_group per group. \p v is left untouched; \p check_only passes a
/// null logical buffer.
template <class VS>
Decoded decode_all(const ProtectedVector<VS>& v, bool per_group, bool check_only = false) {
  constexpr std::size_t G = VS::kGroup;
  ProtectedVector<VS> w(v.size());
  std::copy(v.raw().begin(), v.raw().end(), w.raw().begin());
  Decoded d;
  d.logical.assign(w.raw().size(), -7.0);
  ErrorCapture capture;
  const std::size_t ngroups = w.groups();
  for (std::size_t g0 = 0; g0 < ngroups; g0 += kVecRunGroups) {
    const std::size_t n = std::min(kVecRunGroups, ngroups - g0);
    double* const out = check_only ? nullptr : d.logical.data() + g0 * G;
    if (!per_group) {
      // The kernels' block read: check and repair, then masked storage.
      detail::check_block(w, g0, n, capture);
      if (out != nullptr) {
        for (std::size_t e = 0; e < n * G; ++e) out[e] = VS::mask(w.data()[g0 * G + e]);
      }
      continue;
    }
    for (std::size_t g = g0; g < g0 + n; ++g) {
      double scratch[G];
      capture.record(Region::dense_vector,
                     VS::decode_group(w.data() + g * G,
                                      out != nullptr ? out + (g - g0) * G : scratch),
                     g);
    }
  }
  capture.add_checks(ngroups);
  FaultLog log;
  capture.commit(&log, DuePolicy::record_only);
  d.storage.assign(w.raw().begin(), w.raw().end());
  d.checks = log.checks();
  d.corrected = log.corrected();
  d.uncorrectable = log.uncorrectable();
  d.events = log.events();
  return d;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void expect_same_decode(const Decoded& run, const Decoded& group, const std::string& what) {
  EXPECT_TRUE(same_bits(run.storage, group.storage)) << what << ": storage repair differs";
  EXPECT_TRUE(same_bits(run.logical, group.logical)) << what << ": logical values differ";
  EXPECT_EQ(run.checks, group.checks) << what;
  EXPECT_EQ(run.corrected, group.corrected) << what;
  EXPECT_EQ(run.uncorrectable, group.uncorrectable) << what;
  ASSERT_EQ(run.events.size(), group.events.size()) << what;
  for (std::size_t i = 0; i < run.events.size(); ++i) {
    EXPECT_EQ(run.events[i].outcome, group.events[i].outcome) << what << " event " << i;
    EXPECT_EQ(run.events[i].index, group.events[i].index) << what << " event " << i;
  }
}

template <class VS>
ProtectedVector<VS> random_vector(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<double> raw(n);
  for (auto& x : raw) x = rng.uniform(-1e3, 1e3);
  ProtectedVector<VS> v(n);
  v.assign(raw);
  return v;
}

void flip(std::span<double> storage, std::size_t bit) {
  faults::flip_bit({reinterpret_cast<std::uint8_t*>(storage.data()), storage.size_bytes()},
                   bit);
}

TYPED_TEST(RunCodecTest, CleanRunDecodeEqualsGroupDecodeBitForBit) {
  using VS = typename TypeParam::scheme;
  constexpr std::size_t G = VS::kGroup;
  for (const std::size_t n : kRunSizes) {
    const auto v = random_vector<VS>(n, 11 + n);
    const std::size_t ngroups = v.groups();
    for (std::size_t g0 = 0; g0 < ngroups; g0 += kVecRunGroups) {
      const std::size_t len = std::min(kVecRunGroups, ngroups - g0);
      std::vector<double> run(len * G), group(len * G);
      EXPECT_EQ(VS::decode_run(v.data() + g0 * G, run.data(), len), 0u) << n;
      EXPECT_EQ(VS::decode_run(v.data() + g0 * G, nullptr, len), 0u) << n;
      std::vector<double> copy(v.data() + g0 * G, v.data() + (g0 + len) * G);
      for (std::size_t g = 0; g < len; ++g) {
        ASSERT_EQ(VS::decode_group(copy.data() + g * G, group.data() + g * G),
                  CheckOutcome::ok);
      }
      EXPECT_TRUE(same_bits(run, group)) << "n=" << n << " block at group " << g0;
    }
    expect_same_decode(decode_all(v, false), decode_all(v, true),
                       "clean n=" + std::to_string(n));
  }
}

TYPED_TEST(RunCodecTest, RunEncodeEqualsGroupEncodeBitForBit) {
  using VS = typename TypeParam::scheme;
  constexpr std::size_t G = VS::kGroup;
  Xoshiro256 rng(5);
  for (const std::size_t len : {std::size_t{1}, std::size_t{3}, std::size_t{5},
                                std::size_t{63}, std::size_t{64}}) {
    // Unmasked logical values: the encode clears the redundancy bits itself.
    std::vector<double> logical(len * G);
    for (auto& x : logical) x = rng.uniform(-1e6, 1e6);
    std::vector<double> run(len * G, -1.0), group(len * G, -2.0);
    VS::encode_run(logical.data(), run.data(), len);
    for (std::size_t g = 0; g < len; ++g) {
      VS::encode_group(logical.data() + g * G, group.data() + g * G);
    }
    EXPECT_TRUE(same_bits(run, group)) << len << " groups";
    EXPECT_EQ(VS::decode_run(run.data(), nullptr, len), 0u) << len << " groups";
  }
}

TYPED_TEST(RunCodecTest, EverySingleFlipIsRepairedAsTheGroupDecodeRepairsIt) {
  using VS = typename TypeParam::scheme;
  constexpr std::size_t G = VS::kGroup;
  // Two blocks, the second one partial: 64 + 37 groups, the last one padded
  // when the group holds more than one element.
  const std::size_t n = (kVecRunGroups + 37) * G - (G > 1 ? 1 : 0);
  const auto clean = random_vector<VS>(n, 23);
  const std::size_t last = clean.groups() - 1;
  for (const std::size_t g : {std::size_t{0}, kVecRunGroups - 1, kVecRunGroups, last}) {
    for (std::size_t bit = 0; bit < 64 * G; ++bit) {
      auto v = clean;
      flip(v.raw(), g * G * 64 + bit);
      const std::string what = "group " + std::to_string(g) + " bit " + std::to_string(bit);
      const auto run = decode_all(v, false);
      expect_same_decode(run, decode_all(v, true), what);
      expect_same_decode(decode_all(v, false, true), decode_all(v, true, true),
                         what + " (check only)");
      if (run.corrected + run.uncorrectable > 0) {
        ASSERT_EQ(run.events.size(), 1u) << what;
        EXPECT_EQ(run.events[0].index, g) << what;
      }
      if constexpr (VS::kScheme == ecc::Scheme::secded64 ||
                    VS::kScheme == ecc::Scheme::secded128 ||
                    VS::kScheme == ecc::Scheme::crc32c) {
        // Every stored bit of a correcting scheme is either redundancy the
        // decode ignores (SECDED64's spare bit 7) or corrected back exactly.
        EXPECT_EQ(run.uncorrectable, 0u) << what;
        if (run.corrected == 1) {
          EXPECT_TRUE(same_bits(run.storage,
                                std::vector<double>(clean.raw().begin(), clean.raw().end())))
              << what;
        }
      }
    }
  }
}

TYPED_TEST(RunCodecTest, TwoFlipsInOneGroupAreUncorrectable) {
  using VS = typename TypeParam::scheme;
  constexpr std::size_t G = VS::kGroup;
  auto v = random_vector<VS>(300, 31);
  const std::size_t g = 17;
  flip(v.raw(), g * G * 64 + 20);
  flip(v.raw(), g * G * 64 + 41);
  const auto run = decode_all(v, false);
  expect_same_decode(run, decode_all(v, true), "double flip");
  if constexpr (VS::kScheme == ecc::Scheme::secded64 ||
                VS::kScheme == ecc::Scheme::secded128 ||
                VS::kScheme == ecc::Scheme::crc32c) {
    EXPECT_EQ(run.uncorrectable, 1u);
    EXPECT_EQ(run.corrected, 0u);
    ASSERT_EQ(run.events.size(), 1u);
    EXPECT_EQ(run.events[0].index, g);
  }
}

TYPED_TEST(RunCodecTest, TwoDirtyGroupsInOneBlockCountTwiceWithTheMinimumExemplar) {
  using VS = typename TypeParam::scheme;
  constexpr std::size_t G = VS::kGroup;
  auto v = random_vector<VS>(1000, 37);
  // Same block (groups 64..127), higher group flipped first.
  for (const std::size_t g : {std::size_t{100}, std::size_t{70}}) flip(v.raw(), g * G * 64 + 30);
  const auto run = decode_all(v, false);
  expect_same_decode(run, decode_all(v, true), "two dirty groups");
  if constexpr (VS::kScheme != ecc::Scheme::none) {
    EXPECT_EQ(run.corrected + run.uncorrectable, 2u);
    ASSERT_FALSE(run.events.empty());
    EXPECT_EQ(run.events[0].index, 70u);
  }
}

}  // namespace
