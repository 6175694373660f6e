// Common substrate: bit helpers, RNG, aligned storage, fault log, check
// policy and the parallel-region error capture.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "abft/check_policy.hpp"
#include "abft/error_capture.hpp"
#include "common/aligned.hpp"
#include "common/bits.hpp"
#include "common/fault_log.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"

namespace {

using namespace abft;

TEST(Bits, MasksAndBitOps) {
  EXPECT_EQ(low_mask64(0), 0u);
  EXPECT_EQ(low_mask64(1), 1u);
  EXPECT_EQ(low_mask64(31), 0x7FFFFFFFu);
  EXPECT_EQ(low_mask64(64), ~std::uint64_t{0});
  EXPECT_EQ(low_mask32(24), 0x00FFFFFFu);
  EXPECT_EQ(low_mask32(32), 0xFFFFFFFFu);

  EXPECT_EQ(get_bit(0b1010, 1), 1u);
  EXPECT_EQ(get_bit(0b1010, 2), 0u);
  EXPECT_EQ(set_bit(0, 5, 1), 32u);
  EXPECT_EQ(set_bit(32, 5, 0), 0u);
  EXPECT_EQ(flip_bit(0, 63), std::uint64_t{1} << 63);
  EXPECT_EQ(words_for_bits(1), 1u);
  EXPECT_EQ(words_for_bits(64), 1u);
  EXPECT_EQ(words_for_bits(65), 2u);
  EXPECT_EQ(words_for_bits(128), 2u);
}

TEST(Bits, DoubleBitCastRoundTrip) {
  for (double v : {0.0, -0.0, 1.5, -3.25e300, 5e-324}) {
    EXPECT_EQ(bits_to_double(double_to_bits(v)), v);
  }
  EXPECT_EQ(double_to_bits(0.0), 0u);
  EXPECT_EQ(double_to_bits(-0.0), std::uint64_t{1} << 63);
}

TEST(Rng, DeterministicAndSeedSensitive) {
  Xoshiro256 a(1), b(1), c(2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  bool differs = false;
  Xoshiro256 a2(1);
  for (int i = 0; i < 100; ++i) differs = differs || (a2() != c());
  EXPECT_TRUE(differs);
}

TEST(Rng, BelowIsInRangeAndCoversValues) {
  Xoshiro256 rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, UniformIsInRange) {
  Xoshiro256 rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    const double w = rng.uniform(-2.0, 3.0);
    EXPECT_GE(w, -2.0);
    EXPECT_LT(w, 3.0);
  }
}

TEST(Aligned, VectorDataIsCacheLineAligned) {
  aligned_vector<double> v(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kDefaultAlignment, 0u);
  aligned_vector<std::uint32_t> w(13);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(w.data()) % kDefaultAlignment, 0u);
}

TEST(TimerStats, SummaryStatistics) {
  TimingStats stats;
  EXPECT_EQ(stats.mean(), 0.0);
  stats.add(1.0);
  stats.add(2.0);
  stats.add(3.0);
  EXPECT_EQ(stats.count(), 3u);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.0);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 3.0);
  EXPECT_NEAR(stats.stddev(), 1.0, 1e-12);
}

TEST(FaultLogTest, CountsAndEvents) {
  FaultLog log;
  log.add_checks(5);
  log.record(Region::csr_values, CheckOutcome::ok, 1);
  log.record(Region::csr_values, CheckOutcome::corrected, 2);
  log.record(Region::dense_vector, CheckOutcome::uncorrectable, 3);
  log.record_bounds_violation(Region::csr_row_ptr, 4);
  EXPECT_EQ(log.checks(), 5u);
  EXPECT_EQ(log.corrected(), 1u);
  EXPECT_EQ(log.uncorrectable(), 1u);
  EXPECT_EQ(log.bounds_violations(), 1u);
  const auto events = log.events();
  ASSERT_EQ(events.size(), 3u);  // ok is not traced
  EXPECT_EQ(events[0].region, Region::csr_values);
  EXPECT_EQ(events[0].index, 2u);
  log.clear();
  EXPECT_EQ(log.checks(), 0u);
  EXPECT_TRUE(log.events().empty());
}

TEST(FaultLogTest, ThreadSafeCounting) {
  FaultLog log;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&log] {
      for (int i = 0; i < 1000; ++i) {
        log.add_checks();
        log.record(Region::other, CheckOutcome::corrected, 0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(log.checks(), 8000u);
  EXPECT_EQ(log.corrected(), 8000u);
}

TEST(CheckPolicy, IntervalSchedule) {
  const CheckIntervalPolicy every(1);
  EXPECT_EQ(every.mode_for_iteration(0), CheckMode::full);
  EXPECT_EQ(every.mode_for_iteration(7), CheckMode::full);
  EXPECT_FALSE(every.requires_final_sweep());

  const CheckIntervalPolicy fourth(4);
  EXPECT_EQ(fourth.mode_for_iteration(0), CheckMode::full);
  EXPECT_EQ(fourth.mode_for_iteration(1), CheckMode::bounds_only);
  EXPECT_EQ(fourth.mode_for_iteration(3), CheckMode::bounds_only);
  EXPECT_EQ(fourth.mode_for_iteration(4), CheckMode::full);
  EXPECT_EQ(fourth.mode_for_iteration(8), CheckMode::full);
  EXPECT_TRUE(fourth.requires_final_sweep());

  const CheckIntervalPolicy zero(0);  // clamps to 1
  EXPECT_EQ(zero.interval(), 1u);
}

// Regression: interval 0 must clamp to 1 ("check at least every iteration"),
// not divide by zero in mode_for_iteration or silently disable checking.
// The CLI layers (--check-interval, bench --intervals) rely on this clamp
// instead of re-validating the flag value.
TEST(CheckPolicy, ZeroIntervalClampsToEveryIteration) {
  const CheckIntervalPolicy zero(0);
  const CheckIntervalPolicy one(1);
  EXPECT_EQ(zero.interval(), one.interval());
  EXPECT_FALSE(zero.requires_final_sweep());
  for (std::uint64_t it = 0; it < 16; ++it) {
    EXPECT_EQ(zero.mode_for_iteration(it), CheckMode::full);
  }
}

TEST(ErrorCaptureTest, CommitsToLogAndThrows) {
  ErrorCapture capture;
  capture.add_checks(10);
  capture.record(Region::csr_values, CheckOutcome::ok, 0);
  EXPECT_TRUE(capture.clean());
  capture.record(Region::csr_values, CheckOutcome::corrected, 7);
  EXPECT_FALSE(capture.clean());

  FaultLog log;
  capture.commit(&log, DuePolicy::record_only);
  EXPECT_EQ(log.checks(), 10u);
  EXPECT_EQ(log.corrected(), 1u);
  const auto events = log.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].index, 7u);
}

TEST(ErrorCaptureTest, ThrowPolicyPrefersBoundsThenDue) {
  {
    ErrorCapture capture;
    capture.record(Region::dense_vector, CheckOutcome::uncorrectable, 3);
    EXPECT_THROW(capture.commit(nullptr, DuePolicy::throw_exception), UncorrectableError);
  }
  {
    ErrorCapture capture;
    capture.record(Region::dense_vector, CheckOutcome::uncorrectable, 3);
    capture.record_bounds(Region::csr_cols, 9);
    try {
      capture.commit(nullptr, DuePolicy::throw_exception);
      FAIL() << "expected BoundsViolation";
    } catch (const BoundsViolation& e) {
      EXPECT_EQ(e.region(), Region::csr_cols);
      EXPECT_EQ(e.index(), 9u);
    }
  }
}

TEST(ErrorCaptureTest, FirstEventLocationIsKept) {
  ErrorCapture capture;
  capture.record(Region::csr_values, CheckOutcome::corrected, 11);
  capture.record(Region::csr_cols, CheckOutcome::corrected, 22);
  FaultLog log;
  capture.commit(&log, DuePolicy::record_only);
  const auto events = log.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].region, Region::csr_values);
  EXPECT_EQ(events[0].index, 11u);
}

TEST(Exceptions, MessagesNameRegionAndIndex) {
  const UncorrectableError e(Region::csr_row_ptr, 42);
  EXPECT_NE(std::string(e.what()).find("csr_row_ptr"), std::string::npos);
  EXPECT_NE(std::string(e.what()).find("42"), std::string::npos);
  const BoundsViolation b(Region::dense_vector, 7);
  EXPECT_NE(std::string(b.what()).find("dense_vector"), std::string::npos);
  const UncorrectableError w(Region::sell_structure, 3);
  EXPECT_NE(std::string(w.what()).find("sell_structure"), std::string::npos);
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

}  // namespace
