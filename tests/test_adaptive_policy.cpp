// AdaptiveCheckPolicy: the online check-interval controller, its committed
// fault-count inputs, and the obs-registry/FaultLog degradation path.
// End-to-end determinism across thread and worker counts is covered by
// test_thread_determinism.cpp and test_service.cpp; this suite pins the
// transition function itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "abft/check_policy.hpp"
#include "common/fault_log.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace abft;

// Drive one check window: the decision at `iter` plus the bounds-only
// iterations until the next scheduled check.
CheckMode decide(AdaptiveCheckPolicy& p, std::uint64_t iter,
                 std::uint64_t corrected, std::uint64_t uncorrectable) {
  return p.begin_iteration(iter, {corrected, uncorrectable});
}

TEST(AdaptivePolicy, FirstDecisionAlwaysChecks) {
  AdaptiveCheckPolicy p;
  EXPECT_EQ(decide(p, 0, 0, 0), CheckMode::full);
  EXPECT_EQ(p.full_checks(), 1u);
  EXPECT_EQ(p.interval(), 1u);
}

TEST(AdaptivePolicy, PrimingAbsorbsPreSolveCounts) {
  // Faults committed before the solve (encode-time sweeps, earlier solves
  // against the same log) are not this solve's evidence: the first call
  // snapshots them, so a quiet solve still widens.
  AdaptiveConfig cfg;
  cfg.quiet_windows = 1;
  AdaptiveCheckPolicy p(cfg);
  EXPECT_EQ(decide(p, 0, 500, 7), CheckMode::full);
  EXPECT_FALSE(p.recommends_escalation());
  EXPECT_EQ(decide(p, 1, 500, 7), CheckMode::full);  // clean window
  EXPECT_EQ(p.interval(), 2u);
}

TEST(AdaptivePolicy, QuietWindowsDoubleTowardMax) {
  AdaptiveConfig cfg;
  cfg.quiet_windows = 2;
  cfg.max_interval = 8;
  AdaptiveCheckPolicy p(cfg);
  std::uint64_t iter = 0;
  EXPECT_EQ(decide(p, iter, 0, 0), CheckMode::full);  // first window: no history
  std::vector<unsigned> widths;
  for (int window = 0; window < 10; ++window) {
    iter += p.interval();
    EXPECT_EQ(decide(p, iter, 0, 0), CheckMode::full);
    widths.push_back(p.interval());
  }
  // The historyless first window (before the loop) never counts; after it,
  // every second clean window doubles, capped at max_interval. The recorded
  // value is the interval chosen AT each window's decision, so the doubling
  // lands on the second window of each quiet pair.
  EXPECT_EQ(widths, (std::vector<unsigned>{1, 2, 2, 4, 4, 8, 8, 8, 8, 8}));
  EXPECT_TRUE(p.requires_final_sweep());
}

TEST(AdaptivePolicy, SkipsBetweenChecksAndChecksOnSchedule) {
  AdaptiveConfig cfg;
  cfg.quiet_windows = 1;
  AdaptiveCheckPolicy p(cfg);
  EXPECT_EQ(decide(p, 0, 0, 0), CheckMode::full);
  EXPECT_EQ(decide(p, 1, 0, 0), CheckMode::full);   // widens to 2 after this
  EXPECT_EQ(decide(p, 2, 0, 0), CheckMode::bounds_only);
  EXPECT_EQ(decide(p, 3, 0, 0), CheckMode::full);   // widens to 4
  EXPECT_EQ(decide(p, 4, 0, 0), CheckMode::bounds_only);
  EXPECT_EQ(decide(p, 5, 0, 0), CheckMode::bounds_only);
  EXPECT_EQ(decide(p, 6, 0, 0), CheckMode::bounds_only);
  EXPECT_EQ(decide(p, 7, 0, 0), CheckMode::full);
  EXPECT_EQ(p.full_checks(), 4u);
}

TEST(AdaptivePolicy, CorrectedFaultJumpsStraightToTheFloor) {
  AdaptiveConfig cfg;
  cfg.quiet_windows = 1;
  cfg.max_interval = 16;
  AdaptiveCheckPolicy p(cfg);
  // Widen to 16 first.
  std::uint64_t iter = 0;
  (void)decide(p, iter, 0, 0);
  while (p.interval() < 16) {
    iter += p.interval();
    (void)decide(p, iter, 0, 0);
  }
  ASSERT_EQ(p.interval(), 16u);
  // A corrected fault at the next check pins to min_interval in one step
  // (bursts cluster), without latching the escalation recommendation.
  iter += p.interval();
  EXPECT_EQ(decide(p, iter, 1, 0), CheckMode::full);
  EXPECT_EQ(p.interval(), 1u);
  EXPECT_FALSE(p.recommends_escalation());
}

TEST(AdaptivePolicy, UncorrectableFaultPinsAndLatchesEscalation) {
  AdaptiveCheckPolicy p;
  (void)decide(p, 0, 0, 0);
  EXPECT_EQ(decide(p, 1, 0, 1), CheckMode::full);
  EXPECT_EQ(p.interval(), p.config().min_interval);
  EXPECT_TRUE(p.recommends_escalation());
  // The latch survives later quiet windows: the scheme already failed once.
  for (std::uint64_t it = 2; it < 40; ++it) (void)decide(p, it, 0, 1);
  EXPECT_TRUE(p.recommends_escalation());
}

TEST(AdaptivePolicy, RecommendedSchemeEscalationLadder) {
  using ecc::Scheme;
  EXPECT_EQ(AdaptiveCheckPolicy::recommended_scheme(Scheme::none), Scheme::secded64);
  EXPECT_EQ(AdaptiveCheckPolicy::recommended_scheme(Scheme::sed), Scheme::secded64);
  EXPECT_EQ(AdaptiveCheckPolicy::recommended_scheme(Scheme::secded64), Scheme::crc32c);
  EXPECT_EQ(AdaptiveCheckPolicy::recommended_scheme(Scheme::secded128), Scheme::crc32c);
  EXPECT_EQ(AdaptiveCheckPolicy::recommended_scheme(Scheme::crc32c), Scheme::crc32c);
  EXPECT_EQ(AdaptiveCheckPolicy::recommended_scheme(Scheme::crc32c_tile),
            Scheme::crc32c_tile);
}

TEST(AdaptivePolicy, ConfigSanitizesDegenerateBounds) {
  AdaptiveConfig cfg;
  cfg.min_interval = 0;  // clamps to 1, like CheckIntervalPolicy(0)
  cfg.max_interval = 0;  // clamps up to min
  cfg.quiet_windows = 0;
  AdaptiveCheckPolicy p(cfg);
  EXPECT_EQ(p.config().min_interval, 1u);
  EXPECT_EQ(p.config().max_interval, 1u);
  EXPECT_EQ(p.config().quiet_windows, 1u);
  EXPECT_FALSE(p.requires_final_sweep());  // can never widen past 1
  for (std::uint64_t it = 0; it < 6; ++it) {
    EXPECT_EQ(decide(p, it, 0, 0), CheckMode::full);
  }
}

TEST(AdaptivePolicy, TrajectoryIsAPureFunctionOfTheInputSequence) {
  // Same (iter, committed) sequence => identical trajectory and identical
  // check pattern. This is the property the thread/worker determinism
  // suites rely on: the inputs are serial-point committed counts, so equal
  // inputs is all the controller needs for bit-identical behavior.
  const auto run = [] {
    AdaptiveCheckPolicy p;
    std::vector<CheckMode> modes;
    std::uint64_t corrected = 0, uncorrectable = 0;
    for (std::uint64_t it = 0; it < 200; ++it) {
      if (it == 40 || it == 42 || it == 44) ++corrected;  // a burst
      if (it == 120) ++uncorrectable;                     // one DUE
      modes.push_back(p.begin_iteration(it, {corrected, uncorrectable}));
    }
    return std::make_pair(modes, p.trajectory());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  ASSERT_FALSE(a.second.empty());
  EXPECT_EQ(a.second.front().iteration, 0u);
}

TEST(FaultTotals, CommittedSumsSkipNullsAndAliases) {
  FaultLog m, v;
  m.add_checks(10);
  for (int i = 0; i < 3; ++i) m.record(Region::csr_values, CheckOutcome::corrected, i);
  m.record(Region::csr_values, CheckOutcome::uncorrectable, 9);
  m.record_bounds_violation(Region::csr_cols, 11);
  for (int i = 0; i < 2; ++i) v.record(Region::dense_vector, CheckOutcome::corrected, i);

  // The solver passes {matrix log, rhs log, solution log}; rhs and solution
  // often alias the matrix log, and batch paths can carry nulls.
  const auto o = committed_fault_totals({&m, &v, &m, nullptr, &v});
  EXPECT_EQ(o.corrected, 5u);
  EXPECT_EQ(o.uncorrectable, 2u);  // DUE + bounds violation
  EXPECT_EQ(o.total(), 7u);

  const FaultLog* logs[] = {&m, &m};
  const auto dedup = committed_fault_totals(logs, 2);
  EXPECT_EQ(dedup.corrected, 3u);
  EXPECT_EQ(dedup.uncorrectable, 2u);
}

TEST(FaultTotals, ObservedDegradesGracefullyToFaultLogCounts) {
  // With obs compiled in, the record() calls below publish to the global
  // registry and observed_fault_totals reads it back; with -DABFT_OBS=OFF
  // (or the registry otherwise empty of checks) it falls back to the log's
  // own counters. Either way the caller sees the same per-log totals — the
  // graceful-degradation contract the advisor relies on. Declared before
  // any add_checks() in this suite so the obs-on path stays comparable.
  FaultLog log;
  for (int i = 0; i < 4; ++i) log.record(Region::sell_values, CheckOutcome::corrected, i);
  for (int i = 0; i < 2; ++i)
    log.record(Region::sell_cols, CheckOutcome::uncorrectable, i);
  const auto o = observed_fault_totals(&log);
  EXPECT_GE(o.corrected, 4u);
  EXPECT_GE(o.uncorrectable, 2u);
  if (!obs::enabled()) {  // obs compiled out: exactly the log's counts
    EXPECT_EQ(o.corrected, 4u);
    EXPECT_EQ(o.uncorrectable, 2u);
    EXPECT_EQ(observed_fault_totals(nullptr).total(), 0u);
  }
}

TEST(FaultTotals, ObservedReadsProcessTotalsOnceTheRegistryIsLive) {
  if (!obs::enabled()) GTEST_SKIP() << "obs compiled out or disabled";
  obs::count_checks(1);  // a live registry always has checks
  const auto before = observed_fault_totals(nullptr);
  obs::count_corrected();
  obs::count_corrected();
  obs::count_uncorrectable();

  // A fallback log with different counts must be ignored: the registry has
  // checks, so the process-wide totals win.
  FaultLog decoy;
  decoy.record(Region::other, CheckOutcome::corrected, 0);
  const auto after = observed_fault_totals(&decoy);
  EXPECT_EQ(after.corrected, before.corrected + 3);  // 2 direct + 1 via decoy
  EXPECT_EQ(after.uncorrectable, before.uncorrectable + 1);
  EXPECT_NE(after.corrected, decoy.corrected());
}

}  // namespace
