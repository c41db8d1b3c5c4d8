// Self-tests of the benchmark's own machinery: the outside-driven tick,
// the tail percentile rule and the unit checks.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>

#include "harness.hpp"

namespace perfbench {
namespace {

using sprintcon::scenario::Policy;
using sprintcon::scenario::Rig;
using sprintcon::scenario::RigConfig;

class OutsideTick : public ::testing::TestWithParam<Policy> {};

// The traced loop must reproduce Rig::run() bit for bit, or the per-layer
// split would time a different simulation than the end-to-end run.
TEST_P(OutsideTick, ReproducesRigRunBitForBit) {
  RigConfig cfg;
  cfg.policy = GetParam();
  Rig reference(cfg);
  reference.run();
  Rig driven(cfg);
  ASSERT_TRUE(outside_drivable(driven));
  TickSplit split;
  drive_until(driven, cfg.duration_s, split);

  EXPECT_EQ(channel_digest(driven.recorder()),
            channel_digest(reference.recorder()));
  for (const std::string& name : reference.recorder().channel_names()) {
    EXPECT_EQ(driven.recorder().series(name).values(),
              reference.recorder().series(name).values())
        << name;
  }
  EXPECT_EQ(split.ticks, reference.recorder().series("cb_power_w").size());
  EXPECT_EQ(split.rack_us.count(), split.ticks);
  const double sections = split.rack_us.sum() + split.controller_us.sum() +
                          split.advance_us.sum() + split.record_us.sum();
  EXPECT_LE(sections, split.tick_s * 1e6);
  const bool baseline = GetParam() != Policy::kSprintCon;
  EXPECT_EQ(split.baselines_controller_us > 0.0, baseline);
}

INSTANTIATE_TEST_SUITE_P(AllRigPolicies, OutsideTick,
                         ::testing::Values(Policy::kSprintCon,
                                           Policy::kPowerCap, Policy::kSgct,
                                           Policy::kSgctV1, Policy::kSgctV2));

TEST(OutsideTick, RefusesRigsWithHooks) {
  RigConfig cfg;
  cfg.observability = true;
  Rig observed(cfg);
  EXPECT_FALSE(outside_drivable(observed));
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

// The tail is the highest ladder percentile with at least ten samples
// above its nearest rank.
TEST(TailPercentile, PicksHighestPercentileWithTenSamplesBeyond) {
  struct Case {
    std::size_t n;
    double p;
  };
  for (const Case c : {Case{5, 50.0}, Case{39, 50.0}, Case{40, 75.0},
                       Case{99, 75.0}, Case{100, 90.0}, Case{199, 90.0},
                       Case{200, 95.0}, Case{999, 95.0}, Case{1000, 99.0},
                       Case{10000, 99.9}}) {
    const Tail tail = tail_percentile(one_to(c.n));
    EXPECT_EQ(tail.p, c.p) << "n=" << c.n;
    const auto rank = static_cast<double>(nearest_rank(c.p, c.n));
    EXPECT_EQ(tail.value, rank) << "n=" << c.n;
    if (c.p > 50.0) {
      EXPECT_GE(static_cast<double>(c.n) - rank, 10.0);
    }
    // The next rung up would leave fewer than ten samples beyond it.
    if (c.p < 99.9 && c.n >= 20) {
      const double higher[] = {99.9, 99.0, 95.0, 90.0, 75.0};
      for (const double h : higher) {
        if (h <= c.p) break;
        EXPECT_LT(c.n - nearest_rank(h, c.n), 10u) << "n=" << c.n << " p" << h;
      }
    }
  }
}

TEST(TailPercentile, CapHoldsThePercentileAsSamplesGrow) {
  EXPECT_EQ(tail_percentile(one_to(200), 75.0).p, 75.0);
  EXPECT_EQ(tail_percentile(one_to(100000), 90.0).p, 90.0);
  EXPECT_EQ(tail_percentile(one_to(30), 90.0).p, 50.0);
}

TEST(TailPercentile, HistogramAgreesWithExactSamples) {
  TickHistogram hist;
  std::vector<double> exact;
  for (int i = 0; i < 1000; ++i) {
    const double us = 1.0 + 0.05 * (i % 97);
    hist.record(us);
    exact.push_back(us);
  }
  hist.record(5e6);  // beyond the bucket range
  exact.push_back(5e6);
  // Buckets are 0.8% wide.
  EXPECT_NEAR(hist.percentile(50.0), percentile(exact, 50.0),
              0.008 * percentile(exact, 50.0));
  EXPECT_EQ(hist.tail().p, tail_percentile(exact).p);
  EXPECT_NEAR(hist.tail().value, tail_percentile(exact).value,
              0.008 * tail_percentile(exact).value);
  EXPECT_EQ(hist.percentile(100.0), 5e6);
  EXPECT_EQ(hist.count(), 1001u);
}

TEST(SliceRate, SpreadsWorkOverSlicesAndTakesTheMedian) {
  const Clock::time_point t0{};
  const auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  // 100 units/s for 4 s, a 1 s stall with no work, then 100 units/s.
  std::vector<WorkInterval> work;
  for (int i = 0; i < 60; ++i) {
    if (i >= 40 && i < 50) continue;
    work.push_back({at(0.1 * i), at(0.1 * i + 0.1), 10.0});
  }
  EXPECT_NEAR(median_slice_rate(work, at(0.0), at(6.0), 1.0), 100.0, 1e-9);
  // A unit straddling two slices contributes to both in proportion.
  const std::vector<WorkInterval> one = {{at(0.5), at(1.5), 100.0}};
  EXPECT_NEAR(median_slice_rate(one, at(0.0), at(2.0), 1.0), 50.0, 1e-9);
  EXPECT_THROW(median_slice_rate(one, at(0.0), at(0.5), 1.0),
               std::invalid_argument);
}

/// A four-sample recording with the channels the invariant check reads.
struct Recording {
  std::vector<double> cb = {100.0, 200.0, 0.0, 150.0};
  std::vector<double> unserved = {0.0, 0.0, 0.0, 0.0};
  std::vector<double> open = {0.0, 0.0, 1.0, 0.0};
  std::vector<double> soc = {1.0, 0.9, 0.8, 0.85};

  sprintcon::sim::TraceRecorder record() const {
    sprintcon::sim::TraceRecorder rec(1.0);
    std::size_t i = 0;
    rec.add_probe("cb_power_w", [&] { return cb[i]; });
    rec.add_probe("unserved_w", [&] { return unserved[i]; });
    rec.add_probe("breaker_open", [&] { return open[i]; });
    rec.add_probe("battery_soc", [&] { return soc[i]; });
    for (; i < cb.size(); ++i) rec.sample();
    return rec;
  }
};

std::vector<std::string> violations(const Recording& r,
                                    std::uint64_t trips = 0) {
  std::vector<std::string> failures;
  check_invariants(r.record(), trips, true, "unit", failures);
  return failures;
}

TEST(UnitChecks, AcceptCleanRecording) {
  EXPECT_TRUE(violations(Recording{}).empty());
}

TEST(UnitChecks, RejectPerturbedChannels) {
  Recording nan;
  nan.cb[1] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(violations(nan).empty());
  Recording soc;
  soc.soc[3] = 1.01;
  EXPECT_FALSE(violations(soc).empty());
  Recording negative;
  negative.unserved[0] = -1.0;
  EXPECT_FALSE(violations(negative).empty());
  Recording open_with_power;
  open_with_power.cb[2] = 5.0;
  EXPECT_FALSE(violations(open_with_power).empty());
  EXPECT_FALSE(violations(Recording{}, /*trips=*/1).empty());
}

TEST(UnitChecks, DigestSeesOneUlp) {
  Recording a;
  Recording b;
  b.cb[3] = std::nextafter(b.cb[3], 1e9);
  EXPECT_EQ(channel_digest(a.record()), channel_digest(Recording{}.record()));
  EXPECT_NE(channel_digest(a.record()), channel_digest(b.record()));
}

TEST(UnitChecks, GoldenComparisonRejectsPerturbedChannel) {
  Rig rig{RigConfig{}};
  rig.run();
  const Channels golden = rig_golden_channels(rig);
  std::vector<std::string> failures;
  compare_golden(golden, golden, true, "same", failures);
  EXPECT_TRUE(failures.empty());

  Channels nudged = golden;
  nudged["battery_soc"][7] = std::nextafter(nudged["battery_soc"][7], 2.0);
  compare_golden(golden, nudged, true, "exact", failures);
  EXPECT_EQ(failures.size(), 1u);
  failures.clear();
  compare_golden(golden, nudged, false, "tolerant", failures);
  EXPECT_TRUE(failures.empty());  // within 1% of the channel's scale

  Channels moved = golden;
  moved["cb_power_w"][20] += 0.05 * 3200.0;
  compare_golden(golden, moved, false, "tolerant", failures);
  EXPECT_EQ(failures.size(), 1u);
  failures.clear();
  Channels missing = golden;
  missing.erase("freq_batch");
  compare_golden(golden, missing, false, "missing", failures);
  EXPECT_EQ(failures.size(), 1u);
}

}  // namespace
}  // namespace perfbench
