// Tests for the simulation engine: clock, recorder, component stepping.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sim/simulation.hpp"

namespace sprintcon::sim {
namespace {

class Counter : public Component {
 public:
  void step(const SimClock& clock) override {
    ++steps;
    last_time = clock.now_s();
  }
  int steps = 0;
  double last_time = -1.0;
};

TEST(Clock, AdvancesByDt) {
  SimClock clock(0.5);
  EXPECT_DOUBLE_EQ(clock.now_s(), 0.0);
  clock.advance();
  clock.advance();
  EXPECT_DOUBLE_EQ(clock.now_s(), 1.0);
  EXPECT_EQ(clock.tick(), 2u);
}

TEST(Clock, InvalidDtThrows) {
  EXPECT_THROW(SimClock(0.0), sprintcon::InvalidArgumentError);
}

TEST(Clock, EveryFiresOnPeriodMultiples) {
  SimClock clock(1.0);
  int fires = 0;
  for (int i = 0; i < 10; ++i) {
    if (clock.every(3.0)) ++fires;
    clock.advance();
  }
  EXPECT_EQ(fires, 4);  // ticks 0, 3, 6, 9
}

TEST(Clock, EverySubTickPeriodFiresEveryTick) {
  SimClock clock(1.0);
  EXPECT_TRUE(clock.every(0.1));
  clock.advance();
  EXPECT_TRUE(clock.every(0.1));
}

TEST(Simulation, StepsComponentsInOrder) {
  Simulation sim(1.0);
  Counter a, b;
  sim.add(a);
  sim.add(b);
  sim.run_until(5.0);
  EXPECT_EQ(a.steps, 5);
  EXPECT_EQ(b.steps, 5);
  // Components see the pre-advance time of each tick.
  EXPECT_DOUBLE_EQ(a.last_time, 4.0);
}

TEST(Simulation, RecorderSamplesEachTick) {
  Simulation sim(1.0);
  Counter c;
  sim.add(c);
  sim.recorder().add_probe("steps",
                           [&c] { return static_cast<double>(c.steps); });
  sim.run_until(4.0);
  const auto& ts = sim.recorder().series("steps");
  ASSERT_EQ(ts.size(), 4u);
  EXPECT_DOUBLE_EQ(ts[0], 1.0);
  EXPECT_DOUBLE_EQ(ts[3], 4.0);
}

TEST(Simulation, RunBackwardsThrows) {
  Simulation sim(1.0);
  sim.run_until(2.0);
  EXPECT_THROW(sim.run_until(1.0), sprintcon::InvalidArgumentError);
}

TEST(Recorder, DuplicateProbeNameThrows) {
  TraceRecorder rec(1.0);
  rec.add_probe("x", [] { return 0.0; });
  EXPECT_THROW(rec.add_probe("x", [] { return 0.0; }),
               sprintcon::InvalidArgumentError);
}

TEST(Recorder, UnknownChannelThrows) {
  TraceRecorder rec(1.0);
  EXPECT_THROW(rec.series("nope"), sprintcon::InvalidArgumentError);
}

TEST(Recorder, ChannelEnumeration) {
  TraceRecorder rec(1.0);
  rec.add_probe("a", [] { return 1.0; });
  rec.add_probe("b", [] { return 2.0; });
  EXPECT_TRUE(rec.has("a"));
  EXPECT_FALSE(rec.has("c"));
  EXPECT_EQ(rec.channel_names().size(), 2u);
  EXPECT_EQ(rec.all_series().size(), 2u);
}

TEST(Recorder, GroupFillsItsChannelsInRegistrationOrder) {
  TraceRecorder rec(1.0);
  int calls = 0;
  rec.add_probe("first", [] { return 1.0; });
  rec.add_probe_group({"a", "b", "c"}, [&calls](double* out) {
    ++calls;
    out[0] = 10.0;
    out[1] = 20.0;
    out[2] = 30.0;
  });
  rec.add_probe("last", [] { return 2.0; });
  rec.sample();
  rec.sample();
  EXPECT_EQ(calls, 2);  // one callback per tick for the whole group
  EXPECT_EQ(rec.channel_names(),
            (std::vector<std::string>{"first", "a", "b", "c", "last"}));
  EXPECT_EQ(rec.series("b").values(), (std::vector<double>{20.0, 20.0}));
  EXPECT_DOUBLE_EQ(rec.series("last")[1], 2.0);
  EXPECT_THROW(rec.add_probe_group({"d", "a"}, [](double*) {}),
               sprintcon::InvalidArgumentError);
}

TEST(Recorder, IndexedLookupSurvivesManyProbes) {
  // The name -> index map must keep every channel addressable (and keep
  // throwing on unknown names) well past the handful a rig registers.
  TraceRecorder rec(1.0);
  constexpr int kProbes = 200;
  for (int i = 0; i < kProbes; ++i) {
    const double value = static_cast<double>(i);
    rec.add_probe("probe_" + std::to_string(i), [value] { return value; });
  }
  rec.sample();
  for (int i = 0; i < kProbes; ++i) {
    const std::string name = "probe_" + std::to_string(i);
    ASSERT_TRUE(rec.has(name));
    const TimeSeries& s = rec.series(name);
    EXPECT_EQ(s.name(), name);
    EXPECT_DOUBLE_EQ(s[0], static_cast<double>(i));
  }
  // string_view lookups hit the transparent hash path.
  EXPECT_TRUE(rec.has(std::string_view("probe_42")));
  EXPECT_FALSE(rec.has(std::string_view("probe_200")));
  EXPECT_THROW(rec.series("probe_200"), sprintcon::InvalidArgumentError);
}

}  // namespace
}  // namespace sprintcon::sim
