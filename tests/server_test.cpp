// Tests for the server substrate: platform calibration, power models,
// fans, cores, servers, rack aggregation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "server/rack.hpp"
#include "sim/clock.hpp"
#include "workload/batch_profile.hpp"

namespace sprintcon::server {
namespace {

using workload::BatchJob;
using workload::CompletionMode;
using workload::InteractiveTraceConfig;
using workload::InteractiveTraceGenerator;

CoreSpec make_interactive(const PlatformSpec& spec, std::uint64_t seed = 1) {
  return {spec.freq_min, spec.freq_max,
          InteractiveTraceGenerator(InteractiveTraceConfig{}, Rng(seed))};
}

CoreSpec make_batch(const PlatformSpec& spec, std::uint64_t seed = 2,
                    double work_s = 300.0) {
  return {spec.freq_min, spec.freq_max,
          BatchJob(workload::spec2006_profile("401.bzip2"),
                   /*deadline_s=*/720.0, work_s, CompletionMode::kRunOnce,
                   Rng(seed))};
}

/// Cores [0, interactive) are interactive, the rest batch.
ServerSpec make_server(const PlatformSpec& spec, std::size_t interactive = 4) {
  std::vector<CoreSpec> cores;
  for (std::size_t c = 0; c < spec.cores_per_server; ++c) {
    if (c < interactive) {
      cores.push_back(make_interactive(spec, 10 + c));
    } else {
      cores.push_back(make_batch(spec, 20 + c));
    }
  }
  return {std::move(cores), Rng(77)};
}

/// A rack of `n_servers` make_server servers; on a one-server rack the
/// rack core ids are the server's core indices.
Rack make_rack(std::size_t n_servers = 4, std::size_t interactive = 4) {
  const PlatformSpec spec = paper_platform();
  std::vector<ServerSpec> servers;
  for (std::size_t s = 0; s < n_servers; ++s) {
    servers.push_back(make_server(spec, interactive));
  }
  return Rack(spec, std::move(servers));
}

// --- platform ----------------------------------------------------------------

TEST(Platform, PaperNumbers) {
  const PlatformSpec spec = paper_platform();
  EXPECT_EQ(spec.cores_per_server, 8u);
  EXPECT_DOUBLE_EQ(spec.idle_power_w, 150.0);
  EXPECT_DOUBLE_EQ(spec.peak_power_w, 300.0);
  EXPECT_DOUBLE_EQ(spec.freq_min, 0.2);  // 400 MHz / 2.0 GHz
}

TEST(Platform, DerivedCoefficientsAddUp) {
  const PlatformSpec spec = paper_platform();
  // Linear + cubic coefficients must reproduce the core's peak dynamic.
  EXPECT_NEAR(spec.core_linear_coeff_w() + spec.core_cubic_coeff_w(),
              spec.core_dynamic_peak_w(), 1e-12);
  // All cores at peak + idle + fan = rated peak power.
  const double total = spec.idle_power_w + spec.fan_peak_power_w +
                       spec.core_dynamic_peak_w() *
                           static_cast<double>(spec.cores_per_server);
  EXPECT_NEAR(total, spec.peak_power_w, 1e-9);
}

TEST(Platform, InvalidSpecThrows) {
  PlatformSpec spec = paper_platform();
  spec.peak_power_w = 100.0;  // below idle
  EXPECT_THROW(spec.validate(), sprintcon::InvalidArgumentError);
  spec = paper_platform();
  spec.freq_min = 0.0;
  EXPECT_THROW(spec.validate(), sprintcon::InvalidArgumentError);
}

// --- power models ---------------------------------------------------------

TEST(MeasurementModel, ZeroUtilizationMeansZeroDynamic) {
  const MeasurementPowerModel m(paper_platform());
  EXPECT_DOUBLE_EQ(m.core_dynamic_w(1.0, 0.0), 0.0);
}

TEST(MeasurementModel, PeakMatchesCalibration) {
  const PlatformSpec spec = paper_platform();
  const MeasurementPowerModel m(spec);
  EXPECT_NEAR(m.core_dynamic_w(1.0, 1.0), spec.core_dynamic_peak_w(), 1e-12);
}

TEST(MeasurementModel, MonotoneInFrequencyAndUtilization) {
  const MeasurementPowerModel m(paper_platform());
  double prev = -1.0;
  for (double f = 0.2; f <= 1.0; f += 0.1) {
    const double p = m.core_dynamic_w(f, 0.8);
    EXPECT_GT(p, prev);
    prev = p;
  }
  EXPECT_GT(m.core_dynamic_w(0.5, 0.9), m.core_dynamic_w(0.5, 0.4));
}

TEST(MeasurementModel, SuperlinearAtHighFrequency) {
  // The cubic term makes the last 20% of frequency cost more than the
  // first 20% — the physics behind Figure 1.
  const MeasurementPowerModel m(paper_platform());
  const double low = m.core_dynamic_w(0.4, 1.0) - m.core_dynamic_w(0.2, 1.0);
  const double high = m.core_dynamic_w(1.0, 1.0) - m.core_dynamic_w(0.8, 1.0);
  EXPECT_GT(high, low);
}

TEST(LinearModel, GainAndConstantPositive) {
  const LinearPowerModel m(paper_platform());
  EXPECT_GT(m.gain_w_per_f(), 0.0);
  EXPECT_NEAR(m.constant_w(), 150.0 / 8.0, 1e-12);
  EXPECT_GT(m.interactive_gain_w_per_util(), 0.0);
}

TEST(LinearModel, InteractivePowerAtFullUtilMatchesPeakDynamic) {
  const PlatformSpec spec = paper_platform();
  const LinearPowerModel m(spec);
  EXPECT_NEAR(m.interactive_power_w(1.0) - m.constant_w(),
              spec.core_dynamic_peak_w(), 1e-9);
}

TEST(LinearModel, DivergesFromMeasurementModel) {
  // The controller model must NOT match the plant exactly — the paper's
  // design requires a modeling error for the feedback loop to absorb.
  const PlatformSpec spec = paper_platform();
  const LinearPowerModel lin(spec);
  const MeasurementPowerModel meas(spec);
  double max_gap = 0.0;
  for (double f = 0.2; f <= 1.0; f += 0.05) {
    const double gap = std::abs(lin.core_power_w(f) - lin.constant_w() -
                                meas.core_dynamic_w(f, 0.95));
    max_gap = std::max(max_gap, gap);
  }
  EXPECT_GT(max_gap, 0.5);
}

// --- fan ---------------------------------------------------------------------

TEST(Fan, TracksLoadWithLag) {
  FanModel fan(6.0, 8.0, Rng(3));
  // Step the server from idle to full power; the fan must rise over time.
  double first = fan.step(1.0, 300.0, 150.0, 300.0);
  double last = first;
  for (int i = 0; i < 60; ++i) last = fan.step(1.0, 300.0, 150.0, 300.0);
  EXPECT_GT(last, first);
  EXPECT_LE(last, 6.0);
  EXPECT_GE(last, 0.0);
}

TEST(Fan, BoundedByPeak) {
  FanModel fan(6.0, 2.0, Rng(4));
  for (int i = 0; i < 200; ++i) {
    const double p = fan.step(1.0, 400.0, 150.0, 300.0);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 6.0);
  }
}

// --- core ----------------------------------------------------------------------

TEST(Core, FrequencyClampsToBounds) {
  const PlatformSpec spec = paper_platform();
  Rack rack = make_rack(1);
  const std::size_t batch = rack.batch_ids().front();
  rack.set_freq(batch, 5.0);
  EXPECT_DOUBLE_EQ(rack.freq(batch), spec.freq_max);
  rack.set_freq(batch, 0.01);
  EXPECT_DOUBLE_EQ(rack.freq(batch), spec.freq_min);
  // The clamp cannot bound a NaN, so the write itself is refused.
  EXPECT_THROW(rack.set_freq(batch, std::nan("")),
               sprintcon::InvalidArgumentError);
  EXPECT_DOUBLE_EQ(rack.freq(batch), spec.freq_min);
}

TEST(Core, InteractiveStartsAtPeakBatchAtFloor) {
  const PlatformSpec spec = paper_platform();
  const Rack rack = make_rack(1);
  for (const std::uint32_t c : rack.interactive_ids()) {
    EXPECT_DOUBLE_EQ(rack.freq(c), spec.freq_max);
  }
  for (const std::uint32_t c : rack.batch_ids()) {
    EXPECT_DOUBLE_EQ(rack.freq(c), spec.freq_min);
  }
}

TEST(Core, StepUpdatesUtilizationByRole) {
  Rack rack = make_rack(1);
  const std::size_t inter = rack.interactive_ids().front();
  const std::size_t batch = rack.batch_ids().front();
  rack.set_freq(batch, 1.0);
  rack.step(1.0, 0.0);
  EXPECT_GT(rack.utilization(inter), 0.0);
  EXPECT_EQ(rack.job(inter), nullptr);
  EXPECT_GT(rack.utilization(batch), 0.8);
  ASSERT_NE(rack.job(batch), nullptr);
  EXPECT_GT(rack.job(batch)->progress(), 0.0);
}

TEST(Core, BoundsAreValidatedOnInstall) {
  const PlatformSpec spec = paper_platform();
  for (const auto& [lo, hi] : {std::pair{0.0, 1.0}, std::pair{0.6, 0.5},
                               std::pair{0.2, 1.5}}) {
    std::vector<CoreSpec> cores;
    for (std::size_t c = 0; c < spec.cores_per_server; ++c) {
      cores.push_back(make_batch(spec, 20 + c));
    }
    cores.front().freq_min = lo;
    cores.front().freq_max = hi;
    std::vector<ServerSpec> servers;
    servers.push_back({std::move(cores), Rng(1)});
    EXPECT_THROW(Rack(spec, std::move(servers)),
                 sprintcon::InvalidArgumentError);
  }
}

// --- server -----------------------------------------------------------------

TEST(Server, PowerBetweenIdleAndPeak) {
  const PlatformSpec spec = paper_platform();
  Rack rack = make_rack(1);
  for (int i = 0; i < 30; ++i) rack.step(1.0, i);
  EXPECT_GT(rack.server_power_w(0), spec.idle_power_w);
  EXPECT_LT(rack.server_power_w(0), spec.peak_power_w + 1.0);
}

TEST(Server, PowerSplitsByClass) {
  const PlatformSpec spec = paper_platform();
  Rack rack = make_rack(1);
  rack.step(1.0, 0.0);
  double inter = 0.0, batch = 0.0;
  for (const std::uint32_t c : rack.interactive_ids(0)) {
    inter += rack.dynamic_w(c);
  }
  for (const std::uint32_t c : rack.batch_ids(0)) batch += rack.dynamic_w(c);
  EXPECT_GT(inter, 0.0);
  EXPECT_GT(batch, 0.0);
  EXPECT_GE(rack.fan_power_w(0), 0.0);
  EXPECT_DOUBLE_EQ(rack.server_power_w(0), spec.idle_power_w + (inter + batch) +
                                               rack.fan_power_w(0));
}

TEST(Server, StepRejectsNonPositiveDt) {
  Rack rack = make_rack(1);
  EXPECT_THROW(rack.step(0.0, 0.0), sprintcon::InvalidArgumentError);
  EXPECT_THROW(rack.step(-1.0, 0.0), sprintcon::InvalidArgumentError);
}

TEST(Server, PoweredOffConsumesNothingAndHaltsProgress) {
  Rack rack = make_rack(1);
  rack.step(1.0, 0.0);
  const double progress = rack.job(7)->progress();
  rack.set_all_powered(false);
  rack.step(1.0, 1.0);
  EXPECT_DOUBLE_EQ(rack.server_power_w(0), 0.0);
  // The frequency metric sees a dark server at 0 (the Fig. 5(b) collapse).
  EXPECT_DOUBLE_EQ(rack.telemetry().freq_batch, 0.0);
  EXPECT_DOUBLE_EQ(rack.job(7)->progress(), progress);
}

TEST(Server, WrongCoreCountThrows) {
  const PlatformSpec spec = paper_platform();
  std::vector<CoreSpec> cores;
  cores.push_back(make_interactive(spec));
  std::vector<ServerSpec> servers;
  servers.push_back({std::move(cores), Rng(1)});
  EXPECT_THROW(Rack(spec, std::move(servers)), sprintcon::InvalidArgumentError);
}

TEST(Server, CountsRoles) {
  const Rack rack = make_rack(1, 3);
  EXPECT_EQ(rack.interactive_ids(0).size(), 3u);
  EXPECT_EQ(rack.batch_ids(0).size(), 5u);
  for (const std::uint32_t c : rack.batch_ids(0)) {
    EXPECT_TRUE(rack.is_batch(c));
  }
}

// --- rack -------------------------------------------------------------------

TEST(Rack, AggregatesPower) {
  Rack rack = make_rack(4);
  sim::SimClock clock(1.0);
  rack.step(clock);
  EXPECT_GT(rack.total_power_w(), 4 * 150.0);
  EXPECT_LT(rack.total_power_w(), 4 * 301.0);
}

TEST(Rack, EnumeratesBatchCores) {
  Rack rack = make_rack(3);
  EXPECT_EQ(rack.batch_cores().size(), 3u * 4u);
  for (const auto& ref : rack.batch_cores()) {
    EXPECT_TRUE(rack.core(ref).is_batch());
  }
}

TEST(Rack, MeanFreqByRole) {
  Rack rack = make_rack(2);
  EXPECT_DOUBLE_EQ(rack.telemetry().freq_interactive, 1.0);
  EXPECT_DOUBLE_EQ(rack.telemetry().freq_batch, 0.2);
}

TEST(Rack, RoleSpansSetFreqByRole) {
  Rack rack = make_rack(2);
  for (const std::uint32_t c : rack.batch_ids()) rack.set_freq(c, 0.7);
  EXPECT_NEAR(rack.telemetry().freq_batch, 0.7, 1e-12);
  EXPECT_DOUBLE_EQ(rack.telemetry().freq_interactive, 1.0);
  EXPECT_NEAR(rack.mean_batch_freq(), 0.7, 1e-12);
}

TEST(Rack, PowerOffAll) {
  Rack rack = make_rack(2);
  rack.set_all_powered(false);
  EXPECT_FALSE(rack.powered());
  sim::SimClock clock(1.0);
  rack.step(clock);
  EXPECT_DOUBLE_EQ(rack.total_power_w(), 0.0);
  for (std::size_t s = 0; s < rack.num_servers(); ++s) {
    EXPECT_DOUBLE_EQ(rack.server_power_w(s), 0.0);
  }
}

TEST(Rack, InvalidRefThrows) {
  Rack rack = make_rack(1);
  EXPECT_THROW(rack.core({5, 0}), sprintcon::InvalidArgumentError);
  EXPECT_THROW(rack.core({0, 99}), sprintcon::InvalidArgumentError);
}

TEST(Rack, EmptyRackThrows) {
  EXPECT_THROW(Rack(paper_platform(), std::vector<ServerSpec>{}),
               sprintcon::InvalidArgumentError);
}

TEST(Rack, TelemetryReadsSubZeroTemperatures) {
  // A sub-zero ambient is a valid ThermalSpec; the hottest core must be a
  // real core temperature, not a 0 °C floor.
  Rack rack = make_rack(2);
  ThermalSpec cold;
  cold.ambient_c = -20.0;
  rack.attach_thermal(cold);
  EXPECT_DOUBLE_EQ(rack.telemetry().core_temp_max_c, -20.0);
  rack.set_all_powered(false);  // dark: the cores stay at ambient
  for (int t = 0; t < 5; ++t) rack.step(1.0, t);
  EXPECT_DOUBLE_EQ(rack.telemetry().core_temp_max_c, -20.0);
  rack.set_all_powered(true);
  rack.step(1.0, 5.0);
  double hottest = rack.temperature_c(0);
  for (std::size_t c = 0; c < rack.num_cores(); ++c) {
    hottest = std::max(hottest, rack.temperature_c(c));
  }
  EXPECT_LT(hottest, 0.0);
  EXPECT_DOUBLE_EQ(rack.telemetry().core_temp_max_c, hottest);
}

}  // namespace
}  // namespace sprintcon::server
