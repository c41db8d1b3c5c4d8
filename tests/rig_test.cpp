// Tests for the scenario rig construction and bookkeeping.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "fault/fault.hpp"
#include "scenario/rig.hpp"

namespace sprintcon::scenario {
namespace {

RigConfig tiny() {
  RigConfig cfg;
  cfg.num_servers = 2;
  cfg.sprint.cb_rated_w = 2.0 * 300.0 * (2.0 / 3.0);
  cfg.ups_capacity_wh = 2.0 * 300.0 * (5.0 / 60.0);
  cfg.duration_s = 120.0;
  return cfg;
}

TEST(Rig, PolicyNames) {
  EXPECT_STREQ(to_string(Policy::kSprintCon), "SprintCon");
  EXPECT_STREQ(to_string(Policy::kSgct), "SGCT");
  EXPECT_STREQ(to_string(Policy::kSgctV1), "SGCT-V1");
  EXPECT_STREQ(to_string(Policy::kSgctV2), "SGCT-V2");
}

TEST(Rig, BuildsPaperTopology) {
  RigConfig cfg;  // defaults: 16 servers, 4+4 cores
  cfg.duration_s = 5.0;
  Rig rig(cfg);
  EXPECT_EQ(rig.rack().num_servers(), 16u);
  EXPECT_EQ(rig.rack().batch_cores().size(), 64u);
  EXPECT_DOUBLE_EQ(rig.power_path().battery().capacity_wh(), 400.0);
  EXPECT_DOUBLE_EQ(rig.power_path().breaker().rated_power_w(), 3200.0);
  EXPECT_NE(rig.sprintcon(), nullptr);
  EXPECT_EQ(rig.sgct(), nullptr);
}

TEST(Rig, SgctPolicyInstantiatesBaseline) {
  RigConfig cfg = tiny();
  cfg.policy = Policy::kSgctV2;
  Rig rig(cfg);
  EXPECT_EQ(rig.sprintcon(), nullptr);
  ASSERT_NE(rig.sgct(), nullptr);
  EXPECT_EQ(rig.sgct()->variant(), baselines::SgctVariant::kV2);
}

/// The two rig shapes whose channel sets differ from the plain rig's.
RigConfig with_faults(RigConfig cfg) {
  cfg.faults = fault::FaultPlan::parse_string(
      "meter_noise start=10 duration=60 magnitude=0.05\n"
      "dvfs_stuck start=30 duration=60\n"
      "ups_fade start=40 magnitude=0.5\n");
  return cfg;
}
RigConfig with_queues(RigConfig cfg) {
  cfg.use_request_queues = true;
  return cfg;
}

TEST(Rig, RecordsAllStandardChannels) {
  // The full channel set in registration order, for each rig shape.
  const std::vector<std::string> head = {
      "total_power_w",    "cb_power_w",        "ups_power_w",
      "unserved_w",       "cb_budget_w",       "p_batch_target_w",
      "freq_interactive", "freq_batch",        "core_temp_max_c",
      "interactive_p95_latency_ms",            "battery_soc",
      "cb_thermal_stress", "breaker_open"};
  const auto with_tail = [&head](std::vector<std::string> tail) {
    std::vector<std::string> all = head;
    all.insert(all.end(), tail.begin(), tail.end());
    return all;
  };
  const struct {
    const char* label;
    RigConfig config;
    std::vector<std::string> channels;
  } cases[] = {
      {"plain", tiny(), with_tail({"battery_component_soc"})},
      {"faults", with_faults(tiny()),
       with_tail({"fault_active", "battery_component_soc"})},
      {"queues", with_queues(tiny()),
       with_tail({"battery_component_soc", "queue_backlog_mean",
                  "queue_response_ms"})},
  };
  for (const auto& c : cases) {
    Rig rig(c.config);
    rig.run();
    EXPECT_EQ(rig.recorder().channel_names(), c.channels) << c.label;
    for (const std::string& name : c.channels) {
      EXPECT_EQ(rig.recorder().series(name).size(), 120u)
          << c.label << " " << name;
    }
  }
}

TEST(Rig, MonitoringNeverTouchesPhysics) {
  // Health gauges, metric windows and health checks read the rig and
  // write metrics and events only: every recorded channel of a watched
  // rig equals the same rig with observability off, bit for bit.
  const RigConfig canonical;
  const struct {
    const char* label;
    RigConfig config;
  } cases[] = {{"canonical", canonical},
               {"faults", with_faults(canonical)},
               {"queues", with_queues(canonical)}};
  for (const auto& c : cases) {
    RigConfig watched_config = c.config;
    watched_config.health = true;
    Rig watched(watched_config);
    Rig plain(c.config);
    watched.run();
    plain.run();
    ASSERT_NE(watched.health(), nullptr) << c.label;
    ASSERT_EQ(plain.obs(), nullptr) << c.label;
    // The monitors ran: every tick was timed and health was checked.
    const obs::MetricsSnapshot snap = watched.obs()->metrics().snapshot();
    EXPECT_EQ(snap.histograms.at("sim.tick_us").count, 900u) << c.label;
    EXPECT_EQ(snap.gauges.count("health.active_alerts"), 1u) << c.label;
    const std::vector<std::string> names = plain.recorder().channel_names();
    ASSERT_EQ(watched.recorder().channel_names(), names) << c.label;
    for (const std::string& name : names) {
      EXPECT_EQ(watched.recorder().series(name).values(),
                plain.recorder().series(name).values())
          << c.label << " " << name;
    }
  }
}

TEST(Rig, ReportCountsSwellEvaluationsAndReuses) {
  // The canonical rack's 64 synthetic cores share one trace block, whose
  // 900 ticks see 1,104 distinct swell arguments: each is evaluated once
  // and every other swell is a memo reuse.
  RigConfig config;
  config.observability = true;
  Rig rig(config);
  rig.run();
  const obs::RunReport report = rig.report();
  EXPECT_EQ(report.metrics.counters.at("workload.swell_evaluations"), 1104u);
  EXPECT_EQ(report.metrics.counters.at("workload.swell_reused"),
            64u * 900u - 1104u);
}

TEST(Rig, RunIsIdempotent) {
  Rig rig(tiny());
  rig.run();
  const std::size_t n = rig.recorder().series("total_power_w").size();
  rig.run();
  EXPECT_EQ(rig.recorder().series("total_power_w").size(), n);
}

TEST(Rig, SummaryCountsJobs) {
  RigConfig cfg = tiny();
  cfg.duration_s = 30.0;
  Rig rig(cfg);
  rig.run();
  const auto summary = rig.summary();
  EXPECT_EQ(summary.jobs_total, 8u);
  EXPECT_EQ(summary.jobs_completed, 0u);  // 30 s is far too short
  EXPECT_FALSE(summary.all_deadlines_met);
  EXPECT_EQ(summary.label, "SprintCon");
}

TEST(Rig, DeterministicAcrossRuns) {
  RigConfig cfg = tiny();
  Rig a(cfg), b(cfg);
  a.run();
  b.run();
  const auto& sa = a.recorder().series("total_power_w");
  const auto& sb = b.recorder().series("total_power_w");
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) EXPECT_DOUBLE_EQ(sa[i], sb[i]);
}

TEST(Rig, SeedChangesTrajectory) {
  RigConfig cfg = tiny();
  Rig a(cfg);
  cfg.seed = 43;
  Rig b(cfg);
  a.run();
  b.run();
  const auto& sa = a.recorder().series("total_power_w");
  const auto& sb = b.recorder().series("total_power_w");
  double diff = 0.0;
  for (std::size_t i = 0; i < sa.size(); ++i) diff += std::abs(sa[i] - sb[i]);
  EXPECT_GT(diff, 1.0);
}

TEST(Rig, InvalidConfigThrows) {
  RigConfig cfg = tiny();
  cfg.num_servers = 0;
  EXPECT_THROW(Rig{cfg}, InvalidArgumentError);
  cfg = tiny();
  cfg.interactive_cores_per_server = 99;
  EXPECT_THROW(Rig{cfg}, InvalidArgumentError);
  cfg = tiny();
  cfg.batch_work_scale = 0.0;
  EXPECT_THROW(Rig{cfg}, InvalidArgumentError);
}

TEST(Rig, RunPolicyConvenience) {
  RigConfig cfg = tiny();
  cfg.duration_s = 60.0;
  const auto summary = run_policy(cfg);
  EXPECT_EQ(summary.label, "SprintCon");
  EXPECT_GT(summary.avg_total_power_w, 0.0);
}

}  // namespace
}  // namespace sprintcon::scenario
