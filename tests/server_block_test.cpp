// The server's block stepping against per-core scalar stepping, bit for
// bit.
//
// Server::step advances its interactive cores as one block per source
// family, its batch jobs in one loop and every temperature in one kernel.
// The reference below steps each core on its own with the scalar objects
// (InteractiveTraceGenerator, RequestQueueSource, ReplayUtilization,
// BatchJob::advance, the checked MeasurementPowerModel::core_dynamic_w and
// CoreThermalModel), in core order. Every comparison is ==: a block that
// shares a per-block term differently, reorders a sum or reassociates an
// expression fails here by one bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "core_thermal_model.hpp"
#include "server/rack.hpp"
#include "sim/clock.hpp"
#include "workload/batch_profile.hpp"

namespace sprintcon::server {
namespace {

using workload::BatchJob;
using workload::InteractiveTraceConfig;
using workload::InteractiveTraceGenerator;
using workload::RecordedTrace;
using workload::ReplayUtilization;
using workload::RequestQueueConfig;
using workload::RequestQueueSource;

// Server's fan response time constant (server.cpp).
constexpr double kFanTauS = 8.0;

/// One server stepped core by core with the scalar models.
class ScalarServer {
 public:
  ScalarServer(const PlatformSpec& spec, const std::vector<CoreSpec>& cores,
               Rng fan_rng, const ThermalSpec& thermal)
      : spec_(spec), measurement_(spec), fan_(spec.fan_peak_power_w, kFanTauS,
                                             fan_rng) {
    for (const CoreSpec& c : cores) {
      cores_.push_back(c.workload);
      freq_min_.push_back(c.freq_min);
      freq_max_.push_back(c.freq_max);
      const bool batch = std::holds_alternative<BatchJob>(c.workload);
      freq_.push_back(batch ? c.freq_min : c.freq_max);
      util_.push_back(0.0);
      dyn_.push_back(0.0);
      thermal_.emplace_back(thermal);
    }
  }

  void set_freq(std::size_t c, double f) {
    freq_[c] = std::clamp(f, freq_min_[c], freq_max_[c]);
  }
  RequestQueueSource& queue(std::size_t c) {
    return std::get<RequestQueueSource>(cores_[c]);
  }

  void step(double dt_s, double now_s) {
    double inter = 0.0, batch = 0.0;
    for (std::size_t c = 0; c < cores_.size(); ++c) {
      const double f = freq_[c];
      util_[c] = std::visit(
          [&](auto& w) -> double {
            if constexpr (std::is_same_v<std::decay_t<decltype(w)>, BatchJob>) {
              return w.advance(dt_s, f, now_s).busy_fraction;
            } else {
              return w.step(dt_s, f);
            }
          },
          cores_[c]);
      dyn_[c] = measurement_.core_dynamic_w(f, util_[c]);
      thermal_[c].step(dyn_[c], dt_s);
      (std::holds_alternative<BatchJob>(cores_[c]) ? batch : inter) += dyn_[c];
    }
    const double before_fan = measurement_.server_power_w(inter + batch);
    power_w_ = before_fan + fan_.step(dt_s, before_fan, spec_.idle_power_w,
                                      spec_.peak_power_w);
  }

  /// Asserts every per-core array and the server power equal bit for bit.
  void expect_identical(const Server& s, int tick) const {
    ASSERT_EQ(s.num_cores(), cores_.size());
    for (std::size_t c = 0; c < cores_.size(); ++c) {
      ASSERT_EQ(s.utilization(c), util_[c]) << "tick " << tick << " core " << c;
      ASSERT_EQ(s.freq(c), freq_[c]) << "tick " << tick << " core " << c;
      ASSERT_EQ(s.dynamic_w(c), dyn_[c]) << "tick " << tick << " core " << c;
      ASSERT_EQ(s.temperature_c(c), thermal_[c].temperature_c())
          << "tick " << tick << " core " << c;
    }
    ASSERT_EQ(s.power_w(), power_w_) << "tick " << tick;
  }

 private:
  PlatformSpec spec_;
  MeasurementPowerModel measurement_;
  FanModel fan_;
  std::vector<CoreSpec::Workload> cores_;
  std::vector<double> freq_min_, freq_max_, freq_, util_, dyn_;
  std::vector<CoreThermalModel> thermal_;
  double power_w_ = 0.0;
};

InteractiveTraceConfig enveloped_config() {
  InteractiveTraceConfig cfg;
  cfg.envelope = {{0.0, 0.3}, {200.0, 0.85}, {450.0, 0.5}, {800.0, 0.7}};
  cfg.ramp_up_s = 35.0;
  cfg.spike_rate_per_s = 1.0 / 20.0;  // plenty of spike draws
  return cfg;
}

RecordedTrace replay_trace() {
  RecordedTrace trace;
  trace.dt_s = 2.0;
  for (int i = 0; i < 40; ++i) {
    trace.samples.push_back(0.5 + 0.4 * std::sin(0.3 * i));
  }
  return trace;
}

BatchJob job(std::size_t i, Rng rng) {
  const auto profiles = workload::spec2006_profiles();
  return BatchJob(profiles[i % profiles.size()], /*deadline_s=*/700.0,
                  /*work_s=*/150.0 + 40.0 * static_cast<double>(i),
                  i % 2 == 0 ? workload::CompletionMode::kRunOnce
                             : workload::CompletionMode::kRepeat,
                  rng);
}

ThermalSpec warm_thermal() {
  ThermalSpec t;
  t.resistance_c_per_w = 3.1;
  t.time_constant_s = 9.0;
  return t;
}

/// The DVFS pattern both sides receive: a deterministic sweep per core.
double commanded_freq(int tick, std::size_t core) {
  return 0.1 + 0.95 * std::fmod(0.37 * tick + 0.21 * static_cast<double>(core),
                                1.0);
}

TEST(ServerBlocks, MixedSourceFamiliesMatchScalarStepping) {
  const PlatformSpec spec = paper_platform();
  Rng rng(2718);
  RequestQueueConfig queue_cfg;
  queue_cfg.offered_load = enveloped_config();
  queue_cfg.service_rate_peak = 800.0;
  // Core order interleaves the families and the roles.
  std::vector<CoreSpec> cores;
  cores.push_back({0.2, 1.0, InteractiveTraceGenerator(enveloped_config(),
                                                       rng.split(), 3.0)});
  cores.push_back({0.2, 1.0, RequestQueueSource(queue_cfg, rng.split(), 7.0)});
  cores.push_back({0.3, 0.9, job(0, rng.split())});
  cores.push_back({0.2, 1.0, ReplayUtilization(replay_trace(), 1.3, true, 5.0)});
  cores.push_back({0.2, 1.0, InteractiveTraceGenerator(enveloped_config(),
                                                       rng.split(), 41.0)});
  cores.push_back({0.2, 1.0, job(1, rng.split())});
  cores.push_back({0.4, 1.0, RequestQueueSource(queue_cfg, rng.split(), 19.0)});
  cores.push_back({0.2, 1.0, job(2, rng.split())});

  ScalarServer ref(spec, cores, Rng(99), warm_thermal());
  Server server(spec, cores, Rng(99));
  server.attach_thermal(warm_thermal());
  ASSERT_EQ(server.request_queues().size(), 2u);

  double now = 0.0;
  for (int tick = 0; tick < 1200; ++tick) {
    // One dt change mid-run: the blocks' dt-keyed factors must refresh.
    const double dt = tick < 500 ? 1.0 : 0.5;
    if (tick % 3 == 0) {
      for (std::size_t c = 0; c < server.num_cores(); ++c) {
        server.set_freq(c, commanded_freq(tick, c));
        ref.set_freq(c, commanded_freq(tick, c));
      }
    }
    if (tick == 300 || tick == 650 || tick == 900) {
      const double scale = tick == 300 ? 0.0 : tick == 650 ? 1.6 : 1.0;
      server.request_queues()[1].set_load_scale(scale);
      ref.queue(6).set_load_scale(scale);
    }
    // A dark stretch: nothing advances, so the block's shared trace time
    // must stay in step with every member's.
    const bool dark = tick >= 700 && tick < 720;
    server.set_powered(!dark);
    server.step(dt, now);
    if (!dark) ref.step(dt, now);
    if (!dark) ref.expect_identical(server, tick);
    now += dt;
  }
}

TEST(ServerBlocks, RackWithPerCoreTraceConfigsMatchesScalarStepping) {
  // Every interactive core carries its own InteractiveTraceConfig (what
  // examples/custom_rack.cpp can build), so a server holds several trace
  // blocks; cores sharing a config share a block.
  const PlatformSpec spec = paper_platform();
  Rng rng(31337);
  std::vector<std::vector<CoreSpec>> layouts;
  std::vector<Server> servers;
  for (std::size_t s = 0; s < 3; ++s) {
    std::vector<CoreSpec> cores;
    for (std::size_t c = 0; c < spec.cores_per_server; ++c) {
      if (c < 5) {
        InteractiveTraceConfig cfg =
            s == 2 ? enveloped_config() : InteractiveTraceConfig{};
        cfg.mean_utilization = 0.4 + 0.1 * static_cast<double>(c % 3);
        cfg.noise_tau_s = 6.0 + static_cast<double>(s);
        cores.push_back({spec.freq_min, spec.freq_max,
                         InteractiveTraceGenerator(cfg, rng.split(),
                                                   17.0 * double(s + c))});
      } else {
        cores.push_back({spec.freq_min, spec.freq_max, job(s + c, rng.split())});
      }
    }
    layouts.push_back(cores);
    servers.emplace_back(spec, std::move(cores), Rng(500 + s));
  }
  Rack rack(std::move(servers));
  std::vector<ScalarServer> refs;
  for (std::size_t s = 0; s < layouts.size(); ++s) {
    refs.emplace_back(spec, layouts[s], Rng(500 + s), ThermalSpec{});
    rack.servers()[s].attach_thermal(ThermalSpec{});
  }

  sim::SimClock clock(1.0);
  for (int tick = 0; tick < 1000; ++tick) {
    if (tick % 5 == 0) {
      for (std::size_t s = 0; s < refs.size(); ++s) {
        for (const std::uint32_t c : rack.servers()[s].batch_cores()) {
          rack.servers()[s].set_freq(c, commanded_freq(tick, c));
          refs[s].set_freq(c, commanded_freq(tick, c));
        }
      }
    }
    rack.step(clock);
    for (std::size_t s = 0; s < refs.size(); ++s) {
      refs[s].step(clock.dt_s(), clock.now_s());
      refs[s].expect_identical(rack.servers()[s], tick);
    }
    clock.advance();
  }
}

}  // namespace
}  // namespace sprintcon::server
