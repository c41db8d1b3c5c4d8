// The rack's block stepping against per-core scalar stepping, bit for bit.
//
// Rack::step advances its interactive cores as one block per source family
// (synthetic traces with a swell memo), its batch jobs in one loop, every
// temperature in one kernel and one fan per server. The reference below
// steps each core on its own with the scalar objects
// (InteractiveTraceGenerator, RequestQueueSource, ReplayUtilization,
// BatchJob::advance, the checked MeasurementPowerModel::core_dynamic_w and
// CoreThermalModel), server by server in core order. Every comparison is
// on the bit pattern: a block that shares a per-block term differently,
// reuses a swell it should have evaluated, reorders a sum or reassociates
// an expression fails here by one bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
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
using workload::SwellMemo;

// The rack's fan response time constant (rack.cpp).
constexpr double kFanTauS = 8.0;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

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
              return w.advance(dt_s, f, now_s);
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

  /// Asserts server `s` of `rack` matches this server bit for bit: every
  /// core's utilization, frequency, dynamic power and temperature, and the
  /// server power.
  void expect_identical(const Rack& rack, std::size_t s, int tick) const {
    for (std::size_t c = 0; c < cores_.size(); ++c) {
      const std::size_t id = rack.core_id(s, c);
      ASSERT_EQ(bits(rack.utilization(id)), bits(util_[c]))
          << "tick " << tick << " server " << s << " core " << c;
      ASSERT_EQ(bits(rack.freq(id)), bits(freq_[c]))
          << "tick " << tick << " server " << s << " core " << c;
      ASSERT_EQ(bits(rack.dynamic_w(id)), bits(dyn_[c]))
          << "tick " << tick << " server " << s << " core " << c;
      ASSERT_EQ(bits(rack.temperature_c(id)), bits(thermal_[c].temperature_c()))
          << "tick " << tick << " server " << s << " core " << c;
    }
    ASSERT_EQ(bits(rack.server_power_w(s)), bits(power_w_))
        << "tick " << tick << " server " << s;
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

/// A rack and its scalar reference, built from the same server layouts,
/// with one thermal model on every core.
struct Pair {
  Pair(const PlatformSpec& spec, const std::vector<std::vector<CoreSpec>>& layouts,
       const ThermalSpec& thermal)
      : rack(spec, specs(layouts)) {
    for (std::size_t s = 0; s < layouts.size(); ++s) {
      refs.emplace_back(spec, layouts[s], fan_rng(s), thermal);
    }
    rack.attach_thermal(thermal);
  }

  static Rng fan_rng(std::size_t s) { return Rng(500 + s); }
  static std::vector<ServerSpec> specs(
      const std::vector<std::vector<CoreSpec>>& layouts) {
    std::vector<ServerSpec> out;
    for (std::size_t s = 0; s < layouts.size(); ++s) {
      out.push_back({layouts[s], fan_rng(s)});
    }
    return out;
  }

  /// Write the same frequency to core c of server s on both sides.
  void set_freq(std::size_t s, std::size_t c, double f) {
    rack.set_freq(rack.core_id(s, c), f);
    refs[s].set_freq(c, f);
  }
  /// Step both sides (the reference stays dark while the rack is off) and
  /// compare every server.
  void step(double dt_s, double now_s, int tick) {
    rack.step(dt_s, now_s);
    if (!rack.powered()) return;
    for (std::size_t s = 0; s < refs.size(); ++s) {
      refs[s].step(dt_s, now_s);
      refs[s].expect_identical(rack, s, tick);
    }
  }

  Rack rack;
  std::vector<ScalarServer> refs;
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

/// Servers of `interactive` synthetic cores (one shared config, the swell
/// phase of core c of server s given by `phase`) and batch jobs.
template <class Phase>
std::vector<std::vector<CoreSpec>> trace_layouts(std::size_t servers,
                                                 std::size_t interactive,
                                                 Rng& rng, Phase phase) {
  const PlatformSpec spec = paper_platform();
  std::vector<std::vector<CoreSpec>> layouts;
  for (std::size_t s = 0; s < servers; ++s) {
    std::vector<CoreSpec> cores;
    for (std::size_t c = 0; c < spec.cores_per_server; ++c) {
      if (c < interactive) {
        cores.push_back({spec.freq_min, spec.freq_max,
                         InteractiveTraceGenerator(enveloped_config(),
                                                   rng.split(), phase(s, c))});
      } else {
        cores.push_back({spec.freq_min, spec.freq_max, job(s + c, rng.split())});
      }
    }
    layouts.push_back(std::move(cores));
  }
  return layouts;
}

TEST(ServerBlocks, MixedSourceFamiliesMatchScalarStepping) {
  const PlatformSpec spec = paper_platform();
  Rng rng(2718);
  RequestQueueConfig queue_cfg;
  queue_cfg.offered_load = enveloped_config();
  queue_cfg.service_rate_peak = 800.0;
  // Core order interleaves the families and the roles; two servers share
  // the rack-wide blocks.
  std::vector<std::vector<CoreSpec>> layouts;
  for (std::size_t s = 0; s < 2; ++s) {
    std::vector<CoreSpec> cores;
    const double shift = 29.0 * static_cast<double>(s);
    cores.push_back({0.2, 1.0, InteractiveTraceGenerator(enveloped_config(),
                                                         rng.split(), 3.0 + shift)});
    cores.push_back({0.2, 1.0, RequestQueueSource(queue_cfg, rng.split(), 7.0)});
    cores.push_back({0.3, 0.9, job(0 + s, rng.split())});
    cores.push_back(
        {0.2, 1.0, ReplayUtilization(replay_trace(), 1.3, true, 5.0 + shift)});
    cores.push_back({0.2, 1.0, InteractiveTraceGenerator(enveloped_config(),
                                                         rng.split(), 41.0)});
    cores.push_back({0.2, 1.0, job(1 + s, rng.split())});
    cores.push_back({0.4, 1.0, RequestQueueSource(queue_cfg, rng.split(), 19.0)});
    cores.push_back({0.2, 1.0, job(2 + s, rng.split())});
    layouts.push_back(std::move(cores));
  }

  Pair pair(spec, layouts, warm_thermal());
  ASSERT_EQ(pair.rack.request_queues().size(), 4u);

  double now = 0.0;
  for (int tick = 0; tick < 1200; ++tick) {
    // One dt change mid-run: the blocks' dt-keyed factors and the swell
    // memo's lattice must follow.
    const double dt = tick < 500 ? 1.0 : 0.5;
    if (tick % 3 == 0) {
      for (std::size_t s = 0; s < layouts.size(); ++s) {
        for (std::size_t c = 0; c < spec.cores_per_server; ++c) {
          pair.set_freq(s, c, commanded_freq(tick, c + 8 * s));
        }
      }
    }
    if (tick == 300 || tick == 650 || tick == 900) {
      // The second queue of server 0 (core 6).
      const double scale = tick == 300 ? 0.0 : tick == 650 ? 1.6 : 1.0;
      pair.rack.request_queues()[1].set_load_scale(scale);
      pair.refs[0].queue(6).set_load_scale(scale);
    }
    // A rack-wide dark stretch: nothing advances, so the blocks' shared
    // trace time must stay in step with every member's.
    pair.rack.set_all_powered(!(tick >= 700 && tick < 720));
    pair.step(dt, now, tick);
    if (!pair.rack.powered()) {
      for (std::size_t s = 0; s < layouts.size(); ++s) {
        ASSERT_EQ(pair.rack.server_power_w(s), 0.0) << "tick " << tick;
      }
    }
    if (HasFatalFailure()) return;
    now += dt;
  }
}

TEST(ServerBlocks, RackWithPerCoreTraceConfigsMatchesScalarStepping) {
  // Every interactive core carries its own InteractiveTraceConfig (what
  // examples/custom_rack.cpp can build), so the rack holds several trace
  // blocks, some with one member; cores sharing a config share a block
  // across servers.
  const PlatformSpec spec = paper_platform();
  Rng rng(31337);
  std::vector<std::vector<CoreSpec>> layouts;
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
    layouts.push_back(std::move(cores));
  }
  Pair pair(spec, layouts, ThermalSpec{});

  sim::SimClock clock(1.0);
  for (int tick = 0; tick < 1000; ++tick) {
    if (tick % 5 == 0) {
      for (std::size_t s = 0; s < layouts.size(); ++s) {
        for (const std::uint32_t id : pair.rack.batch_ids(s)) {
          const std::size_t c = id - pair.rack.core_id(s, 0);
          pair.set_freq(s, c, commanded_freq(tick, c));
        }
      }
    }
    pair.step(clock.dt_s(), clock.now_s(), tick);
    if (HasFatalFailure()) return;
    clock.advance();
  }
}

TEST(ServerBlocks, CanonicalLayoutEvaluatesEachDistinctSwellOnce) {
  // The canonical rig's interactive layout: 16 servers x 4 synthetic cores
  // with swell phase 13 s + 3 c on the dt = 1 lattice. 900 ticks of 64
  // members see the arguments 1..1104 only, and the 256-slot table holds
  // every argument from its first use to its last.
  const PlatformSpec spec = paper_platform();
  Rng rng(42);
  Pair pair(spec, trace_layouts(16, 4, rng, [](std::size_t s, std::size_t c) {
              return static_cast<double>(s) * 13.0 + static_cast<double>(c) * 3.0;
            }),
            ThermalSpec{});
  sim::SimClock clock(1.0);
  for (int tick = 0; tick < 900; ++tick) {
    if (tick % 4 == 0) {
      for (std::size_t s = 0; s < 16; ++s) {
        for (std::size_t c = 4; c < 8; ++c) {
          pair.set_freq(s, c, commanded_freq(tick, c + 8 * s));
        }
      }
    }
    pair.step(clock.dt_s(), clock.now_s(), tick);
    if (HasFatalFailure()) return;
    clock.advance();
  }
  EXPECT_EQ(pair.rack.swell_evaluations(), 1104u);
  EXPECT_EQ(pair.rack.swell_reused(), 64u * 900u - 1104u);
}

TEST(ServerBlocks, FineStepWithNonIntegerPhasesMatchesScalarStepping) {
  // dt = 0.1 and phases off the lattice: the accumulated trace time and the
  // phases rarely sum to an argument seen before, so the memo mostly
  // evaluates — and must still never serve a neighbour's swell.
  const PlatformSpec spec = paper_platform();
  Rng rng(1618);
  Pair pair(spec, trace_layouts(4, 6, rng, [](std::size_t s, std::size_t c) {
              return 3.7 * static_cast<double>(s) + 1.3 * static_cast<double>(c) +
                     0.011;
            }),
            warm_thermal());
  double now = 0.0;
  for (int tick = 0; tick < 3000; ++tick) {
    if (tick % 7 == 0) {
      for (std::size_t s = 0; s < 4; ++s) {
        for (std::size_t c = 6; c < 8; ++c) {
          pair.set_freq(s, c, commanded_freq(tick, c + 8 * s));
        }
      }
    }
    pair.step(0.1, now, tick);
    if (HasFatalFailure()) return;
    now += 0.1;
  }
  EXPECT_EQ(pair.rack.swell_evaluations() + pair.rack.swell_reused(),
            24u * 3000u);
  EXPECT_GT(pair.rack.swell_evaluations(), pair.rack.swell_reused());
}

TEST(ServerBlocks, PhaseSpanWiderThanTheTableMatchesScalarStepping) {
  // Phases 37 k for member k span 2,331 lattice points, far more than the
  // 256 slots: arguments that share a slot evict each other, and a later
  // member must re-evaluate rather than take the evicting swell.
  const PlatformSpec spec = paper_platform();
  Rng rng(7);
  const auto phase = [](std::size_t s, std::size_t c) {
    return 37.0 * static_cast<double>(s * 8 + c);
  };
  Pair pair(spec, trace_layouts(8, 8, rng, phase), ThermalSpec{});
  std::set<std::uint64_t> distinct;
  double now = 0.0;  // the trace time, accumulated as the blocks do
  for (int tick = 0; tick < 600; ++tick) {
    now += 1.0;
    for (std::size_t s = 0; s < 8; ++s) {
      for (std::size_t c = 0; c < 8; ++c) distinct.insert(bits(now + phase(s, c)));
    }
    pair.step(1.0, now - 1.0, tick);
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(pair.rack.swell_evaluations() + pair.rack.swell_reused(),
            64u * 600u);
  EXPECT_GT(pair.rack.swell_evaluations(), distinct.size());
}

TEST(ServerBlocks, SwellMemoKeysOnBitPatterns) {
  // +0.0 and -0.0 compare equal but have different swells (sin keeps the
  // sign of a zero): a memo keyed on == would serve the first for both.
  const InteractiveTraceConfig cfg;
  SwellMemo memo;
  memo.allocate();
  memo.set_lattice(1.0);
  for (const double x : {0.0, 1.0, 0.0, -0.0, -0.0, 5.0, 261.0, 5.0}) {
    const double swell = memo.swell(cfg, x);
    ASSERT_EQ(bits(swell), bits(workload::swell_at(cfg, x))) << "x = " << x;
    ASSERT_EQ(std::signbit(swell), std::signbit(x)) << "x = " << x;
  }
  // Evaluated: +0, 1, -0 (same slot as +0, different key), 5, 261 (evicts
  // 5 from the shared slot) and 5 again; reused: the repeated +0 and -0.
  EXPECT_EQ(memo.evaluations(), 6u);
  EXPECT_EQ(memo.reused(), 2u);

  // Without a table (a one-member block) every swell is evaluated.
  SwellMemo untabled;
  untabled.set_lattice(1.0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(bits(untabled.swell(cfg, 7.0)), bits(workload::swell_at(cfg, 7.0)));
  }
  EXPECT_EQ(untabled.evaluations(), 3u);
  EXPECT_EQ(untabled.reused(), 0u);
}

}  // namespace
}  // namespace sprintcon::server
