#include "workload/interactive.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/attributes.hpp"
#include "common/validation.hpp"

namespace sprintcon::workload {

void InteractiveTraceConfig::validate() const {
  SPRINTCON_EXPECTS(mean_utilization >= 0.0 && mean_utilization <= 1.0,
                    "mean utilization must be in [0, 1]");
  SPRINTCON_EXPECTS(idle_utilization >= 0.0 && idle_utilization <= 1.0,
                    "idle utilization must be in [0, 1]");
  SPRINTCON_EXPECTS(ramp_up_s >= 0.0, "ramp-up must be non-negative");
  SPRINTCON_EXPECTS(noise_tau_s > 0.0, "noise tau must be positive");
  SPRINTCON_EXPECTS(noise_sigma >= 0.0, "noise sigma must be non-negative");
  SPRINTCON_EXPECTS(spike_decay_s > 0.0, "spike decay must be positive");
  SPRINTCON_EXPECTS(spike_rate_per_s >= 0.0,
                    "spike rate must be non-negative");
  SPRINTCON_EXPECTS(swell_period_s > 0.0, "swell period must be positive");
  for (std::size_t i = 1; i < envelope.size(); ++i) {
    SPRINTCON_EXPECTS(envelope[i].t_s > envelope[i - 1].t_s,
                      "envelope points must be sorted by time");
  }
  for (const EnvelopePoint& p : envelope) {
    SPRINTCON_EXPECTS(p.mean_utilization >= 0.0 && p.mean_utilization <= 1.0,
                      "envelope utilization must be in [0, 1]");
  }
}

double InteractiveTraceConfig::envelope_mean(double t_s) const {
  const auto& env = envelope;
  if (env.empty()) return mean_utilization;
  if (t_s <= env.front().t_s) return env.front().mean_utilization;
  if (t_s >= env.back().t_s) return env.back().mean_utilization;
  for (std::size_t i = 1; i < env.size(); ++i) {
    if (t_s <= env[i].t_s) {
      const double x =
          (t_s - env[i - 1].t_s) / (env[i].t_s - env[i - 1].t_s);
      return env[i - 1].mean_utilization +
             x * (env[i].mean_utilization - env[i - 1].mean_utilization);
    }
  }
  return env.back().mean_utilization;  // unreachable
}

void TraceStepFactors::refresh(const InteractiveTraceConfig& config,
                               double dt) {
  if (dt == dt_s) return;
  // AR(1) noise discretized to stay stationary for any dt, and the spike
  // process' decay/arrival factors.
  noise_rho = std::exp(-dt / config.noise_tau_s);
  innovation_sigma = config.noise_sigma *
                     std::sqrt(std::max(1.0 - noise_rho * noise_rho, 0.0));
  spike_retain = std::exp(-dt / config.spike_decay_s);
  spike_p_arrival = 1.0 - std::exp(-config.spike_rate_per_s * dt);
  dt_s = dt;
}

namespace {

/// Burst envelope (or constant mean) at trace time `now_s`, with the onset
/// ramp applied on top. Shared by every core of a block.
double burst_base(const InteractiveTraceConfig& config, double now_s) {
  const double mean = config.envelope_mean(now_s);
  double base = mean;
  if (config.ramp_up_s > 0.0 && now_s < config.ramp_up_s) {
    const double x = now_s / config.ramp_up_s;
    base = config.idle_utilization + (mean - config.idle_utilization) * x;
  }
  return base;
}

/// One core's utilization for the interval ending at the current trace
/// time: the slow swell (computed by the caller), the AR(1) noise and the
/// spike process on top of the shared base. Draw order per core: one
/// normal, one bernoulli, and one uniform on a spike arrival.
inline double trace_core_step(const InteractiveTraceConfig& config,
                              const TraceStepFactors& f, double base,
                              double swell, TraceCoreState& core) {
  core.ar_state =
      f.noise_rho * core.ar_state + core.rng.normal(0.0, f.innovation_sigma);

  // Spike process: Poisson arrivals, exponential decay.
  core.spike_level *= f.spike_retain;
  if (core.rng.bernoulli(f.spike_p_arrival)) {
    core.spike_level += config.spike_magnitude * core.rng.uniform(0.6, 1.4);
  }

  return std::clamp(base + swell + core.ar_state + core.spike_level, 0.0,
                    1.0);
}

}  // namespace

InteractiveTraceGenerator::InteractiveTraceGenerator(
    const InteractiveTraceConfig& config, Rng rng, double phase_s)
    : config_(config),
      core_{rng, phase_s},
      utilization_(config.idle_utilization) {
  config.validate();
  SPRINTCON_EXPECTS(std::isfinite(phase_s), "swell phase must be finite");
}

double InteractiveTraceGenerator::step(double dt_s, double /*freq*/) {
  SPRINTCON_EXPECTS(dt_s > 0.0, "dt must be positive");
  now_s_ += dt_s;
  factors_.refresh(config_, dt_s);
  utilization_ = trace_core_step(config_, factors_,
                                 burst_base(config_, now_s_),
                                 swell_at(config_, now_s_ + core_.phase_s),
                                 core_);
  return utilization_;
}

void SwellMemo::allocate() {
  // A NaN key never equals the bits of a finite-sum argument.
  slots_.assign(kSlots,
                {std::bit_cast<std::uint64_t>(
                     std::numeric_limits<double>::quiet_NaN()),
                 0.0});
}

InteractiveTraceBlock::InteractiveTraceBlock(
    const InteractiveTraceGenerator& first, std::uint32_t core)
    : config_(first.config_), now_s_(first.now_s_) {
  members_.push_back({first.core_, core});
}

bool InteractiveTraceBlock::try_add(const InteractiveTraceGenerator& generator,
                                    std::uint32_t core) {
  if (generator.now_s_ != now_s_ || !(generator.config_ == config_)) {
    return false;
  }
  members_.push_back({generator.core_, core});
  if (members_.size() == 2) memo_.allocate();
  return true;
}

SPRINTCON_HOT void InteractiveTraceBlock::step(double dt_s,
                                               std::span<const double> /*freq*/,
                                               std::span<double> util) {
  // The per-block terms: every member has stepped the same dts since it
  // was built, so its trace time, base and factors are the block's.
  now_s_ += dt_s;
  if (dt_s != factors_.dt_s) memo_.set_lattice(dt_s);
  factors_.refresh(config_, dt_s);
  const double base = burst_base(config_, now_s_);
  for (Member& m : members_) {
    const double swell = memo_.swell(config_, now_s_ + m.state.phase_s);
    util[m.core] = trace_core_step(config_, factors_, base, swell, m.state);
  }
}

}  // namespace sprintcon::workload
