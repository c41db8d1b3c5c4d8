#include "baselines/power_cap.hpp"

namespace sprintcon::baselines {

namespace {

control::PidConfig cap_gains(const core::SprintConfig& config,
                             const server::Rack& rack) {
  // Output is the uniform normalized frequency. Scale the gains by the
  // rack's approximate watts-per-unit-frequency so the loop behaves the
  // same at any rack size.
  const double watts_per_f =
      18.0 * static_cast<double>(rack.num_cores());  // rough rack-level gain

  control::PidConfig pid;
  pid.kp = 0.2 / watts_per_f;
  pid.ki = 0.4 / watts_per_f;
  pid.output_min = rack.platform().freq_min;
  pid.output_max = rack.platform().freq_max;
  (void)config;
  return pid;
}

}  // namespace

PowerCapController::PowerCapController(const core::SprintConfig& config,
                                       server::Rack& rack,
                                       power::PowerPath& path)
    : config_(config),
      rack_(rack),
      path_(path),
      pi_(cap_gains(config, rack)),
      freq_(rack.platform().freq_min) {
  config.validate();
}

void PowerCapController::step(const sim::SimClock& clock) {
  const double p_total = rack_.total_power_w();

  if (clock.every(config_.control_period_s)) {
    // Classic capping leaves a small guard band below the rating so the
    // breaker never integrates heat.
    const double setpoint = 0.98 * config_.cb_rated_w;
    freq_ = pi_.step(setpoint, p_total, config_.control_period_s);
    for (const std::uint32_t c : rack_.interactive_ids()) {
      rack_.set_freq(c, freq_);
    }
    const std::span<const workload::BatchJob> jobs = rack_.jobs();
    const std::span<const std::uint32_t> batch = rack_.batch_ids();
    for (std::size_t k = 0; k < batch.size(); ++k) {
      rack_.set_freq(batch[k],
                     jobs[k].completed() ? rack_.freq_min(batch[k]) : freq_);
    }
  }

  // No sprinting: the UPS is never discharged on purpose.
  path_.step(p_total, 0.0, clock.dt_s());
}

}  // namespace sprintcon::baselines
