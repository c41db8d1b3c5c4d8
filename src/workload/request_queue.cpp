#include "workload/request_queue.hpp"

#include <algorithm>

#include "common/validation.hpp"

namespace sprintcon::workload {

RequestQueueSource::RequestQueueSource(const RequestQueueConfig& config,
                                       Rng rng, double phase_s)
    : service_rate_peak_(config.service_rate_peak),
      max_backlog_(config.max_backlog),
      offered_(config.offered_load, rng, phase_s) {
  SPRINTCON_EXPECTS(config.service_rate_peak > 0.0,
                    "service rate must be positive");
  SPRINTCON_EXPECTS(config.max_backlog > 0.0, "backlog cap must be positive");
}

void RequestQueueSource::set_load_scale(double scale) {
  SPRINTCON_EXPECTS(scale >= 0.0, "load scale must be >= 0");
  load_scale_ = scale;
}

double RequestQueueSource::step(double dt_s, double freq) {
  SPRINTCON_EXPECTS(dt_s > 0.0, "dt must be positive");
  SPRINTCON_EXPECTS(freq >= 0.0 && freq <= 1.0 + 1e-9,
                    "normalized frequency must be in [0, 1]");

  // Offered load fraction -> arrival rate. The routing scale rides on
  // top of the generator so the underlying trace (and its RNG stream)
  // advances identically whether or not traffic is re-routed.
  const double load_fraction = offered_.step(dt_s);
  arrival_rate_ = load_fraction * service_rate_peak_ * load_scale_;

  // Fluid queue: capacity this tick, work available, work served.
  const double capacity = service_rate_peak_ * freq * dt_s;
  const double arriving = arrival_rate_ * dt_s;
  const double available = backlog_ + arriving;
  const double served = std::min(available, capacity);
  const double backlog_before = backlog_;
  backlog_ = available - served;

  // Admission control: shed load beyond the cap.
  if (backlog_ > max_backlog_) {
    shed_ += backlog_ - max_backlog_;
    backlog_ = max_backlog_;
  }

  // Busy fraction of the tick.
  utilization_ = capacity > 0.0 ? served / capacity : (available > 0.0 ? 1.0 : 0.0);
  utilization_ = std::clamp(utilization_, 0.0, 1.0);

  // Little's law on the mean backlog over the tick, plus the bare service
  // time at the current speed.
  const double mean_backlog = 0.5 * (backlog_before + backlog_);
  const double service_time =
      freq > 0.0 ? 1.0 / (service_rate_peak_ * freq) : 0.0;
  response_s_ = service_time + (arrival_rate_ > 1e-9
                                    ? mean_backlog / arrival_rate_
                                    : 0.0);
  return utilization_;
}

}  // namespace sprintcon::workload
