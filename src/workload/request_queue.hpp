// Request-queue interactive source: utilization that responds to DVFS.
//
// The trace-driven sources play back a fixed utilization regardless of
// what the controller does to the core — good enough while interactive
// cores stay at peak (the nominal SprintCon sprint), but wrong the moment
// a policy throttles them: a real request server does not get less work
// because it got slower, it gets *more utilized* and builds a backlog.
//
// RequestQueueSource closes that loop with a fluid queue: an offered-load
// generator produces the arrival rate; the core serves at a rate
// proportional to its frequency; unserved work accumulates as backlog and
// drains when capacity returns. Utilization is the fraction of the tick
// the core was busy, and Little's law gives the measured response time —
// so throttled baselines show the latency damage the analytic M/M/1 model
// (queueing.hpp) can only predict.
#pragma once

#include "workload/interactive.hpp"

namespace sprintcon::workload {

/// Fluid-queue configuration.
struct RequestQueueConfig {
  /// Requests/s the core serves at peak frequency.
  double service_rate_peak = 1000.0;
  /// The offered load as a fraction of peak capacity is produced by an
  /// InteractiveTraceGenerator with this shape (its "utilization" output
  /// is interpreted as lambda / mu_peak).
  InteractiveTraceConfig offered_load;
  /// Backlog cap in requests (admission control sheds load beyond this;
  /// prevents unbounded state during long outages).
  double max_backlog = 1e6;
};

/// A per-core request queue driven by a synthetic offered-load trace.
class RequestQueueSource {
 public:
  /// @param config config
  /// @param rng    stream for the offered-load generator
  /// @param phase_s phase offset of the offered-load swell
  RequestQueueSource(const RequestQueueConfig& config, Rng rng,
                     double phase_s = 0.0);

  /// Advance the queue by dt with the core at normalized frequency `freq`.
  /// Returns the busy fraction of the interval.
  double step(double dt_s, double freq);
  double utilization() const noexcept { return utilization_; }

  /// Requests waiting at the end of the last tick.
  double backlog() const noexcept { return backlog_; }
  /// Offered arrival rate of the last tick (requests/s).
  double arrival_rate() const noexcept { return arrival_rate_; }
  /// Requests shed by admission control so far.
  double shed_requests() const noexcept { return shed_; }
  /// Measured response time over the last tick via Little's law
  /// (mean backlog / arrival rate) plus the bare service time.
  double response_time_s() const noexcept { return response_s_; }

  /// Scale the offered arrival rate (request routing, not admission
  /// control): 0 drains the queue entirely — the front-end stopped
  /// sending traffic here — while > 1 models load re-routed *onto* this
  /// queue from a quarantined peer. Takes effect on the next tick.
  void set_load_scale(double scale);
  double load_scale() const noexcept { return load_scale_; }

 private:
  double service_rate_peak_;
  double max_backlog_;
  InteractiveTraceGenerator offered_;
  double backlog_ = 0.0;
  double arrival_rate_ = 0.0;
  double utilization_ = 0.0;
  double response_s_ = 0.0;
  double shed_ = 0.0;
  double load_scale_ = 1.0;
};

}  // namespace sprintcon::workload
