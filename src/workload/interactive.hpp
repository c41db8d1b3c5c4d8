// Interactive workload synthesis (Wikipedia-like request traces).
//
// The paper drives its interactive cores from traces of a Wikipedia data
// center [31]: a 15-minute window of a request stream whose intensity has
// (a) a slow swell over minutes, (b) short-term correlated noise, and
// (c) occasional sharp spikes. The UPS power controller exists precisely
// because this signal fluctuates faster than a throttling loop could
// track; this generator reproduces those dynamics deterministically.
//
// The generator emits per-core *utilization* in [0, 1] — interactive cores
// always run at peak frequency during a sprint, so their power depends on
// utilization only (Eq. 5 of the paper).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "workload/utilization_source.hpp"

namespace sprintcon::workload {

/// One breakpoint of a burst envelope: the target mean utilization at an
/// absolute trace time. Between breakpoints the mean is interpolated
/// linearly; before the first / after the last it holds.
struct EnvelopePoint {
  double t_s = 0.0;
  double mean_utilization = 0.5;

  bool operator==(const EnvelopePoint&) const = default;
};

/// Shape parameters of the synthetic interactive trace.
struct InteractiveTraceConfig {
  /// Burst-average core utilization once the burst has ramped up.
  double mean_utilization = 0.65;
  /// Optional burst envelope overriding the constant mean: lets scenarios
  /// model step bursts, ramps, flash crowds, or decaying events. Points
  /// must be sorted by time. Empty = constant mean (the ramp_up_s onset
  /// below still applies).
  std::vector<EnvelopePoint> envelope;
  /// Amplitude of the slow sinusoidal swell (minutes time scale).
  double swell_amplitude = 0.15;
  double swell_period_s = 210.0;
  /// AR(1) noise: stationary standard deviation and correlation time.
  double noise_sigma = 0.07;
  double noise_tau_s = 12.0;
  /// Poisson spike process: expected arrivals per second, initial height,
  /// and exponential decay time of each spike.
  double spike_rate_per_s = 1.0 / 90.0;
  double spike_magnitude = 0.22;
  double spike_decay_s = 12.0;
  /// Burst onset: utilization ramps from `idle_utilization` to the mean
  /// over this many seconds at the start of the trace.
  double ramp_up_s = 20.0;
  double idle_utilization = 0.15;

  /// Validate ranges and envelope monotonicity (points strictly sorted by
  /// time, means in [0, 1]); throws InvalidArgumentError. The scenario
  /// loader relies on this when lowering surge windows to envelopes.
  void validate() const;

  /// The envelope's target mean at an absolute trace time (the constant
  /// mean when no envelope is configured).
  double envelope_mean(double t_s) const;

  bool operator==(const InteractiveTraceConfig&) const = default;
};

/// AR(1) noise and spike-process discretization factors for one dt. They
/// depend only on (config, dt); dt is fixed for a whole simulation, so
/// generators cache them keyed on the last dt seen instead of paying
/// three exp + one sqrt per core per tick. Cached values come from the
/// exact same expressions, so cached runs are bit-identical to uncached
/// ones.
struct TraceStepFactors {
  double dt_s = -1.0;  ///< dt the factors were computed for
  double noise_rho = 0.0;
  double innovation_sigma = 0.0;
  double spike_retain = 0.0;
  double spike_p_arrival = 0.0;

  /// Recompute for `dt_s` unless already cached for it.
  void refresh(const InteractiveTraceConfig& config, double dt_s);
};

/// Per-core state of one synthetic trace: its private random stream, the
/// phase of its slow swell, and its AR(1) noise and spike levels.
struct TraceCoreState {
  Rng rng;
  double phase_s = 0.0;
  double ar_state = 0.0;
  double spike_level = 0.0;
};

/// Deterministic per-core interactive utilization generator. This is the
/// scalar form; a Server steps its synthetic cores as an
/// InteractiveTraceBlock, which produces bit-identical utilizations.
class InteractiveTraceGenerator {
 public:
  /// @param config   trace shape
  /// @param rng      private random stream (use Rng::split per core)
  /// @param phase_s  phase offset of the slow swell, decorrelating servers
  InteractiveTraceGenerator(const InteractiveTraceConfig& config, Rng rng,
                            double phase_s = 0.0);

  /// Advance by dt and return the utilization for the elapsed interval
  /// (trace-driven: the core frequency is ignored).
  double step(double dt_s, double freq = 1.0);

  /// Utilization of the last completed interval (initial value before any
  /// step: the idle utilization).
  double utilization() const noexcept { return utilization_; }

  const InteractiveTraceConfig& config() const noexcept { return config_; }

  /// The envelope's target mean at an absolute trace time (the constant
  /// mean when no envelope is configured). Exposed for tests.
  double envelope_mean(double t_s) const {
    return config_.envelope_mean(t_s);
  }

 private:
  friend class InteractiveTraceBlock;

  InteractiveTraceConfig config_;
  TraceCoreState core_;
  double now_s_ = 0.0;
  double utilization_;
  TraceStepFactors factors_;
};

/// The synthetic generators of one server's interactive cores, stepped as
/// one block. Every member shares the config and the trace time, so the
/// block computes the per-block terms once per tick — the trace time, the
/// envelope mean and onset ramp, and the dt-keyed factors — and then runs
/// one tight loop over the per-core states. Each core keeps its own Rng
/// and draws in the same order as InteractiveTraceGenerator::step, and
/// every expression is the scalar one, so the utilizations are
/// bit-identical to stepping each generator on its own.
class InteractiveTraceBlock final : public UtilizationSource {
 public:
  /// A block holding `first`, driving server core `core`; it takes
  /// `first`'s config and trace time.
  InteractiveTraceBlock(const InteractiveTraceGenerator& first,
                        std::uint32_t core);

  /// Append `generator`, driving server core `core`, if it has this
  /// block's config and trace time (so its trace can be stepped with the
  /// block's shared terms); returns false and changes nothing otherwise.
  bool try_add(const InteractiveTraceGenerator& generator, std::uint32_t core);
  void reserve(std::size_t n) { members_.reserve(n); }

  /// Hot path (SPRINTCON_HOT).
  void step(double dt_s, std::span<const double> freq,
            std::span<double> util) override;

 private:
  struct Member {
    TraceCoreState state;
    std::uint32_t core;
  };

  InteractiveTraceConfig config_;
  double now_s_;
  TraceStepFactors factors_;
  std::vector<Member> members_;
};

}  // namespace sprintcon::workload
