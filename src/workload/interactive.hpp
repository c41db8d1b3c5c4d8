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

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numbers>
#include <span>
#include <vector>

#include "common/attributes.hpp"
#include "common/rng.hpp"

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
/// scalar form; a Rack steps its synthetic cores as InteractiveTraceBlocks,
/// which produce bit-identical utilizations.
class InteractiveTraceGenerator {
 public:
  /// @param config   trace shape
  /// @param rng      private random stream (use Rng::split per core)
  /// @param phase_s  phase offset of the slow swell, decorrelating servers
  ///                 (finite)
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

/// The slow swell A·sin(2π·x/P) at trace argument x = now + phase: the
/// one expression both the scalar generator and the blocks evaluate.
inline double swell_at(const InteractiveTraceConfig& config, double x) {
  return config.swell_amplitude *
         std::sin(2.0 * std::numbers::pi * x / config.swell_period_s);
}

/// Memo of one block's swells, keyed on the exact argument x.
///
/// The members of a block share the trace time and differ only in their
/// phase, so on a dt lattice with lattice phases they revisit the same
/// few arguments tick after tick (a canonical rack sees 1,104 distinct
/// ones in 900 ticks of 64 members). A slot holds one (x, swell) pair and
/// is chosen by x's position on the dt lattice, so any 256 consecutive
/// lattice points have distinct slots. A hit requires x's bit pattern to
/// equal the stored key — exactly the inputs the evaluation would see,
/// so a reused swell is the evaluated one bit for bit (+0.0 and -0.0 are
/// different keys; x is never NaN, as now and the phases are finite).
/// Without a table (a one-member block) every swell is evaluated.
class SwellMemo {
 public:
  static constexpr std::size_t kSlots = 256;

  /// Allocate the slot table (construction time; empty slots never hit).
  void allocate();
  /// Re-anchor the slot choice on a new dt.
  void set_lattice(double dt_s) noexcept { inv_dt_ = 1.0 / dt_s; }

  /// The swell at x: the stored value when x's slot holds x, else evaluated
  /// (and stored, when there is a table).
  SPRINTCON_HOT double swell(const InteractiveTraceConfig& config,
                             double x) noexcept {
    if (slots_.empty()) {
      ++evaluations_;
      return swell_at(config, x);
    }
    const auto key = std::bit_cast<std::uint64_t>(x);
    Slot& slot = slots_[slot_of(x)];
    if (slot.key == key) {
      ++reused_;
      return slot.value;
    }
    ++evaluations_;
    slot.key = key;
    slot.value = swell_at(config, x);
    return slot.value;
  }

  /// Swells computed / served from the table so far.
  std::uint64_t evaluations() const noexcept { return evaluations_; }
  std::uint64_t reused() const noexcept { return reused_; }

 private:
  struct Slot {
    std::uint64_t key;
    double value;
  };
  /// x's lattice position round(x / dt) modulo kSlots. Positions beyond
  /// ±2^62 (and a non-finite quotient) share slot 0, which keeps the
  /// integer conversion defined for any x.
  std::size_t slot_of(double x) const noexcept {
    const double q = x * inv_dt_;
    if (!(q > -0x1p62 && q < 0x1p62)) return 0;
    const auto k = static_cast<std::int64_t>(q + std::copysign(0.5, q));
    return static_cast<std::size_t>(static_cast<std::uint64_t>(k) &
                                    (kSlots - 1));
  }

  std::vector<Slot> slots_;
  double inv_dt_ = 1.0;
  std::uint64_t evaluations_ = 0;
  std::uint64_t reused_ = 0;
};

/// The synthetic generators of a rack's interactive cores that share a
/// config and a trace time, stepped as one block. The block computes the
/// per-block terms once per tick — the trace time, the envelope mean and
/// onset ramp, and the dt-keyed factors — takes each member's swell from
/// its SwellMemo, and runs one tight loop over the per-core states. Each
/// core keeps its own Rng and draws in the same order as
/// InteractiveTraceGenerator::step, and every expression is the scalar
/// one, so the utilizations are bit-identical to stepping each generator
/// on its own.
class InteractiveTraceBlock {
 public:
  /// A block holding `first`, driving rack core `core`; it takes
  /// `first`'s config and trace time.
  InteractiveTraceBlock(const InteractiveTraceGenerator& first,
                        std::uint32_t core);

  /// Append `generator`, driving rack core `core`, if it has this block's
  /// config and trace time (so its trace can be stepped with the block's
  /// shared terms); returns false and changes nothing otherwise. The
  /// second member allocates the swell table.
  bool try_add(const InteractiveTraceGenerator& generator, std::uint32_t core);
  void reserve(std::size_t n) { members_.reserve(n); }

  /// Hot path (SPRINTCON_HOT). See utilization_source.hpp for the
  /// block step contract.
  void step(double dt_s, std::span<const double> freq, std::span<double> util);

  const SwellMemo& memo() const noexcept { return memo_; }

 private:
  struct Member {
    TraceCoreState state;
    std::uint32_t core;
  };

  InteractiveTraceConfig config_;
  double now_s_;
  TraceStepFactors factors_;
  SwellMemo memo_;
  std::vector<Member> members_;
};

}  // namespace sprintcon::workload
