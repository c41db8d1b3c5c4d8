#include "fault/injector.hpp"

#include <algorithm>
#include <cmath>

#include "common/validation.hpp"

namespace sprintcon::fault {

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed,
                             server::Rack& rack, power::PowerPath& path)
    : plan_(std::move(plan)), rng_(seed), rack_(rack), path_(path) {
  plan_.validate();
  states_.resize(plan_.faults.size());
}

void FaultInjector::set_obs(obs::ObsSink* sink) { obs_ = sink; }

std::size_t FaultInjector::active_count() const noexcept {
  std::size_t n = 0;
  for (const SpecState& s : states_) n += s.active ? 1 : 0;
  return n;
}

std::vector<double> FaultInjector::snapshot_freqs() const {
  std::vector<double> out(rack_.num_cores());
  for (std::size_t c = 0; c < out.size(); ++c) out[c] = rack_.freq(c);
  return out;
}

void FaultInjector::activate(std::size_t i, const sim::SimClock& clock) {
  const FaultSpec& spec = plan_.faults[i];
  SpecState& state = states_[i];
  state.active = true;
  state.ticks_active = 0;
  ++activations_;
  switch (spec.kind) {
    case FaultKind::kMeterDropout:
      // Freeze at the last true reading (the one this tick would report).
      state.hold_w = meter_history_.empty() ? 0.0 : meter_history_.back();
      break;
    case FaultKind::kUpsFade:
      // One-shot physical degradation; deliberately NOT undone at window
      // end — capacity fade does not heal.
      path_.battery().fade_capacity(spec.magnitude);
      break;
    case FaultKind::kDischargeFail:
      path_.circuit().set_fault_gain(spec.magnitude);
      break;
    case FaultKind::kCbDrift:
      path_.breaker().set_trip_derate(spec.magnitude);
      break;
    case FaultKind::kUtilityOutage:
      path_.breaker().set_supply_available(false);
      break;
    case FaultKind::kDvfsStuck:
    case FaultKind::kDvfsLag:
      // Latch the frequencies in effect at fault onset.
      state.freqs = snapshot_freqs();
      break;
    default:
      break;
  }
  if (obs_ != nullptr) {
    obs_->events().emit(clock.now_s(), obs::EventType::kFaultInjected,
                        to_string(spec.kind),
                        {{"spec", static_cast<double>(i)},
                         {"magnitude", spec.magnitude},
                         {"period_s", spec.period_s},
                         {"start_s", spec.start_s},
                         {"duration_s", spec.duration_s}});
    obs_->metrics().counter("fault.activations").add();
  }
}

void FaultInjector::clear(std::size_t i, const sim::SimClock& clock) {
  const FaultSpec& spec = plan_.faults[i];
  SpecState& state = states_[i];
  state.active = false;
  state.freqs.clear();
  switch (spec.kind) {
    case FaultKind::kDischargeFail:
      path_.circuit().set_fault_gain(1.0);
      break;
    case FaultKind::kCbDrift:
      path_.breaker().set_trip_derate(1.0);
      break;
    case FaultKind::kUtilityOutage:
      path_.breaker().set_supply_available(true);
      break;
    default:
      break;  // sensing/control faults simply stop transforming
  }
  if (obs_ != nullptr) {
    obs_->events().emit(clock.now_s(), obs::EventType::kFaultCleared,
                        to_string(spec.kind),
                        {{"spec", static_cast<double>(i)}});
  }
}

void FaultInjector::step(const sim::SimClock& clock) {
  const double now = clock.now_s();
  dt_s_ = clock.dt_s();
  // The meter-history buffer records the truth every tick (delay faults
  // replay it); the rack has already stepped, so this is the reading the
  // controller is about to take.
  meter_history_.push_back(rack_.total_power_w());

  control_dropped_ = false;
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& spec = plan_.faults[i];
    SpecState& state = states_[i];
    const bool want = spec.active(now);
    if (want && !state.active) activate(i, clock);
    if (!want && state.active) clear(i, clock);
    if (!state.active) continue;

    // Pre-draw this tick's stochastic decisions in fixed (tick, spec)
    // order — the determinism contract of the subsystem.
    switch (spec.kind) {
      case FaultKind::kMeterNoise:
        state.noise_draw = rng_.normal(0.0, spec.magnitude);
        break;
      case FaultKind::kMeterSpike: {
        const auto period_ticks = static_cast<std::uint64_t>(
            std::max(1.0, std::round(spec.period_s / clock.dt_s())));
        state.spike_now = state.ticks_active % period_ticks == 0;
        break;
      }
      case FaultKind::kControlDrop:
        control_dropped_ = control_dropped_ || rng_.bernoulli(spec.magnitude);
        break;
      default:
        break;
    }
    ++state.ticks_active;
  }
}

double FaultInjector::meter_power_w(double raw_w) const {
  double v = raw_w;
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& spec = plan_.faults[i];
    const SpecState& state = states_[i];
    if (!state.active) continue;
    switch (spec.kind) {
      case FaultKind::kMeterDropout:
        v = state.hold_w;
        break;
      case FaultKind::kMeterDelay: {
        const auto delay_ticks = static_cast<std::size_t>(
            std::max(0.0, std::round(spec.magnitude / dt_s_)));
        const std::size_t newest = meter_history_.size() - 1;
        v = meter_history_[newest > delay_ticks ? newest - delay_ticks : 0];
        break;
      }
      case FaultKind::kMeterNoise:
        v *= 1.0 + state.noise_draw;
        break;
      case FaultKind::kMeterSpike:
        if (state.spike_now) v *= 1.0 + spec.magnitude;
        break;
      default:
        break;
    }
  }
  return std::max(0.0, v);
}

void FaultInjector::post_tick(const sim::SimClock& clock) {
  const double dt = clock.dt_s();
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& spec = plan_.faults[i];
    SpecState& state = states_[i];
    if (!state.active || state.freqs.empty()) continue;
    if (spec.kind == FaultKind::kDvfsStuck) {
      // Latched actuator: re-impose the onset frequencies, discarding
      // whatever the controller just wrote.
      for (std::size_t c = 0; c < state.freqs.size(); ++c) {
        rack_.set_freq(c, state.freqs[c]);
      }
    } else if (spec.kind == FaultKind::kDvfsLag) {
      // First-order actuator lag toward the controller's latest write:
      // core.freq() currently holds that write (or our previous applied
      // value on ticks without a write — the filter is then a no-op in
      // the limit, which is exactly a settling actuator).
      const double alpha = dt / (spec.magnitude + dt);
      for (std::size_t c = 0; c < state.freqs.size(); ++c) {
        const double desired = rack_.freq(c);
        const double applied =
            state.freqs[c] + alpha * (desired - state.freqs[c]);
        rack_.set_freq(c, applied);
        state.freqs[c] = applied;
      }
    }
  }
}

}  // namespace sprintcon::fault
