// Synchronous fixed-step simulation driver.
#pragma once

#include <vector>

#include "sim/clock.hpp"
#include "sim/component.hpp"
#include "sim/recorder.hpp"

namespace sprintcon::sim {

/// Drives registered components with a fixed-step clock and records probes.
///
/// Ownership: the Simulation observes components (raw non-owning pointers,
/// Core Guidelines F.7); the caller (typically scenario::Rig) owns them and
/// must outlive the simulation.
class Simulation {
 public:
  explicit Simulation(double dt_s);

  SimClock& clock() noexcept { return clock_; }
  const SimClock& clock() const noexcept { return clock_; }
  TraceRecorder& recorder() noexcept { return recorder_; }
  const TraceRecorder& recorder() const noexcept { return recorder_; }

  /// Register a component; stepped in registration order.
  void add(Component& component);

  /// One tick: step components in order, advance the clock, sample the
  /// recorder. Hot path (SPRINTCON_HOT): no direct heap allocation or
  /// dynamic_cast.
  void step_once();

  /// Run until clock.now_s() >= t_end_s.
  void run_until(double t_end_s);

 private:
  SimClock clock_;
  TraceRecorder recorder_;
  std::vector<Component*> components_;
};

}  // namespace sprintcon::sim
