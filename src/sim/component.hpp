// Component interface for the synchronous simulation loop.
#pragma once

namespace sprintcon::sim {

class SimClock;

/// A simulated entity advanced once per tick.
///
/// Components are stepped in registration order, which the scenario layer
/// arranges as: workloads -> servers -> controllers -> power infrastructure,
/// so each tick sees a consistent dataflow (demand before supply).
class Component {
 public:
  virtual ~Component() = default;

  /// Advance internal state from clock.now_s() to now_s() + dt.
  virtual void step(const SimClock& clock) = 0;
};

}  // namespace sprintcon::sim
