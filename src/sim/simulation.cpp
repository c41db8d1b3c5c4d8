#include "sim/simulation.hpp"

#include "common/attributes.hpp"
#include "common/validation.hpp"

namespace sprintcon::sim {

Simulation::Simulation(double dt_s) : clock_(dt_s), recorder_(dt_s) {}

void Simulation::add(Component& component) {
  components_.push_back(&component);
}

SPRINTCON_HOT void Simulation::step_once() {
  for (Component* c : components_) c->step(clock_);
  clock_.advance();
  recorder_.sample();
}

void Simulation::run_until(double t_end_s) {
  SPRINTCON_EXPECTS(t_end_s >= clock_.now_s(), "cannot run backwards");
  while (clock_.now_s() < t_end_s) step_once();
}

}  // namespace sprintcon::sim
