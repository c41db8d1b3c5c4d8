#include "workload/batch_job.hpp"

#include <algorithm>
#include <cmath>

#include "common/validation.hpp"

namespace sprintcon::workload {

namespace {
constexpr double kPhaseSigma = 0.03;
}  // namespace

BatchJob::BatchJob(const BatchProfile& profile, double deadline_s,
                   double work_s, CompletionMode mode, Rng rng)
    : model_(profile.compute_fraction),
      mode_(mode),
      work_total_s_(work_s > 0.0 ? work_s : profile.nominal_work_s),
      deadline_s_(deadline_s),
      rng_(rng),
      profile_(profile) {
  SPRINTCON_EXPECTS(deadline_s > 0.0, "deadline must be positive");
  SPRINTCON_EXPECTS(work_total_s_ > 0.0, "work must be positive");
  // utilization() clamps the phase-modulated value into [0, 1]; a valid
  // profile keeps it a number (the power model relies on that).
  SPRINTCON_EXPECTS(profile.utilization >= 0.0 && profile.utilization <= 1.0,
                    "profile utilization must be in [0, 1]");
  busy_ = busy_fraction();
}

double BatchJob::advance(double dt_s, double freq, double now_s) {
  SPRINTCON_EXPECTS(dt_s > 0.0, "dt must be positive");
  SPRINTCON_EXPECTS(freq > 0.0 && freq <= 1.0 + 1e-9,
                    "normalized frequency must be in (0, 1]");
  return run(dt_s, freq, now_s);
}

void BatchJob::next_phase() noexcept {
  phase_timer_s_ = 0.0;
  phase_noise_ = std::clamp(rng_.normal(0.0, kPhaseSigma), -0.08, 0.08);
  busy_ = busy_fraction();
}

void BatchJob::complete(double rate, double dt_s, double now_s) noexcept {
  ++completions_;
  if (completion_time_s_ < 0.0) {
    // Linear back-interpolation of the actual completion instant.
    const double overshoot = (progress_ - 1.0) * work_total_s_ / rate;
    completion_time_s_ = now_s + dt_s - overshoot;
  }
  if (mode_ == CompletionMode::kRepeat) {
    progress_ -= 1.0;
    start_time_s_ = now_s + dt_s;
  } else {
    progress_ = 1.0;
    completed_ = true;
  }
}

double BatchJob::remaining_work_s() const noexcept {
  return std::max(0.0, (1.0 - progress_) * work_total_s_);
}

double BatchJob::estimated_remaining_time_s(double freq) const {
  return model_.time_for(remaining_work_s(), freq);
}

bool BatchJob::deadline_at_risk(double now_s, double freq) const {
  if (idle()) return false;
  const double left = deadline_s_ - now_s;
  return estimated_remaining_time_s(freq) > left;
}

}  // namespace sprintcon::workload
