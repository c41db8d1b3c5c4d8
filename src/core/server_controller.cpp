#include "core/server_controller.hpp"

#include <algorithm>

#include "common/validation.hpp"

namespace sprintcon::core {

ServerPowerController::ServerPowerController(const SprintConfig& config,
                                             server::Rack& rack,
                                             server::LinearPowerModel model)
    : config_(config),
      rack_(rack),
      num_batch_(rack.batch_cores().size()),
      model_(model),
      mpc_(config.mpc),
      gain_estimator_(model.gain_w_per_f()) {
  config.validate();
  SPRINTCON_EXPECTS(num_batch_ > 0,
                    "server power controller needs batch cores to actuate");
}

double ServerPowerController::effective_gain_w_per_f() const {
  return config_.adaptive_gain ? gain_estimator_.gain()
                               : model_.gain_w_per_f();
}

double ServerPowerController::estimate_interactive_power_w() const {
  // Eq. 5 with a frequency correction: during a sprint the interactive
  // cores run at peak and the correction is exactly 1, but in the
  // degraded (bidding) modes they may be throttled — estimating them at
  // peak power would under-attribute the batch class and make the MPC
  // push batch frequencies up against the cap.
  double p = 0.0;
  const bool powered = rack_.powered();
  for (const std::uint32_t c : rack_.interactive_ids()) {
    const double u = powered ? rack_.utilization(c) : 0.0;
    p += model_.constant_w() +
         model_.interactive_gain_w_per_util() * u * rack_.freq(c);
  }
  return p;
}

void ServerPowerController::update(double p_total_w, double p_batch_target_w,
                                   double now_s) {
  SPRINTCON_EXPECTS(p_total_w >= 0.0, "measured power must be >= 0");
  SPRINTCON_EXPECTS(p_batch_target_w >= 0.0, "P_batch must be >= 0");

  const std::size_t n = num_batch_;

  // Eq. 6: the batch power cannot be metered directly on colocated
  // servers, so subtract the modeled interactive power from the rack meter.
  const double p_fb = std::max(0.0, p_total_w - estimate_interactive_power_w());

  // Reuse the controller-owned problem buffers; resize is a no-op at
  // steady state so a warm-started update allocates nothing.
  control::MpcProblem& problem = problem_;
  problem.gains_w_per_f.resize(n);
  problem.freq_current.resize(n);
  problem.freq_min.resize(n);
  problem.freq_max.resize(n);
  problem.penalty_weights.resize(n);

  // One pass over the batch cores reads everything the period needs. The
  // frequency sum feeds the adaptive-gain observation below, which may
  // change the gain, so the gains are filled in afterwards.
  double freq_sum = 0.0;
  const std::span<const std::uint32_t> cores = rack_.batch_ids();
  const std::span<const workload::BatchJob> jobs = rack_.jobs();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t c = cores[i];
    const workload::BatchJob& job = jobs[i];
    const double f = rack_.freq(c);
    freq_sum += f;
    problem.freq_current[i] = f;
    problem.freq_min[i] = rack_.freq_min(c);
    // A finished run-once job idles its core at the DVFS floor.
    double f_max = job.completed() ? rack_.freq_min(c) : rack_.freq_max(c);
    // Thermal guard: a core above its throttle point gets its ceiling
    // pulled below the current frequency so it must cool off.
    if (config_.thermal_guard && rack_.thermally_throttled(c)) {
      f_max = std::max(rack_.freq_min(c),
                       std::min(f_max, f - config_.thermal_backoff_per_period));
    }
    problem.freq_max[i] = f_max;
    problem.penalty_weights[i] = std::max(job.penalty_weight(now_s), 1e-3);
  }

  // Adaptive gain: learn dP/df from (applied frequency move, observed
  // power change) pairs across control periods.
  if (config_.adaptive_gain && prev_freq_sum_ >= 0.0) {
    gain_estimator_.observe(freq_sum - prev_freq_sum_, p_fb - prev_p_fb_w_);
  }
  prev_freq_sum_ = freq_sum;
  prev_p_fb_w_ = p_fb;
  last_p_fb_w_ = p_fb;

  const double k = effective_gain_w_per_f();
  for (std::size_t i = 0; i < n; ++i) {
    problem.gains_w_per_f[i] = k;
    problem.penalty_weights[i] =
        problem.penalty_weights[i] * penalty_scale_ * k * k;
  }

  if (pid_fallback_) {
    update_pid(p_fb, p_batch_target_w);
    return;
  }

  problem.power_feedback_w = last_p_fb_w_;
  problem.power_target_w = p_batch_target_w;

  mpc_.step(problem, last_out_);

  // Step 3 of the loop: write the new frequencies to the DVFS actuators.
  {
    const obs::ScopedSpan span(obs_ != nullptr ? obs_->trace() : nullptr,
                               "dvfs_actuate", "decision", "cores",
                               static_cast<double>(n));
    actuate_batch(last_out_.freq_next);
  }
  record_commanded_freq();
}

void ServerPowerController::set_pid_fallback(bool on) {
  if (on == pid_fallback_) return;
  pid_fallback_ = on;
  if (on) {
    // One loop drives the *mean* batch frequency: u in [0, 1] spans
    // [freq_min, freq_max] uniformly across cores, so the plant gain is
    // dP/du ~= n * K * (fmax - fmin). Gains are normalized by it so the
    // closed loop converges in a handful of control periods regardless
    // of rack size or model gain.
    const server::CoreView first = first_batch_core();
    const double span = std::max(1e-9, first.freq_max() - first.freq_min());
    const double dp_du = std::max(
        1e-9,
        static_cast<double>(num_batch_) * effective_gain_w_per_f() * span);
    control::PidConfig pc;
    pc.kp = 0.4 / dp_du;
    pc.ki = 0.25 / dp_du;
    pc.output_min = 0.0;
    pc.output_max = 1.0;
    pid_ = control::PiController(pc);
    pid_primed_ = false;
  } else {
    // Back on the MPC: drop its warm start (the fallback moved the plant
    // out from under it) and forget the adaptive-gain observation pair.
    mpc_.reset();
    prev_freq_sum_ = -1.0;
  }
}

void ServerPowerController::update_pid(double p_fb_w,
                                       double p_batch_target_w) {
  const std::size_t n = num_batch_;
  const server::CoreView first = first_batch_core();
  const double fmin = first.freq_min();
  const double span = std::max(1e-9, first.freq_max() - fmin);

  if (!pid_primed_) {
    const double mean = rack_.mean_batch_freq();
    pid_.preload_output(std::clamp((mean - fmin) / span, 0.0, 1.0));
    pid_primed_ = true;
  }

  const double u =
      pid_.step(p_batch_target_w, p_fb_w, config_.control_period_s);
  const double freq = fmin + u * span;
  // Honor the same per-core ceilings the MPC would (completed jobs idle
  // at the floor, thermal guard pulls throttled cores down) — they were
  // just folded into problem_.freq_max by update().
  if (last_out_.freq_next.size() != n) last_out_.freq_next.assign(n, fmin);
  for (std::size_t i = 0; i < n; ++i) {
    last_out_.freq_next[i] =
        std::clamp(freq, problem_.freq_min[i], problem_.freq_max[i]);
  }
  actuate_batch(last_out_.freq_next);
  if (pid_updates_ != nullptr) pid_updates_->add(1);
  record_commanded_freq();
}

void ServerPowerController::reissue_last_command() {
  if (last_out_.freq_next.size() != num_batch_) return;
  actuate_batch(last_out_.freq_next);
  record_commanded_freq();
}

void ServerPowerController::actuate_batch(const std::vector<double>& freq_next) {
  const std::span<const std::uint32_t> cores = rack_.batch_ids();
  for (std::size_t i = 0; i < cores.size(); ++i) {
    rack_.set_freq(cores[i], freq_next[i]);
  }
}

void ServerPowerController::pin_interactive_at_peak() {
  for (const std::uint32_t c : rack_.interactive_ids()) {
    rack_.set_freq(c, rack_.freq_max(c));
  }
}

void ServerPowerController::force_batch_frequency(double freq) {
  for (const std::uint32_t c : rack_.batch_ids()) rack_.set_freq(c, freq);
  mpc_.reset();
  record_commanded_freq();
}

void ServerPowerController::record_commanded_freq() {
  if (cmd_batch_freq_ == nullptr) return;
  // The DVFS writes above are the last word this controller has; anything
  // that later diverges from this gauge (a stuck actuator overwriting the
  // command, for instance) is an actuation fault the HealthMonitor can
  // catch by comparing against the realized batch frequencies.
  cmd_batch_freq_->set(rack_.mean_batch_freq());
}

std::vector<BatchJobStatus> ServerPowerController::job_statuses(
    double now_s) const {
  std::vector<BatchJobStatus> out;
  out.reserve(num_batch_);
  const std::span<const std::uint32_t> cores = rack_.batch_ids();
  const std::span<const workload::BatchJob> jobs = rack_.jobs();
  for (std::size_t i = 0; i < cores.size(); ++i) {
    const workload::BatchJob& job = jobs[i];
    BatchJobStatus status;
    status.remaining_work_s = job.remaining_work_s();
    status.time_left_s = std::max(0.0, job.deadline_s() - now_s);
    status.compute_fraction = job.model().compute_fraction();
    status.gain_w_per_f = effective_gain_w_per_f();
    status.constant_w = model_.constant_w();
    status.freq_min = rack_.freq_min(cores[i]);
    status.freq_max = rack_.freq_max(cores[i]);
    // Deadline pressure applies while the first execution is incomplete;
    // later passes of a repeating trace are throughput work (the paper's
    // 15-minute continuous traces) and never raise the P_batch floor.
    status.active = !job.completed() && job.completions() == 0;
    out.push_back(status);
  }
  return out;
}

}  // namespace sprintcon::core
