// A running batch job instance pinned to one core.
//
// Tracks execution progress under time-varying DVFS and exposes the
// quantities the SprintCon allocator and MPC penalty weighting need:
// progress, remaining work, deadline slack, and the R weight of
// Section V-B.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "workload/batch_profile.hpp"
#include "workload/progress_model.hpp"

namespace sprintcon::workload {

/// Completion policy when a job finishes before the simulation ends.
enum class CompletionMode {
  /// Re-execute immediately (the paper's 15-minute continuous traces).
  kRepeat,
  /// Run once; the core idles afterwards (the deadline experiments).
  kRunOnce,
};

/// One batch job bound to one core.
class BatchJob {
 public:
  /// @param profile     static benchmark character
  /// @param deadline_s  absolute deadline (simulation time)
  /// @param work_s      total work in seconds-at-peak; <= 0 uses the
  ///                    profile's nominal work
  /// @param mode        what happens on completion
  /// @param rng         stream for per-phase variation
  BatchJob(const BatchProfile& profile, double deadline_s, double work_s,
           CompletionMode mode, Rng rng);

  const std::string& name() const noexcept { return profile_.name; }
  const BatchProfile& profile() const noexcept { return profile_; }
  const ProgressModel& model() const noexcept { return model_; }
  CompletionMode mode() const noexcept { return mode_; }

  /// Advance by dt (> 0) at the given normalized frequency (in (0, 1])
  /// and return the busy fraction of the interval (0 once a kRunOnce job
  /// is done). Throws InvalidArgumentError on bad arguments.
  double advance(double dt_s, double freq, double now_s);

  /// advance() for the rack's batch loop: the same job state change and
  /// result, without re-checking its arguments: the rack checks dt > 0
  /// once per tick, and `freq` is a core setting that Rack::set_freq
  /// clamped into the core's validated DVFS range (0, 1].
  double run(double dt_s, double freq, double now_s) noexcept {
    if (idle()) return 0.0;
    progress_by(dt_s, freq, now_s);
    return utilization();
  }

  // --- progress & deadline queries ---------------------------------------
  /// Fraction complete of the *current* execution, in [0, 1].
  double progress() const noexcept { return progress_; }
  bool completed() const noexcept { return completed_; }
  /// Number of full executions completed (kRepeat counts every pass).
  std::uint64_t completions() const noexcept { return completions_; }
  double deadline_s() const noexcept { return deadline_s_; }
  /// Simulation time when the first execution completed (negative until then).
  double completion_time_s() const noexcept { return completion_time_s_; }
  /// Remaining work of the current execution in seconds-at-peak.
  double remaining_work_s() const noexcept;
  /// Estimated wall seconds to finish at a constant frequency.
  double estimated_remaining_time_s(double freq) const;

  /// The MPC control-penalty weight of Section V-B:
  ///   R = (1 - progress) / (time-left / (elapsed + time-left)).
  /// A job that is behind schedule gets a larger weight, pulling its core
  /// toward peak frequency. Returns 0 for completed kRunOnce jobs (their
  /// cores have nothing to speed up), and a large finite weight when the
  /// deadline has already passed.
  /// Inline: the server power controller evaluates it for every batch core
  /// each control period.
  double penalty_weight(double now_s) const noexcept {
    if (idle()) return 0.0;
    if (completions_ > 0) {
      // The deadline was satisfied by the first pass; later passes of a
      // repeating trace are background throughput work with neutral
      // urgency.
      return 0.5;
    }
    const double remaining_progress = 1.0 - progress_;
    const double elapsed = std::max(now_s - start_time_s_, 0.0);
    const double left = deadline_s_ - now_s;
    if (left <= 0.0) {
      // Deadline already passed: maximum urgency, bounded to keep the QP
      // well conditioned.
      return 100.0;
    }
    const double window = elapsed + left;
    if (window <= 0.0) return 100.0;
    const double normalized_left = left / window;
    return std::min(remaining_progress / std::max(normalized_left, 1e-3),
                    100.0);
  }

  /// Core utilization while the job runs (0 when a kRunOnce job is done).
  double utilization() const noexcept { return idle() ? 0.0 : busy_; }

  /// True if, at the given frequency, the job is expected to miss its
  /// deadline (used by the allocator's P_batch escalation).
  bool deadline_at_risk(double now_s, double freq) const;

 private:
  // Phase modulation: new utilization perturbation every ~20 s of execution.
  static constexpr double kPhasePeriodS = 20.0;

  /// A finished kRunOnce job: its core idles.
  bool idle() const noexcept {
    return completed_ && mode_ == CompletionMode::kRunOnce;
  }
  /// The state change of run(). Requires !idle().
  void progress_by(double dt_s, double freq, double now_s) noexcept {
    // Slow phase modulation so the utilization trace is not perfectly flat.
    phase_timer_s_ += dt_s;
    if (phase_timer_s_ >= kPhasePeriodS) next_phase();
    if (freq != step_freq_ || dt_s != step_dt_s_) {
      step_rate_ = model_.rate_in_range(freq);
      step_progress_ = step_rate_ * dt_s / work_total_s_;
      step_freq_ = freq;
      step_dt_s_ = dt_s;
    }
    progress_ += step_progress_;
    if (progress_ >= 1.0) complete(step_rate_, dt_s, now_s);
  }
  /// Draw the next phase perturbation (once per kPhasePeriodS).
  void next_phase() noexcept;
  /// Book a finished execution that overshot 1.0 progress at `rate`.
  void complete(double rate, double dt_s, double now_s) noexcept;

  /// The running utilization for the current phase noise.
  double busy_fraction() const noexcept {
    return std::clamp(profile_.utilization * (1.0 + phase_noise_), 0.0, 1.0);
  }

  // Per-tick state first (the server's batch loop touches these), then the
  // deadline state the controller reads each period.
  ProgressModel model_;
  CompletionMode mode_;
  bool completed_ = false;
  double work_total_s_;
  double progress_ = 0.0;
  // Slow phase modulation of utilization.
  double phase_timer_s_ = 0.0;
  double phase_noise_ = 0.0;
  double busy_ = 0.0;  ///< busy_fraction(), refreshed with phase_noise_
  // Progress terms for the last (freq, dt) seen. A core's frequency
  // changes at most once per control period, so most ticks reuse them;
  // they come from the same expressions, so progress is bit-identical.
  double step_freq_ = -1.0;
  double step_dt_s_ = -1.0;
  double step_rate_ = 0.0;
  double step_progress_ = 0.0;  ///< step_rate_ * dt / work_total_s_
  double deadline_s_;
  std::uint64_t completions_ = 0;
  double start_time_s_ = 0.0;
  double completion_time_s_ = -1.0;
  Rng rng_;
  BatchProfile profile_;
};

}  // namespace sprintcon::workload
