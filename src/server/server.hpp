// One simulated server: per-core DVFS state, workloads, fan and the
// ground-truth power measurement.
//
// A core is dedicated to either interactive or batch work for the duration
// of a sprint (the paper's colocation scheme: both classes share a server
// but not a core). Frequency writes model the DVFS actuator ("writing
// system files" in the paper's controller loop, step 3).
//
// Core state is kept as structure-of-arrays owned by the server: frequency,
// DVFS bounds, utilization, dynamic power and junction temperature each
// live in one contiguous array indexed by core, and the role partition is
// two index lists in core order. Interactive cores are driven by
// utilization-source blocks (workload/utilization_source.hpp), batch cores
// by a contiguous array of jobs, so one tick is a loop per block, one batch
// loop and the thermal kernel — no per-core virtual call or role branch.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <variant>
#include <vector>

#include "server/fan.hpp"
#include "server/power_model.hpp"
#include "server/thermal.hpp"
#include "workload/batch_job.hpp"
#include "workload/interactive.hpp"
#include "workload/request_queue.hpp"
#include "workload/trace_io.hpp"
#include "workload/utilization_source.hpp"

namespace sprintcon::server {

/// One core as handed to a Server: its DVFS range and the workload it is
/// dedicated to. An interactive core (any utilization source) starts at
/// peak frequency, a batch core (one job) at the DVFS floor until
/// controlled.
struct CoreSpec {
  using Workload =
      std::variant<workload::InteractiveTraceGenerator,
                   workload::RequestQueueSource, workload::ReplayUtilization,
                   workload::BatchJob>;

  /// `work` is any Workload alternative; it is moved into place once, so
  /// `cores.emplace_back(min, max, BatchJob(...))` builds the core in the
  /// vector without further copies.
  template <class W>
  CoreSpec(double min, double max, W&& work)
      : freq_min(min), freq_max(max), workload(std::forward<W>(work)) {}

  double freq_min;
  double freq_max;
  Workload workload;
};

class Server;

/// Read-only view of one core of a server.
class CoreView {
 public:
  CoreView(const Server& server, std::size_t core) noexcept
      : server_(&server), core_(core) {}

  double freq() const noexcept;
  double freq_min() const noexcept;
  double freq_max() const noexcept;
  double utilization() const noexcept;
  double temperature_c() const noexcept;
  bool is_batch() const noexcept;
  /// The core's batch job; nullptr on interactive cores.
  const workload::BatchJob* job() const noexcept;

 private:
  const Server* server_;
  std::size_t core_;
};

/// A server aggregates its cores' power through the measurement model and
/// adds idle and fan power. It can be powered off (the outage that ends
/// the uncontrolled-sprinting experiment, Fig. 5).
class Server {
 public:
  /// @param spec   platform calibration (validated)
  /// @param cores  the server's cores in core order (size must equal
  ///               spec.cores_per_server; each DVFS range must satisfy
  ///               0 < min <= max <= 1)
  /// @param rng    stream for the fan's ambient drift
  Server(const PlatformSpec& spec, std::vector<CoreSpec> cores, Rng rng);

  const PlatformSpec& spec() const noexcept { return spec_; }

  std::size_t num_cores() const noexcept { return num_cores_; }
  /// Interactive and batch core indices, each in core order.
  std::span<const std::uint32_t> interactive_cores() const noexcept {
    return {indices_.data(), num_interactive_};
  }
  std::span<const std::uint32_t> batch_cores() const noexcept {
    return {indices_.data() + num_interactive_, jobs_.size()};
  }
  bool is_batch(std::size_t core) const noexcept {
    return job_of_core()[core] != kNoJob;
  }

  // --- per-core state (core-indexed) --------------------------------------
  double freq(std::size_t core) const noexcept { return array(kFreq)[core]; }
  double freq_min(std::size_t core) const noexcept {
    return array(kFreqMin)[core];
  }
  double freq_max(std::size_t core) const noexcept {
    return array(kFreqMax)[core];
  }
  /// DVFS actuator: clamps into the core's range. A NaN write throws — it
  /// is the one check that keeps every frequency the per-tick kernels read
  /// inside (0, 1].
  void set_freq(std::size_t core, double freq) {
    if (std::isnan(freq)) reject_nan_freq();
    array(kFreq)[core] =
        std::clamp(freq, array(kFreqMin)[core], array(kFreqMax)[core]);
  }
  /// Utilization over the last completed interval.
  double utilization(std::size_t core) const noexcept {
    return array(kUtil)[core];
  }
  /// Ground-truth dynamic power over the last interval.
  double dynamic_w(std::size_t core) const noexcept {
    return array(kDynW)[core];
  }
  /// Junction temperature; ambient-equivalent when no thermal model is
  /// attached.
  double temperature_c(std::size_t core) const noexcept {
    return thermal_ ? array(kTemp)[core] : ThermalSpec{}.ambient_c;
  }
  /// True when the core runs hot enough that the controller must back off.
  bool thermally_throttled(std::size_t core) const noexcept {
    return thermal_ && array(kTemp)[core] >= thermal_spec_.throttle_temp_c;
  }

  /// Batch jobs in batch_cores() order.
  std::span<const workload::BatchJob> jobs() const noexcept { return jobs_; }
  /// The job of a batch core; nullptr on interactive cores.
  const workload::BatchJob* job(std::size_t core) const noexcept {
    const std::uint32_t k = job_of_core()[core];
    return k == kNoJob ? nullptr : &jobs_[k];
  }
  /// The request-queue sources of this server's interactive cores, in core
  /// order (empty when none is queue-driven). They stay at their address
  /// for the server's lifetime.
  std::span<workload::RequestQueueSource> request_queues() noexcept;

  /// Attach one shared thermal model to every core: per-core junction
  /// temperatures, which step() advances as a single elementwise kernel
  /// (one cached exp per dt).
  void attach_thermal(const ThermalSpec& spec);

  /// Advance all cores and the fan by dt (> 0). No-op when powered off.
  /// Hot path (SPRINTCON_HOT): one call per source block, the interactive
  /// power loop, one batch loop and the thermal kernel.
  void step(double dt_s, double now_s);

  /// Ground-truth total power over the last interval (0 when off).
  double power_w() const noexcept { return power_w_; }
  double fan_power_w() const noexcept { return fan_power_w_; }

  bool powered() const noexcept { return powered_; }
  /// Power the server on/off. Powering off zeroes consumption and halts
  /// all progress; powering on resumes with the previous DVFS settings.
  void set_powered(bool on) noexcept { powered_ = on; }

 private:
  static constexpr std::uint32_t kNoJob = ~std::uint32_t{0};

  /// Throws InvalidArgumentError for a NaN frequency write.
  [[noreturn]] static void reject_nan_freq();

  PlatformSpec spec_;
  MeasurementPowerModel measurement_;
  FanModel fan_;
  /// The per-core arrays, each num_cores_ long and in core order, packed
  /// back to back in core_state_ (one allocation, one cache-resident
  /// block per server).
  enum CoreArray : std::size_t {
    kFreq, kFreqMin, kFreqMax, kUtil, kDynW, kTemp, kNumArrays
  };
  double* array(CoreArray a) noexcept {
    return core_state_.data() + a * num_cores_;
  }
  const double* array(CoreArray a) const noexcept {
    return core_state_.data() + a * num_cores_;
  }
  /// Batch rank of each core (its index in jobs_), or kNoJob.
  const std::uint32_t* job_of_core() const noexcept {
    return indices_.data() + num_cores_;
  }

  std::size_t num_cores_;
  std::size_t num_interactive_ = 0;
  std::vector<double> core_state_;
  /// [interactive cores | batch cores | batch rank per core]: the role
  /// partition (num_cores_ entries) followed by the core -> job map.
  std::vector<std::uint32_t> indices_;
  std::vector<workload::BatchJob> jobs_;  ///< in batch_cores() order
  /// The interactive cores' source blocks; each knows the cores it drives.
  std::vector<std::unique_ptr<workload::UtilizationSource>> blocks_;
  workload::SourceBlock<workload::RequestQueueSource>* queues_ = nullptr;
  ThermalSpec thermal_spec_{};
  bool thermal_ = false;
  double thermal_cached_dt_s_ = -1.0;
  double thermal_alpha_ = 0.0;
  bool powered_ = true;
  double power_w_ = 0.0;
  double fan_power_w_ = 0.0;
};

inline double CoreView::freq() const noexcept { return server_->freq(core_); }
inline double CoreView::freq_min() const noexcept {
  return server_->freq_min(core_);
}
inline double CoreView::freq_max() const noexcept {
  return server_->freq_max(core_);
}
inline double CoreView::utilization() const noexcept {
  return server_->utilization(core_);
}
inline double CoreView::temperature_c() const noexcept {
  return server_->temperature_c(core_);
}
inline bool CoreView::is_batch() const noexcept {
  return server_->is_batch(core_);
}
inline const workload::BatchJob* CoreView::job() const noexcept {
  return server_->job(core_);
}

}  // namespace sprintcon::server
