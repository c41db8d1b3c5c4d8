// A rack of servers — the unit SprintCon controls, and the unit of physics.
//
// The rack owns the state of every core of every server in one core table:
// frequency, DVFS floor and ceiling, utilization, dynamic power and
// junction temperature, each a contiguous array indexed by *rack core id*
// (server-major, core order: core c of server s is s * cores_per_server +
// c). The role partition is two rack-wide index spans in the same order,
// batch jobs sit by value in batch order, and each server is just its
// slice of the table plus its fan and its power. Frequency writes model
// the DVFS actuator ("writing system files" in the paper's controller
// loop, step 3).
//
// One tick (Rack::step) is one call per utilization-source block, one
// interactive power loop, one batch loop, one thermal kernel and one fan
// per server — no per-server or per-core dispatch.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "server/fan.hpp"
#include "server/platform.hpp"
#include "server/power_model.hpp"
#include "server/server.hpp"
#include "server/thermal.hpp"
#include "sim/clock.hpp"
#include "sim/component.hpp"
#include "workload/utilization_source.hpp"

namespace sprintcon::server {

/// Reference to one batch core within the rack (server index, core index).
struct BatchCoreRef {
  std::size_t server = 0;
  std::size_t core = 0;
};

/// Per-tick telemetry the recorder samples, produced by one pass over the
/// rack's cores: a powered-off rack reports frequency 0 and saturated
/// request latency.
struct RackTelemetry {
  double freq_interactive = 0.0;  ///< rack-mean normalized frequency
  double freq_batch = 0.0;
  double core_temp_max_c = 0.0;   ///< hottest core junction temperature
  double p95_latency_ms = 0.0;    ///< rack-mean M/M/1 p95 response time
};

class Rack;

/// Read-only view of one core of a rack.
class CoreView {
 public:
  CoreView(const Rack& rack, std::size_t core) noexcept
      : rack_(&rack), core_(core) {}

  double freq() const noexcept;
  double freq_min() const noexcept;
  double freq_max() const noexcept;
  double utilization() const noexcept;
  double temperature_c() const noexcept;
  bool is_batch() const noexcept;
  /// The core's batch job; nullptr on interactive cores.
  const workload::BatchJob* job() const noexcept;

 private:
  const Rack* rack_;
  std::size_t core_;
};

/// The rack owns its servers' cores, jobs, sources and fans and advances
/// them each tick. Controllers read and write the core table through the
/// rack-wide role spans. The table's addresses are fixed for the rack's
/// lifetime (the rack neither copies nor moves).
class Rack : public sim::Component {
 public:
  /// @param platform  calibration shared by every server (validated)
  /// @param servers   the servers in rack order (at least one); each has
  ///                  platform.cores_per_server cores, each DVFS range
  ///                  satisfying 0 < min <= max <= 1
  Rack(const PlatformSpec& platform, std::vector<ServerSpec> servers);
  Rack(const Rack&) = delete;
  Rack& operator=(const Rack&) = delete;

  void step(const sim::SimClock& clock) override;
  /// Advance every core and fan by dt (> 0) at time now_s. No-op when
  /// powered off. Hot path (SPRINTCON_HOT).
  void step(double dt_s, double now_s);

  const PlatformSpec& platform() const noexcept { return platform_; }
  std::size_t num_servers() const noexcept { return num_servers_; }
  std::size_t num_cores() const noexcept { return num_cores_; }
  /// Rack core id of core `core` of server `server`.
  std::size_t core_id(std::size_t server, std::size_t core) const noexcept {
    return server * platform_.cores_per_server + core;
  }

  // --- role spans (rack core ids, server-major, core order) ---------------
  std::span<const std::uint32_t> interactive_ids() const noexcept {
    return {interactive_ids_, num_interactive_};
  }
  std::span<const std::uint32_t> batch_ids() const noexcept {
    return {batch_ids_, jobs_.size()};
  }
  /// One server's slice of interactive_ids() / batch_ids().
  std::span<const std::uint32_t> interactive_ids(
      std::size_t server) const noexcept {
    return {interactive_ids_ + interactive_begin_[server],
            interactive_begin_[server + 1] - interactive_begin_[server]};
  }
  std::span<const std::uint32_t> batch_ids(std::size_t server) const noexcept {
    return {batch_ids_ + batch_begin_[server],
            batch_begin_[server + 1] - batch_begin_[server]};
  }
  bool is_batch(std::size_t core) const noexcept {
    return job_of_core_[core] != kNoJob;
  }

  // --- core table (indexed by rack core id) -------------------------------
  double freq(std::size_t core) const noexcept { return freq_[core]; }
  double freq_min(std::size_t core) const noexcept { return freq_min_[core]; }
  double freq_max(std::size_t core) const noexcept { return freq_max_[core]; }
  /// DVFS actuator: clamps into the core's range. A NaN write throws — it
  /// is the one check that keeps every frequency the per-tick kernels read
  /// inside (0, 1].
  void set_freq(std::size_t core, double freq) {
    if (std::isnan(freq)) reject_nan_freq();
    freq_[core] = std::clamp(freq, freq_min_[core], freq_max_[core]);
  }
  /// Utilization over the last completed interval.
  double utilization(std::size_t core) const noexcept { return util_[core]; }
  /// Ground-truth dynamic power over the last interval.
  double dynamic_w(std::size_t core) const noexcept { return dyn_w_[core]; }
  /// Junction temperature; ThermalSpec{}.ambient_c until attach_thermal.
  double temperature_c(std::size_t core) const noexcept {
    return temp_c_[core];
  }
  /// True when the core runs hot enough that the controller must back off
  /// (never without a thermal model).
  bool thermally_throttled(std::size_t core) const noexcept {
    return thermal_ && temp_c_[core] >= thermal_spec_.throttle_temp_c;
  }
  /// Mean frequency of the batch cores, summed in batch_ids() order (0
  /// without batch cores).
  double mean_batch_freq() const noexcept;

  /// Batch jobs in batch_ids() order.
  std::span<const workload::BatchJob> jobs() const noexcept { return jobs_; }
  /// The job of a batch core; nullptr on interactive cores.
  const workload::BatchJob* job(std::size_t core) const noexcept {
    const std::uint32_t k = job_of_core_[core];
    return k == kNoJob ? nullptr : &jobs_[k];
  }
  /// The request-queue sources of the interactive cores, in
  /// interactive_ids() order (empty when none is queue-driven). They stay
  /// at their address for the rack's lifetime.
  std::span<workload::RequestQueueSource> request_queues() noexcept {
    return queues_.sources();
  }

  /// Attach one thermal model to every core: per-core junction
  /// temperatures, which step() advances as a single elementwise kernel
  /// (one cached exp per dt).
  void attach_thermal(const ThermalSpec& spec);

  /// Ground-truth power of one server over the last interval (0 when off)
  /// and the fan's share of it.
  double server_power_w(std::size_t server) const noexcept {
    return power_w_[server];
  }
  double fan_power_w(std::size_t server) const noexcept {
    return fan_power_w_[server];
  }
  /// Ground-truth total rack power over the last interval (the physical
  /// power monitor of the paper reads this).
  double total_power_w() const noexcept;

  bool powered() const noexcept { return powered_; }
  /// Power the rack on/off (UPS exhaustion outage). Powering off zeroes
  /// consumption and halts all progress; powering on resumes with the
  /// previous DVFS settings.
  void set_all_powered(bool on) noexcept { powered_ = on; }

  /// All batch cores in batch_ids() order, as (server, core) pairs.
  const std::vector<BatchCoreRef>& batch_cores() const noexcept {
    return batch_refs_;
  }
  /// View of one core; throws on an out-of-range reference.
  CoreView core(const BatchCoreRef& ref) const;

  /// Telemetry scan: the rack-mean normalized frequency of each class
  /// (a powered-off rack counts 0), the hottest core temperature, and the
  /// rack-mean p95 request latency in a single pass.
  RackTelemetry telemetry() const;

  /// Slow-swell evaluations and memo reuses of the synthetic trace blocks
  /// so far (workload.swell_* in a rig's report).
  std::uint64_t swell_evaluations() const noexcept;
  std::uint64_t swell_reused() const noexcept;

 private:
  static constexpr std::uint32_t kNoJob = ~std::uint32_t{0};

  /// Throws InvalidArgumentError for a NaN frequency write.
  [[noreturn]] static void reject_nan_freq();

  PlatformSpec platform_;
  MeasurementPowerModel measurement_;
  std::size_t num_servers_;
  std::size_t num_cores_;
  std::size_t num_interactive_ = 0;

  /// The core table and the per-server sums, one allocation:
  /// [freq | freq_min | freq_max | util | dyn_w | temp_c] (num_cores_ each)
  /// then [dyn_w | power_w | fan_power_w] (num_servers_ each).
  std::vector<double> table_;
  double* freq_;
  double* freq_min_;
  double* freq_max_;
  double* util_;
  double* dyn_w_;
  double* temp_c_;
  double* server_dyn_w_;
  double* power_w_;
  double* fan_power_w_;
  /// [interactive ids | batch ids | batch rank per core (kNoJob on
  /// interactive cores) | interactive begin per server + end | batch begin
  /// per server + end].
  std::vector<std::uint32_t> index_;
  const std::uint32_t* interactive_ids_;
  const std::uint32_t* batch_ids_;
  const std::uint32_t* job_of_core_;
  const std::uint32_t* interactive_begin_;
  const std::uint32_t* batch_begin_;

  std::vector<workload::BatchJob> jobs_;  ///< in batch_ids() order
  std::vector<BatchCoreRef> batch_refs_;  ///< in batch_ids() order
  std::vector<workload::InteractiveTraceBlock> trace_blocks_;
  workload::SourceBlock<workload::RequestQueueSource> queues_;
  workload::SourceBlock<workload::ReplayUtilization> replays_;
  std::vector<FanModel> fans_;  ///< one per server

  ThermalSpec thermal_spec_{};
  bool thermal_ = false;
  double thermal_cached_dt_s_ = -1.0;
  double thermal_alpha_ = 0.0;
  bool powered_ = true;
};

inline double CoreView::freq() const noexcept { return rack_->freq(core_); }
inline double CoreView::freq_min() const noexcept {
  return rack_->freq_min(core_);
}
inline double CoreView::freq_max() const noexcept {
  return rack_->freq_max(core_);
}
inline double CoreView::utilization() const noexcept {
  return rack_->utilization(core_);
}
inline double CoreView::temperature_c() const noexcept {
  return rack_->temperature_c(core_);
}
inline bool CoreView::is_batch() const noexcept {
  return rack_->is_batch(core_);
}
inline const workload::BatchJob* CoreView::job() const noexcept {
  return rack_->job(core_);
}

}  // namespace sprintcon::server
