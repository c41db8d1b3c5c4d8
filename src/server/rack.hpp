// A rack of servers — the unit SprintCon controls.
#pragma once

#include <vector>

#include "server/server.hpp"
#include "sim/component.hpp"
#include "sim/clock.hpp"

namespace sprintcon::server {

/// Reference to one batch core within the rack (server index, core index).
struct BatchCoreRef {
  std::size_t server = 0;
  std::size_t core = 0;
};

/// Per-tick telemetry the recorder samples, produced by one pass over the
/// rack's cores: powered-off servers report frequency 0 and saturated
/// request latency.
struct RackTelemetry {
  double freq_interactive = 0.0;  ///< rack-mean normalized frequency
  double freq_batch = 0.0;
  double core_temp_max_c = 0.0;   ///< hottest core junction temperature
  double p95_latency_ms = 0.0;    ///< rack-mean M/M/1 p95 response time
};

/// The rack owns its servers and advances them each tick. Controllers read
/// and write core state through each server's arrays and role index spans,
/// in rack order (server-major, core order).
class Rack : public sim::Component {
 public:
  explicit Rack(std::vector<Server> servers);

  void step(const sim::SimClock& clock) override;

  std::vector<Server>& servers() noexcept { return servers_; }
  const std::vector<Server>& servers() const noexcept { return servers_; }

  /// Ground-truth total rack power over the last interval (the physical
  /// power monitor of the paper reads this).
  double total_power_w() const;

  /// All batch cores in a stable order (server-major, core order — the
  /// order of each server's batch_cores()).
  const std::vector<BatchCoreRef>& batch_cores() const noexcept {
    return batch_refs_;
  }
  /// View of one core; throws on an out-of-range reference.
  CoreView core(const BatchCoreRef& ref) const;

  /// Telemetry scan: the rack-mean normalized frequency of each class
  /// (powered-off servers count 0), the hottest core temperature, and the
  /// rack-mean p95 request latency in a single pass.
  RackTelemetry telemetry() const;

  /// Power every server on/off (UPS exhaustion outage).
  void set_all_powered(bool on);

 private:
  std::vector<Server> servers_;
  std::vector<BatchCoreRef> batch_refs_;
};

}  // namespace sprintcon::server
