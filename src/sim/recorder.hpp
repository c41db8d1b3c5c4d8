// Trace recording: named channels sampled once per simulation tick.
//
// A probe is one callback that fills a contiguous group of channels; the
// recorder turns every channel into a TimeSeries that the metrics layer
// and the figure-reproduction benches consume. A rig registers exactly
// one group covering its whole channel set (scenario/rig.cpp), so a tick
// costs one call; add_probe() is the one-channel case.
//
// Hot-path notes (the recorder runs once per simulated tick):
//  * reserve_horizon() pre-sizes every channel vector (and the name->index
//    map) from the run length, so steady-state sampling never allocates.
//  * every probe writes into one row buffer sized at registration, which
//    sample() then appends channel by channel.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/time_series.hpp"

namespace sprintcon::sim {

/// Collects one TimeSeries per registered channel.
class TraceRecorder {
 public:
  /// @param dt_s sampling interval; must equal the simulation step.
  explicit TraceRecorder(double dt_s);

  /// Register a one-channel probe. Names must be unique.
  void add_probe(std::string name, std::function<double()> probe);

  /// Register a group of channels produced by one callback: each tick the
  /// callback fills out[0..names.size()) and the recorder appends every
  /// value. Lets one pass over shared state feed several channels.
  void add_probe_group(std::vector<std::string> names,
                       std::function<void(double*)> probe);

  /// Pre-size every channel vector (current and future) for a run of
  /// `expected_samples` ticks, and the name->index map for
  /// `expected_channels` channels, so steady-state sampling never grows a
  /// container. Callable any time; growth past the reservation is safe.
  void reserve_horizon(std::size_t expected_samples,
                       std::size_t expected_channels = 24);

  /// Sample all probes (called by Simulation once per tick). Hot path
  /// (SPRINTCON_HOT): appends against the reserve_horizon() reservation.
  void sample();

  bool has(std::string_view name) const;
  /// Access a recorded channel; throws InvalidArgumentError if unknown.
  const TimeSeries& series(std::string_view name) const;
  std::vector<std::string> channel_names() const;
  std::vector<const TimeSeries*> all_series() const;

 private:
  /// Transparent hash so string_view lookups need no std::string temporary.
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  struct Probe {
    std::size_t first_series;
    std::function<void(double*)> fn;
  };

  double dt_s_;
  std::size_t expected_samples_ = 0;
  std::vector<Probe> probes_;
  std::vector<TimeSeries> series_;
  /// One tick's values, one slot per channel; probes write their slice.
  std::vector<double> row_;
  /// name -> index into series_; the metrics layer queries channels by
  /// name per summary field, so lookups are O(1) instead of a linear scan.
  std::unordered_map<std::string, std::size_t, StringHash, std::equal_to<>>
      index_;
};

}  // namespace sprintcon::sim
