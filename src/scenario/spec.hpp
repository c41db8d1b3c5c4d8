// The scenario description language (DESIGN.md §12): one declarative text
// file describes a whole facility experiment — fleet composition, rack
// shape, workload mix, timed traffic surges, grid/utility events, an
// embedded fault plan, the controller policy, and run duration/seed. It is
// the only way to describe a run: the example binaries take it as
// `--scenario FILE` and have no other run-shaping options.
//
// The format extends the fault-plan idiom (src/fault/fault.hpp): one
// section keyword per line followed by key=value pairs, '#' comments,
// blank lines ignored:
//
//     scenario name=black-friday-surge seed=42 duration=900
//     fleet    racks=6 staggered=true
//     rack     servers=16 policy=sprintcon ups_wh=400
//     workload mean_util=0.45 queueing=true
//     surge    start=240 duration=300 peak=0.95 ramp=45
//     grid     derate start=300 duration=300 fraction=0.85
//     fault    meter_noise start=0 duration=900 magnitude=0.05
//
// `scenario` appears exactly once (first); `fleet`/`rack`/`workload` at
// most once; `surge`/`grid`/`fault` repeat. Every `fault` line is exactly
// one fault-plan line (FaultSpec grammar), so a fault plan joins a
// scenario by prefixing each of its lines with `fault `.
//
// ScenarioSpec is a value type: parse -> to_text -> parse is the identity
// (tests/scenario_test.cpp pins the round-trip for every shipped scenario
// and for fuzzer-generated specs). Loading and lowering to a runnable
// FacilityConfig live in scenario/loader.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "fault/fault.hpp"
#include "scenario/rig.hpp"

namespace sprintcon::scenario {

/// Spec-grammar token for a policy ("sprintcon", "sgct", "sgct_v1",
/// "sgct_v2", "power_cap") — distinct from to_string(Policy), which
/// returns the human-facing display name.
const char* policy_token(Policy policy) noexcept;

/// Inverse of policy_token; throws InvalidArgumentError on unknown names.
Policy parse_policy_token(std::string_view token);

/// One timed traffic surge: the interactive mean utilization ramps from
/// the workload baseline to `peak_utilization` over `ramp_s`, holds for
/// the window, then ramps back down. Lowered onto the interactive trace
/// envelope (workload::EnvelopePoint) by the loader.
struct SurgeSpec {
  double start_s = 0.0;
  double duration_s = 0.0;
  double peak_utilization = 0.9;
  double ramp_s = 30.0;

  double end_s() const noexcept { return start_s + duration_s; }
  /// One "surge start=... duration=... peak=... ramp=..." line.
  std::string to_line() const;
  void validate() const;

  bool operator==(const SurgeSpec&) const = default;
};

/// Grid/utility event families. Extend here, in to_string/parse, and in
/// the loader's lowering (DESIGN.md §12 lists the extension recipe).
enum class GridEventKind {
  /// Primary feed lost for the window; the rack rides through on the UPS.
  kOutage,
  /// Demand-response curtailment: the utility derates the feed to
  /// `fraction` of the breaker rating for the window.
  kDerate,
};

const char* to_string(GridEventKind kind) noexcept;
GridEventKind parse_grid_event_kind(std::string_view name);

/// One scheduled grid event. Lowered onto the fault taxonomy by the
/// loader (outage -> utility_outage, derate -> cb_drift).
struct GridEventSpec {
  GridEventKind kind = GridEventKind::kOutage;
  double start_s = 0.0;
  double duration_s = 0.0;
  /// Kept fraction of the CB rating (kDerate only), in (0, 1].
  double fraction = 1.0;

  double end_s() const noexcept { return start_s + duration_s; }
  /// One "grid <kind> start=... duration=... [fraction=...]" line.
  std::string to_line() const;
  void validate() const;

  bool operator==(const GridEventSpec&) const = default;
};

/// Fleet composition: how many racks, how they are sharded and staggered,
/// and which facility-level services run.
struct FleetSpec {
  std::size_t racks = 4;
  /// Worker shards for Facility::run(); 0 = one per hardware thread.
  std::size_t threads = 0;
  bool staggered = true;
  double epoch_s = 30.0;
  bool health = false;
  bool recovery = false;

  void validate() const;

  bool operator==(const FleetSpec&) const = default;
};

/// Per-rack shape: servers, core split, policy, storage, batch deadline
/// and the breaker's overload schedule.
struct RackSpec {
  std::size_t servers = 16;
  std::size_t interactive_cores = 4;
  bool dedicated = false;
  Policy policy = Policy::kSprintCon;
  double ups_wh = 400.0;
  double supercap_wh = 0.0;
  double deadline_s = 720.0;
  double work_scale = 0.65;
  double cb_rated_w = 3200.0;
  double overload = 1.25;
  double overload_s = 150.0;
  double recovery_s = 300.0;

  void validate() const;

  bool operator==(const RackSpec&) const = default;
};

/// Workload mix: the interactive trace shape (baseline the surges ride
/// on) and whether interactive cores run the open-loop trace or the
/// closed-loop request-queue backend.
struct WorkloadSpec {
  double mean_util = 0.65;
  double idle_util = 0.15;
  double ramp_up_s = 20.0;
  double swell_amplitude = 0.15;
  double swell_period_s = 210.0;
  double noise_sigma = 0.07;
  double noise_tau_s = 12.0;
  double spike_rate_per_s = 1.0 / 90.0;
  double spike_magnitude = 0.22;
  double spike_decay_s = 12.0;
  /// Closed-loop request queues instead of the open-loop trace.
  bool queueing = false;

  void validate() const;

  bool operator==(const WorkloadSpec&) const = default;
};

/// One complete declarative scenario.
struct ScenarioSpec {
  std::string name;
  std::uint64_t seed = 42;
  std::uint64_t fault_seed = 1729;
  double duration_s = 900.0;
  double dt_s = 1.0;

  FleetSpec fleet;
  RackSpec rack;
  WorkloadSpec workload;
  std::vector<SurgeSpec> surges;
  std::vector<GridEventSpec> grid_events;
  /// Embedded fault plan (one `fault <plan-line>` per spec).
  fault::FaultPlan faults;

  /// Validate every section plus the cross-cutting rules (surges sorted
  /// and non-overlapping including their ramps); throws
  /// InvalidArgumentError. The loader re-runs the same checks with
  /// file:line context while parsing.
  void validate() const;

  /// Canonical text form (every key explicit, %.17g numbers): feeding it
  /// back through the loader reproduces this spec exactly.
  std::string to_text() const;

  bool operator==(const ScenarioSpec&) const = default;
};

}  // namespace sprintcon::scenario
