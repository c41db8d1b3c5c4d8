// What a server is made of: per-core DVFS ranges and workloads, handed to
// a Rack at construction.
//
// A core is dedicated to either interactive or batch work for the duration
// of a sprint (the paper's colocation scheme: both classes share a server
// but not a core). A server owns no state of its own once built: the Rack
// keeps every core of every server in one core table (server/rack.hpp).
#pragma once

#include <utility>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "workload/batch_job.hpp"
#include "workload/interactive.hpp"
#include "workload/request_queue.hpp"
#include "workload/trace_io.hpp"

namespace sprintcon::server {

/// One core as handed to a Rack: its DVFS range and the workload it is
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

/// One server as handed to a Rack: its cores in core order (as many as
/// the rack's PlatformSpec::cores_per_server) and the stream for its fan's
/// ambient drift.
struct ServerSpec {
  std::vector<CoreSpec> cores;
  Rng fan_rng;
};

}  // namespace sprintcon::server
