// Blocks of interactive-utilization generators.
//
// An interactive core's demand signal comes from one of three families:
// the synthetic Wikipedia-like generator (InteractiveTraceGenerator), a
// closed-loop request queue (RequestQueueSource) or a recorded trace
// replayed from disk (ReplayUtilization). A Rack does not step them core
// by core: it groups its interactive cores by family into blocks and makes
// one call per block per tick, and each block fills the utilizations of all
// its cores from its own per-core state arrays. That keeps the per-core
// loop free of dispatch and lets a block compute the terms its cores share
// once per tick (InteractiveTraceBlock).
//
// Every block has the same step signature: step(dt, freq, util) advances
// each member by dt (the caller checks dt > 0 once per tick). A member
// drives one rack core c, given when it joined the block: it reads that
// core's current normalized frequency from `freq[c]` and writes its
// utilization in [0, 1] for the elapsed interval to `util[c]`. Trace-style
// sources ignore the frequency (the recorded demand is what it is);
// queue-backed sources use it — throttling a core raises its utilization
// and builds backlog, like a real request server.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/attributes.hpp"

namespace sprintcon::workload {

/// A block of independent scalar sources (RequestQueueSource,
/// ReplayUtilization) stepped in one loop, each with its own state. The
/// sources stay addressable (Rack::request_queues) and never move once
/// the rack is built.
template <class Source>
class SourceBlock {
 public:
  void reserve(std::size_t n) {
    sources_.reserve(n);
    cores_.reserve(n);
  }
  /// Append a source driving rack core `core`.
  void add(Source source, std::uint32_t core) {
    sources_.push_back(std::move(source));
    cores_.push_back(core);
  }

  std::span<Source> sources() noexcept { return sources_; }

  SPRINTCON_HOT void step(double dt_s, std::span<const double> freq,
                          std::span<double> util) {
    for (std::size_t k = 0; k < sources_.size(); ++k) {
      const std::uint32_t c = cores_[k];
      util[c] = sources_[k].step(dt_s, freq[c]);
    }
  }

 private:
  std::vector<Source> sources_;
  std::vector<std::uint32_t> cores_;
};

}  // namespace sprintcon::workload
