// Block interface over interactive-utilization generators.
//
// An interactive core's demand signal comes from one of three families:
// the synthetic Wikipedia-like generator (InteractiveTraceGenerator), a
// closed-loop request queue (RequestQueueSource) or a recorded trace
// replayed from disk (ReplayUtilization). A Server does not step them core
// by core: it groups its interactive cores by family into blocks and makes
// one call per block per tick, and each block fills the utilizations of all
// its cores from its own per-core state arrays. That keeps the per-core
// loop free of virtual dispatch and lets a block compute the terms its
// cores share once per tick (InteractiveTraceBlock).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/attributes.hpp"

namespace sprintcon::workload {

/// A block of per-core utilization signals of one family, advanced
/// together.
class UtilizationSource {
 public:
  UtilizationSource() = default;
  UtilizationSource(const UtilizationSource&) = delete;
  UtilizationSource& operator=(const UtilizationSource&) = delete;
  virtual ~UtilizationSource() = default;

  /// Advance every core of the block by dt. Each block core drives one
  /// server core c, given when the core joined the block: it reads its
  /// current normalized frequency from `freq[c]` and writes its
  /// utilization in [0, 1] for the elapsed interval to `util[c]`. The
  /// caller checks dt > 0 once per tick.
  ///
  /// Trace-style sources ignore the frequency (the recorded demand is what
  /// it is); queue-backed sources use it — throttling a core raises its
  /// utilization and builds backlog, like a real request server.
  virtual void step(double dt_s, std::span<const double> freq,
                    std::span<double> util) = 0;
};

/// A block of independent scalar sources (RequestQueueSource,
/// ReplayUtilization) stepped in one loop, each with its own state. The
/// sources stay addressable (Server::request_queues) and never move once
/// the server is built.
template <class Source>
class SourceBlock final : public UtilizationSource {
 public:
  void reserve(std::size_t n) {
    sources_.reserve(n);
    cores_.reserve(n);
  }
  /// Append a source driving server core `core`.
  void add(Source source, std::uint32_t core) {
    sources_.push_back(std::move(source));
    cores_.push_back(core);
  }

  std::span<Source> sources() noexcept { return sources_; }

  SPRINTCON_HOT void step(double dt_s, std::span<const double> freq,
                          std::span<double> util) override {
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
