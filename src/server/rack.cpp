#include "server/rack.hpp"

#include <algorithm>
#include <cmath>

#include "common/validation.hpp"
#include "workload/queueing.hpp"

namespace sprintcon::server {

Rack::Rack(std::vector<Server> servers) : servers_(std::move(servers)) {
  SPRINTCON_EXPECTS(!servers_.empty(), "rack needs at least one server");
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    for (const std::uint32_t c : servers_[s].batch_cores()) {
      batch_refs_.push_back({s, c});
    }
  }
}

void Rack::step(const sim::SimClock& clock) {
  for (Server& server : servers_) server.step(clock.dt_s(), clock.now_s());
}

double Rack::total_power_w() const {
  double sum = 0.0;
  for (const Server& s : servers_) sum += s.power_w();
  return sum;
}

CoreView Rack::core(const BatchCoreRef& ref) const {
  SPRINTCON_EXPECTS(ref.server < servers_.size(), "server index out of range");
  const Server& server = servers_[ref.server];
  SPRINTCON_EXPECTS(ref.core < server.num_cores(), "core index out of range");
  return CoreView(server, ref.core);
}

RackTelemetry Rack::telemetry() const {
  // One pass over each server's role spans. The FP evaluation order below
  // (each sum in core order) is what the recorded traces (and the goldens)
  // were produced with; keep it.
  const workload::LatencyModel latency;
  // Exactly the -ln(1 - p) factor percentile_response_s(p = 0.95) applies
  // to the mean; hoisted so the scan pays one log per program, not one
  // per core per tick. A dark or saturated core counts as the 1-second
  // clamp — requests are effectively not being served.
  static const double kP95Factor = -std::log(1.0 - 0.95);
  constexpr double kClampS = 1.0;

  RackTelemetry out;
  double inter_sum = 0.0, batch_sum = 0.0;
  std::size_t inter_n = 0, batch_n = 0;
  double temp_max = 0.0;
  double p95_sum = 0.0;
  std::size_t p95_n = 0;
  for (const Server& s : servers_) {
    const bool powered = s.powered();
    // Per-server mean re-weighted by the core count: sum, divide, then
    // multiply back (the round-trip is part of the recorded arithmetic).
    double s_inter = 0.0, s_batch = 0.0;
    const std::size_t s_inter_n = s.interactive_cores().size();
    const std::size_t s_batch_n = s.batch_cores().size();
    for (const std::uint32_t c : s.interactive_cores()) {
      s_inter += powered ? s.freq(c) : 0.0;
      double t = kClampS;
      if (powered) {
        const double mean = latency.mean_response_s(s.freq(c), s.utilization(c));
        t = std::min(mean * kP95Factor, kClampS);
      }
      p95_sum += t;
    }
    for (const std::uint32_t c : s.batch_cores()) {
      s_batch += powered ? s.freq(c) : 0.0;
    }
    for (std::size_t c = 0; c < s.num_cores(); ++c) {
      temp_max = std::max(temp_max, s.temperature_c(c));
    }
    if (s_inter_n > 0) {
      inter_sum += s_inter / static_cast<double>(s_inter_n) *
                   static_cast<double>(s_inter_n);
    }
    if (s_batch_n > 0) {
      batch_sum += s_batch / static_cast<double>(s_batch_n) *
                   static_cast<double>(s_batch_n);
    }
    inter_n += s_inter_n;
    batch_n += s_batch_n;
    p95_n += s_inter_n;
  }
  out.freq_interactive =
      inter_n ? inter_sum / static_cast<double>(inter_n) : 0.0;
  out.freq_batch = batch_n ? batch_sum / static_cast<double>(batch_n) : 0.0;
  out.core_temp_max_c = temp_max;
  out.p95_latency_ms =
      p95_n ? p95_sum / static_cast<double>(p95_n) * 1000.0 : 0.0;
  return out;
}

void Rack::set_all_powered(bool on) {
  for (Server& s : servers_) s.set_powered(on);
}

}  // namespace sprintcon::server
