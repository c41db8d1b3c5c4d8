#include "server/rack.hpp"

#include <algorithm>
#include <cmath>
#include <variant>

#include "common/attributes.hpp"
#include "common/error.hpp"
#include "common/validation.hpp"
#include "workload/queueing.hpp"

namespace sprintcon::server {

namespace {
// Fan thermal response time constant.
constexpr double kFanTauS = 8.0;
// The per-core arrays of the core table, in table order.
enum CoreArray : std::size_t {
  kFreq, kFreqMin, kFreqMax, kUtil, kDynW, kTemp, kNumCoreArrays
};
// The per-server arrays that follow them.
enum ServerArray : std::size_t {
  kServerDynW, kPowerW, kFanPowerW, kNumServerArrays
};
}  // namespace

Rack::Rack(const PlatformSpec& platform, std::vector<ServerSpec> servers)
    : platform_(platform),
      measurement_(platform),
      num_servers_(servers.size()),
      num_cores_(servers.size() * platform.cores_per_server) {
  SPRINTCON_EXPECTS(!servers.empty(), "rack needs at least one server");
  const std::size_t per_server = platform.cores_per_server;
  std::size_t num_generators = 0;
  std::size_t num_queues = 0;
  std::size_t num_replays = 0;
  for (const ServerSpec& server : servers) {
    SPRINTCON_EXPECTS(server.cores.size() == per_server,
                      "core count must match the platform spec");
    for (const CoreSpec& core : server.cores) {
      const CoreSpec::Workload& w = core.workload;
      num_generators +=
          std::holds_alternative<workload::InteractiveTraceGenerator>(w);
      num_queues += std::holds_alternative<workload::RequestQueueSource>(w);
      num_replays += std::holds_alternative<workload::ReplayUtilization>(w);
    }
  }
  num_interactive_ = num_generators + num_queues + num_replays;
  const std::size_t num_batch = num_cores_ - num_interactive_;

  const std::size_t n = num_cores_;
  const std::size_t s_count = num_servers_;
  table_.assign(kNumCoreArrays * n + kNumServerArrays * s_count, 0.0);
  double* const t = table_.data();
  freq_ = t + kFreq * n;
  freq_min_ = t + kFreqMin * n;
  freq_max_ = t + kFreqMax * n;
  util_ = t + kUtil * n;
  dyn_w_ = t + kDynW * n;
  temp_c_ = t + kTemp * n;
  double* const server_arrays = t + kNumCoreArrays * n;
  server_dyn_w_ = server_arrays + kServerDynW * s_count;
  power_w_ = server_arrays + kPowerW * s_count;
  fan_power_w_ = server_arrays + kFanPowerW * s_count;
  // Without a thermal model a core reads the default ambient.
  std::fill_n(temp_c_, n, ThermalSpec{}.ambient_c);

  index_.assign(2 * n + 2 * (s_count + 1), kNoJob);
  std::uint32_t* const inter_ids = index_.data();
  std::uint32_t* const batch_ids = inter_ids + num_interactive_;
  std::uint32_t* const job_of = inter_ids + n;
  std::uint32_t* const inter_begin = job_of + n;
  std::uint32_t* const batch_begin = inter_begin + s_count + 1;
  interactive_ids_ = inter_ids;
  batch_ids_ = batch_ids;
  job_of_core_ = job_of;
  interactive_begin_ = inter_begin;
  batch_begin_ = batch_begin;

  jobs_.reserve(num_batch);
  batch_refs_.reserve(num_batch);
  queues_.reserve(num_queues);
  replays_.reserve(num_replays);
  fans_.reserve(s_count);

  // Synthetic cores whose traces share a config and trace time share a
  // block; usually that is the block the previous synthetic core joined.
  // A new block is sized for every synthetic core still to come, so a rack
  // whose cores share one config builds its block in one allocation.
  std::size_t last_block = 0;
  std::size_t generators_left = num_generators;
  const auto join_trace_block =
      [&](const workload::InteractiveTraceGenerator& generator,
          std::uint32_t core) {
        if (!trace_blocks_.empty() &&
            trace_blocks_[last_block].try_add(generator, core)) {
          return;
        }
        for (std::size_t b = 0; b < trace_blocks_.size(); ++b) {
          if (b != last_block && trace_blocks_[b].try_add(generator, core)) {
            last_block = b;
            return;
          }
        }
        trace_blocks_.emplace_back(generator, core);
        trace_blocks_.back().reserve(generators_left);
        last_block = trace_blocks_.size() - 1;
      };

  std::uint32_t next_inter = 0;
  std::uint32_t next_batch = 0;
  for (std::size_t s = 0; s < s_count; ++s) {
    inter_begin[s] = next_inter;
    batch_begin[s] = next_batch;
    for (std::size_t c = 0; c < per_server; ++c) {
      CoreSpec& core = servers[s].cores[c];
      SPRINTCON_EXPECTS(core.freq_min > 0.0 && core.freq_min <= core.freq_max &&
                            core.freq_max <= 1.0,
                        "core frequency bounds must satisfy 0 < min <= max <= 1");
      const auto id = static_cast<std::uint32_t>(core_id(s, c));
      freq_min_[id] = core.freq_min;
      freq_max_[id] = core.freq_max;
      if (auto* job = std::get_if<workload::BatchJob>(&core.workload)) {
        // Batch cores start throttled until controlled.
        freq_[id] = core.freq_min;
        job_of[id] = next_batch;
        batch_ids[next_batch++] = id;
        jobs_.push_back(std::move(*job));
        batch_refs_.push_back({s, c});
        continue;
      }
      // Interactive cores sprint at peak by default.
      freq_[id] = core.freq_max;
      inter_ids[next_inter++] = id;
      if (auto* gen = std::get_if<workload::InteractiveTraceGenerator>(
              &core.workload)) {
        join_trace_block(*gen, id);
        --generators_left;
      } else if (auto* queue =
                     std::get_if<workload::RequestQueueSource>(&core.workload)) {
        queues_.add(std::move(*queue), id);
      } else {
        replays_.add(
            std::move(std::get<workload::ReplayUtilization>(core.workload)), id);
      }
    }
    fans_.emplace_back(platform.fan_peak_power_w, kFanTauS,
                       servers[s].fan_rng);
  }
  inter_begin[s_count] = next_inter;
  batch_begin[s_count] = next_batch;
}

void Rack::reject_nan_freq() {
  throw InvalidArgumentError("Rack::set_freq: frequency must be a number");
}

void Rack::attach_thermal(const ThermalSpec& spec) {
  spec.validate();
  thermal_spec_ = spec;
  thermal_ = true;
  thermal_cached_dt_s_ = -1.0;
  std::fill_n(temp_c_, num_cores_, spec.ambient_c);
}

void Rack::step(const sim::SimClock& clock) {
  step(clock.dt_s(), clock.now_s());
}

SPRINTCON_HOT void Rack::step(double dt_s, double now_s) {
  if (!powered_) {
    std::fill_n(power_w_, num_servers_, 0.0);
    std::fill_n(fan_power_w_, num_servers_, 0.0);
    return;
  }
  // Checked once per rack tick for every block and job below.
  SPRINTCON_EXPECTS(dt_s > 0.0, "dt must be positive");

  const std::span<const double> freq(freq_, num_cores_);
  const std::span<double> util(util_, num_cores_);
  for (workload::InteractiveTraceBlock& block : trace_blocks_) {
    block.step(dt_s, freq, util);
  }
  queues_.step(dt_s, freq, util);
  replays_.step(dt_s, freq, util);

  // Per-server, per-class sums accumulate in core order, as the recorded
  // traces were produced: the interactive sum is staged, the batch loop
  // adds its own sum to it.
  for (std::size_t s = 0; s < num_servers_; ++s) {
    double inter_dyn_w = 0.0;
    for (std::uint32_t k = interactive_begin_[s]; k < interactive_begin_[s + 1];
         ++k) {
      const std::uint32_t c = interactive_ids_[k];
      const double d = measurement_.core_dynamic_w_in_range(freq_[c], util_[c]);
      dyn_w_[c] = d;
      inter_dyn_w += d;
    }
    server_dyn_w_[s] = inter_dyn_w;
  }
  workload::BatchJob* const jobs = jobs_.data();
  for (std::size_t s = 0; s < num_servers_; ++s) {
    double batch_dyn_w = 0.0;
    for (std::uint32_t k = batch_begin_[s]; k < batch_begin_[s + 1]; ++k) {
      const std::uint32_t c = batch_ids_[k];
      util_[c] = jobs[k].run(dt_s, freq_[c], now_s);
      const double d = measurement_.core_dynamic_w_in_range(freq_[c], util_[c]);
      dyn_w_[c] = d;
      batch_dyn_w += d;
    }
    server_dyn_w_[s] = server_dyn_w_[s] + batch_dyn_w;
  }

  if (thermal_) {
    if (dt_s != thermal_cached_dt_s_) {
      // The first-order RC update of the scalar thermal model, so the
      // kernel produces bit-identical temperatures.
      thermal_alpha_ = 1.0 - std::exp(-dt_s / thermal_spec_.time_constant_s);
      thermal_cached_dt_s_ = dt_s;
    }
    const double ambient = thermal_spec_.ambient_c;
    const double r_th = thermal_spec_.resistance_c_per_w;
    const double alpha = thermal_alpha_;
    for (std::size_t i = 0; i < num_cores_; ++i) {
      const double target = ambient + r_th * dyn_w_[i];
      temp_c_[i] += alpha * (target - temp_c_[i]);
    }
  }

  for (std::size_t s = 0; s < num_servers_; ++s) {
    const double before_fan = measurement_.server_power_w(server_dyn_w_[s]);
    fan_power_w_[s] = fans_[s].step(dt_s, before_fan, platform_.idle_power_w,
                                    platform_.peak_power_w);
    power_w_[s] = before_fan + fan_power_w_[s];
  }
}

double Rack::total_power_w() const noexcept {
  double sum = 0.0;
  for (std::size_t s = 0; s < num_servers_; ++s) sum += power_w_[s];
  return sum;
}

double Rack::mean_batch_freq() const noexcept {
  if (jobs_.empty()) return 0.0;
  double sum = 0.0;
  for (const std::uint32_t c : batch_ids()) sum += freq_[c];
  return sum / static_cast<double>(jobs_.size());
}

CoreView Rack::core(const BatchCoreRef& ref) const {
  SPRINTCON_EXPECTS(ref.server < num_servers_, "server index out of range");
  SPRINTCON_EXPECTS(ref.core < platform_.cores_per_server,
                    "core index out of range");
  return CoreView(*this, core_id(ref.server, ref.core));
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
  double p95_sum = 0.0;
  const bool powered = powered_;
  for (std::size_t s = 0; s < num_servers_; ++s) {
    // Per-server mean re-weighted by the core count: sum, divide, then
    // multiply back (the round-trip is part of the recorded arithmetic).
    double s_inter = 0.0, s_batch = 0.0;
    const std::span<const std::uint32_t> inter = interactive_ids(s);
    const std::span<const std::uint32_t> batch = batch_ids(s);
    for (const std::uint32_t c : inter) {
      s_inter += powered ? freq_[c] : 0.0;
      double t = kClampS;
      if (powered) {
        const double mean = latency.mean_response_s(freq_[c], util_[c]);
        t = std::min(mean * kP95Factor, kClampS);
      }
      p95_sum += t;
    }
    for (const std::uint32_t c : batch) s_batch += powered ? freq_[c] : 0.0;
    if (!inter.empty()) {
      const auto k = static_cast<double>(inter.size());
      inter_sum += s_inter / k * k;
    }
    if (!batch.empty()) {
      const auto k = static_cast<double>(batch.size());
      batch_sum += s_batch / k * k;
    }
  }
  // The hottest core, starting from a real temperature (a sub-zero
  // ambient is valid).
  double temp_max = temp_c_[0];
  for (std::size_t c = 1; c < num_cores_; ++c) {
    temp_max = std::max(temp_max, temp_c_[c]);
  }
  const std::size_t inter_n = num_interactive_;
  const std::size_t batch_n = jobs_.size();
  out.freq_interactive =
      inter_n ? inter_sum / static_cast<double>(inter_n) : 0.0;
  out.freq_batch = batch_n ? batch_sum / static_cast<double>(batch_n) : 0.0;
  out.core_temp_max_c = temp_max;
  out.p95_latency_ms =
      inter_n ? p95_sum / static_cast<double>(inter_n) * 1000.0 : 0.0;
  return out;
}

std::uint64_t Rack::swell_evaluations() const noexcept {
  std::uint64_t n = 0;
  for (const auto& block : trace_blocks_) n += block.memo().evaluations();
  return n;
}

std::uint64_t Rack::swell_reused() const noexcept {
  std::uint64_t n = 0;
  for (const auto& block : trace_blocks_) n += block.memo().reused();
  return n;
}

}  // namespace sprintcon::server
