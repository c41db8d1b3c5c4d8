#include "server/server.hpp"

#include <algorithm>
#include <cmath>

#include "common/attributes.hpp"
#include "common/error.hpp"
#include "common/validation.hpp"

namespace sprintcon::server {

namespace {
// Fan thermal response time constant.
constexpr double kFanTauS = 8.0;
}  // namespace

Server::Server(const PlatformSpec& spec, std::vector<CoreSpec> cores, Rng rng)
    : spec_(spec),
      measurement_(spec),
      fan_(spec.fan_peak_power_w, kFanTauS, rng),
      num_cores_(cores.size()) {
  spec_.validate();
  SPRINTCON_EXPECTS(cores.size() == spec.cores_per_server,
                    "core count must match the platform spec");
  num_interactive_ = static_cast<std::size_t>(
      std::count_if(cores.begin(), cores.end(), [](const CoreSpec& c) {
        return !std::holds_alternative<workload::BatchJob>(c.workload);
      }));
  core_state_.assign(kNumArrays * num_cores_, 0.0);
  indices_.assign(2 * num_cores_, kNoJob);
  jobs_.reserve(num_cores_ - num_interactive_);

  std::uint32_t* next_interactive = indices_.data();
  std::uint32_t* next_batch = indices_.data() + num_interactive_;
  std::uint32_t* job_of = indices_.data() + num_cores_;
  // A block holds at most every interactive core; reserving that keeps
  // each block one allocation.
  const auto open = [&](auto block) {
    block->reserve(num_interactive_);
    auto* typed = block.get();
    blocks_.push_back(std::move(block));
    return typed;
  };
  workload::SourceBlock<workload::ReplayUtilization>* replays = nullptr;
  workload::InteractiveTraceBlock* last_trace = nullptr;

  for (std::uint32_t c = 0; c < num_cores_; ++c) {
    CoreSpec& core = cores[c];
    SPRINTCON_EXPECTS(core.freq_min > 0.0 && core.freq_min <= core.freq_max &&
                          core.freq_max <= 1.0,
                      "core frequency bounds must satisfy 0 < min <= max <= 1");
    array(kFreqMin)[c] = core.freq_min;
    array(kFreqMax)[c] = core.freq_max;
    if (auto* job = std::get_if<workload::BatchJob>(&core.workload)) {
      // Batch cores start throttled until controlled.
      array(kFreq)[c] = core.freq_min;
      job_of[c] = static_cast<std::uint32_t>(jobs_.size());
      jobs_.push_back(std::move(*job));
      *next_batch++ = c;
      continue;
    }
    // Interactive cores sprint at peak by default.
    array(kFreq)[c] = core.freq_max;
    *next_interactive++ = c;
    if (auto* gen =
            std::get_if<workload::InteractiveTraceGenerator>(&core.workload)) {
      // Cores whose traces share a config and trace time share a block;
      // usually that is the block the previous trace core joined.
      bool joined = last_trace != nullptr && last_trace->try_add(*gen, c);
      for (std::size_t b = 0; !joined && b < blocks_.size(); ++b) {
        auto* trace =
            dynamic_cast<workload::InteractiveTraceBlock*>(blocks_[b].get());
        if (trace != nullptr && trace->try_add(*gen, c)) {
          last_trace = trace;
          joined = true;
        }
      }
      if (!joined) {
        last_trace =
            open(std::make_unique<workload::InteractiveTraceBlock>(*gen, c));
      }
    } else if (auto* queue =
                   std::get_if<workload::RequestQueueSource>(&core.workload)) {
      if (queues_ == nullptr) {
        queues_ = open(std::make_unique<
                       workload::SourceBlock<workload::RequestQueueSource>>());
      }
      queues_->add(std::move(*queue), c);
    } else {
      if (replays == nullptr) {
        replays = open(std::make_unique<
                       workload::SourceBlock<workload::ReplayUtilization>>());
      }
      replays->add(
          std::move(std::get<workload::ReplayUtilization>(core.workload)), c);
    }
  }
}

void Server::reject_nan_freq() {
  throw InvalidArgumentError("Server::set_freq: frequency must be a number");
}

std::span<workload::RequestQueueSource> Server::request_queues() noexcept {
  if (queues_ == nullptr) return {};
  return queues_->sources();
}

void Server::attach_thermal(const ThermalSpec& spec) {
  spec.validate();
  thermal_spec_ = spec;
  thermal_ = true;
  thermal_cached_dt_s_ = -1.0;
  std::fill_n(array(kTemp), num_cores_, spec.ambient_c);
}

SPRINTCON_HOT void Server::step(double dt_s, double now_s) {
  if (!powered_) {
    power_w_ = 0.0;
    fan_power_w_ = 0.0;
    return;
  }
  // Checked once per server tick for every block and job below.
  SPRINTCON_EXPECTS(dt_s > 0.0, "dt must be positive");

  const std::size_t n = num_cores_;
  const std::span<const double> freq(array(kFreq), n);
  const std::span<double> util(array(kUtil), n);
  double* const dyn = array(kDynW);

  for (const auto& block : blocks_) block->step(dt_s, freq, util);

  // Per-class sums accumulate in core order, as the recorded traces were
  // produced.
  double inter_dyn_w = 0.0;
  for (const std::uint32_t c : interactive_cores()) {
    const double d = measurement_.core_dynamic_w_in_range(freq[c], util[c]);
    dyn[c] = d;
    inter_dyn_w += d;
  }
  double batch_dyn_w = 0.0;
  const std::uint32_t* const batch = indices_.data() + num_interactive_;
  for (std::size_t k = 0; k < jobs_.size(); ++k) {
    const std::uint32_t c = batch[k];
    util[c] = jobs_[k].run(dt_s, freq[c], now_s);
    const double d = measurement_.core_dynamic_w_in_range(freq[c], util[c]);
    dyn[c] = d;
    batch_dyn_w += d;
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
    double* const temp = array(kTemp);
    for (std::size_t i = 0; i < n; ++i) {
      const double target = ambient + r_th * dyn[i];
      temp[i] += alpha * (target - temp[i]);
    }
  }

  const double before_fan =
      measurement_.server_power_w(inter_dyn_w + batch_dyn_w);
  fan_power_w_ =
      fan_.step(dt_s, before_fan, spec_.idle_power_w, spec_.peak_power_w);
  power_w_ = before_fan + fan_power_w_;
}

}  // namespace sprintcon::server
