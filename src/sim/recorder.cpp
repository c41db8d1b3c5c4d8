#include "sim/recorder.hpp"

#include "common/attributes.hpp"
#include "common/validation.hpp"

namespace sprintcon::sim {

TraceRecorder::TraceRecorder(double dt_s) : dt_s_(dt_s) {
  SPRINTCON_EXPECTS(dt_s > 0.0, "recorder interval must be positive");
}

void TraceRecorder::add_probe(std::string name, std::function<double()> probe) {
  SPRINTCON_EXPECTS(static_cast<bool>(probe), "probe must be callable");
  add_probe_group({std::move(name)},
                  [fn = std::move(probe)](double* out) { *out = fn(); });
}

void TraceRecorder::add_probe_group(std::vector<std::string> names,
                                    std::function<void(double*)> probe) {
  SPRINTCON_EXPECTS(static_cast<bool>(probe), "probe must be callable");
  SPRINTCON_EXPECTS(!names.empty(), "probe group needs at least one channel");
  const std::size_t first = series_.size();
  for (std::string& name : names) {
    SPRINTCON_EXPECTS(!has(name), "duplicate probe name: " + name);
    index_.emplace(name, series_.size());
    series_.emplace_back(std::move(name), dt_s_);
    if (expected_samples_ > 0) series_.back().reserve(expected_samples_);
  }
  row_.resize(series_.size());
  probes_.push_back({first, std::move(probe)});
}

void TraceRecorder::reserve_horizon(std::size_t expected_samples,
                                    std::size_t expected_channels) {
  expected_samples_ = expected_samples;
  index_.reserve(expected_channels);
  for (TimeSeries& s : series_) s.reserve(expected_samples);
}

SPRINTCON_HOT void TraceRecorder::sample() {
  for (const Probe& p : probes_) p.fn(row_.data() + p.first_series);
  for (std::size_t i = 0; i < series_.size(); ++i) series_[i].push(row_[i]);
}

bool TraceRecorder::has(std::string_view name) const {
  return index_.find(name) != index_.end();
}

const TimeSeries& TraceRecorder::series(std::string_view name) const {
  const auto it = index_.find(name);
  if (it == index_.end())
    throw InvalidArgumentError("unknown trace channel: " + std::string(name));
  return series_[it->second];
}

std::vector<std::string> TraceRecorder::channel_names() const {
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const auto& s : series_) names.push_back(s.name());
  return names;
}

std::vector<const TimeSeries*> TraceRecorder::all_series() const {
  std::vector<const TimeSeries*> out;
  out.reserve(series_.size());
  for (const auto& s : series_) out.push_back(&s);
  return out;
}

}  // namespace sprintcon::sim
