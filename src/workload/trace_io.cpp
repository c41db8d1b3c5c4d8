#include "workload/trace_io.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>

#include "common/validation.hpp"

namespace sprintcon::workload {

double RecordedTrace::mean() const {
  SPRINTCON_EXPECTS(!samples.empty(), "mean of empty trace");
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

namespace {

bool parse_double(const std::string& cell, double& out) {
  try {
    std::size_t pos = 0;
    out = std::stod(cell, &pos);
    // Allow trailing whitespace only.
    while (pos < cell.size() && std::isspace(static_cast<unsigned char>(cell[pos])))
      ++pos;
    return pos == cell.size();
  } catch (...) {
    return false;
  }
}

}  // namespace

RecordedTrace read_trace_csv(std::istream& in, double default_dt_s) {
  SPRINTCON_EXPECTS(default_dt_s > 0.0, "default dt must be positive");
  RecordedTrace trace;
  trace.dt_s = default_dt_s;

  std::vector<double> times;
  std::string line;
  std::size_t line_no = 0;
  bool two_columns = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::string c0, c1;
    std::getline(row, c0, ',');
    const bool has_second = static_cast<bool>(std::getline(row, c1, ','));

    double v0 = 0.0, v1 = 0.0;
    if (!parse_double(c0, v0) || (has_second && !parse_double(c1, v1))) {
      // Tolerate exactly one non-numeric row as the header.
      if (line_no == 1) continue;
      throw InvalidArgumentError("trace CSV: malformed line " +
                                 std::to_string(line_no) + ": " + line);
    }
    if (trace.samples.empty()) two_columns = has_second;
    if (has_second != two_columns) {
      throw InvalidArgumentError("trace CSV: inconsistent column count at line " +
                                 std::to_string(line_no));
    }
    if (two_columns) {
      times.push_back(v0);
      trace.samples.push_back(v1);
    } else {
      trace.samples.push_back(v0);
    }
  }
  SPRINTCON_EXPECTS(!trace.samples.empty(), "trace CSV contains no samples");

  if (two_columns && times.size() >= 2) {
    const double dt = times[1] - times[0];
    SPRINTCON_EXPECTS(dt > 0.0, "trace time column must be increasing");
    for (std::size_t i = 2; i < times.size(); ++i) {
      if (std::abs((times[i] - times[i - 1]) - dt) > 1e-6 * dt + 1e-9) {
        throw InvalidArgumentError("trace CSV: non-uniform sampling at row " +
                                   std::to_string(i + 1));
      }
    }
    trace.dt_s = dt;
  }
  return trace;
}

RecordedTrace read_trace_csv_file(const std::string& path,
                                  double default_dt_s) {
  std::ifstream in(path);
  if (!in) throw InvalidArgumentError("cannot open trace file: " + path);
  return read_trace_csv(in, default_dt_s);
}

void write_trace_csv(std::ostream& out, const RecordedTrace& trace) {
  out << "time_s,value\n";
  for (std::size_t i = 0; i < trace.samples.size(); ++i) {
    out << static_cast<double>(i) * trace.dt_s << ',' << trace.samples[i]
        << '\n';
  }
}

ReplayUtilization::ReplayUtilization(RecordedTrace trace, double scale,
                                     bool loop, double offset_s)
    : trace_(std::move(trace)), scale_(scale), loop_(loop),
      position_s_(offset_s) {
  SPRINTCON_EXPECTS(!trace_.samples.empty(), "cannot replay an empty trace");
  SPRINTCON_EXPECTS(trace_.dt_s > 0.0, "trace dt must be positive");
  SPRINTCON_EXPECTS(scale > 0.0, "scale must be positive");
  SPRINTCON_EXPECTS(offset_s >= 0.0, "offset must be non-negative");
  // value_at clamps into [0, 1]; finite samples keep the result a number.
  for (const double v : trace_.samples) {
    SPRINTCON_EXPECTS(std::isfinite(v), "trace samples must be finite");
  }
  utilization_ = value_at(position_s_);
}

double ReplayUtilization::value_at(double t_s) const {
  const double duration = trace_.duration_s();
  double t = t_s;
  if (loop_) {
    t = std::fmod(t, duration);
  } else if (t >= duration - trace_.dt_s) {
    return std::clamp(trace_.samples.back() * scale_, 0.0, 1.0);
  }
  const double idx = t / trace_.dt_s;
  const auto i0 = static_cast<std::size_t>(idx);
  const std::size_t i1 = (i0 + 1) % trace_.samples.size();
  const double frac = idx - static_cast<double>(i0);
  const double raw = trace_.samples[std::min(i0, trace_.samples.size() - 1)] *
                         (1.0 - frac) +
                     trace_.samples[i1] * frac;
  return std::clamp(raw * scale_, 0.0, 1.0);
}

double ReplayUtilization::step(double dt_s, double /*freq*/) {
  SPRINTCON_EXPECTS(dt_s > 0.0, "dt must be positive");
  position_s_ += dt_s;
  utilization_ = value_at(position_s_);
  return utilization_;
}

}  // namespace sprintcon::workload
