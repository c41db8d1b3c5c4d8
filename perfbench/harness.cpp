#include "harness.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace sc = sprintcon::scenario;

// ---------------------------------------------------------------------------
// Percentiles

std::uint64_t nearest_rank(double p, std::uint64_t n) {
  // The epsilon keeps 99.9% of 10000 at rank 9990 despite rounding.
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::uint64_t>(rank, 1, std::max<std::uint64_t>(n, 1));
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(nearest_rank(p, samples.size()));
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

namespace {

constexpr double kTailLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
constexpr std::size_t kTailBeyond = 10;

double tail_p_for(std::uint64_t n, double max_p = 99.9) {
  for (const double p : kTailLadder) {
    if (p <= max_p && n - nearest_rank(p, n) >= kTailBeyond) return p;
  }
  return 50.0;
}

}  // namespace

Tail tail_percentile(const std::vector<double>& samples, double max_p) {
  const double p = tail_p_for(samples.size(), max_p);
  return {p, percentile(samples, p)};
}

double median_slice_rate(const std::vector<WorkInterval>& intervals,
                         Clock::time_point start, Clock::time_point end,
                         double slice_s) {
  const auto slices =
      static_cast<std::size_t>(seconds_between(start, end) / slice_s);
  if (slices == 0) {
    throw std::invalid_argument("window shorter than one throughput slice");
  }
  std::vector<double> work(slices, 0.0);
  for (const WorkInterval& w : intervals) {
    const double b = seconds_between(start, w.begin);
    const double e = seconds_between(start, w.end);
    if (e <= b) continue;
    const double rate = w.work / (e - b);
    const auto first = static_cast<std::size_t>(std::max(0.0, b) / slice_s);
    for (std::size_t i = first; i < slices; ++i) {
      const double lo = std::max(b, static_cast<double>(i) * slice_s);
      const double hi = std::min(e, static_cast<double>(i + 1) * slice_s);
      if (hi <= lo) break;
      work[i] += rate * (hi - lo);
    }
  }
  for (double& w : work) w /= slice_s;
  return percentile(work, 50.0);
}

namespace {

constexpr int kMinExp = -10;  // frexp exponent: [2^-11, 2^-10) us
constexpr int kMaxExp = 21;
constexpr int kSubBuckets = 128;

}  // namespace

TickHistogram::TickHistogram()
    : buckets_(static_cast<std::size_t>((kMaxExp - kMinExp + 1) * kSubBuckets),
               0) {}

void TickHistogram::record(double us) {
  ++count_;
  sum_ += us;
  int exp = 0;
  const double mantissa = std::frexp(us, &exp);  // us = mantissa * 2^exp
  if (exp > kMaxExp) {
    overflow_.push_back(us);
    return;
  }
  std::size_t index = 0;
  if (us > 0.0 && exp >= kMinExp) {
    const auto sub = static_cast<int>((mantissa - 0.5) * 2.0 * kSubBuckets);
    index = static_cast<std::size_t>((exp - kMinExp) * kSubBuckets + sub);
  }
  ++buckets_[index];
}

void TickHistogram::merge(const TickHistogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  overflow_.insert(overflow_.end(), other.overflow_.begin(),
                   other.overflow_.end());
  count_ += other.count_;
  sum_ += other.sum_;
}

double TickHistogram::value_at_rank(std::uint64_t rank) const {
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (seen + buckets_[i] >= rank) {
      const int exp = kMinExp + static_cast<int>(i) / kSubBuckets;
      const int sub = static_cast<int>(i) % kSubBuckets;
      const double width = std::ldexp(1.0, exp) / (2.0 * kSubBuckets);
      const double lower = std::ldexp(0.5, exp) + sub * width;
      const double within = (static_cast<double>(rank - seen) - 0.5) /
                            static_cast<double>(buckets_[i]);
      return lower + within * width;
    }
    seen += buckets_[i];
  }
  std::vector<double> rest = overflow_;
  std::sort(rest.begin(), rest.end());
  return rest.at(static_cast<std::size_t>(rank - seen - 1));
}

double TickHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  return value_at_rank(nearest_rank(p, count_));
}

Tail TickHistogram::tail() const {
  const double p = tail_p_for(count_);
  return {p, percentile(p)};
}

// ---------------------------------------------------------------------------
// Unit checks

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
}

// Word-at-a-time FNV-1a: the samples are hashed on every checked unit, so
// this keeps the check a small fraction of a unit's wall time.
void fnv_word(std::uint64_t& h, std::uint64_t word) {
  h ^= word;
  h *= kFnvPrime;
}

}  // namespace

std::uint64_t channel_digest(const sprintcon::sim::TraceRecorder& recorder) {
  std::vector<std::string> names = recorder.channel_names();
  std::sort(names.begin(), names.end());
  std::uint64_t h = kFnvOffset;
  for (const std::string& name : names) {
    fnv_bytes(h, name.data(), name.size());
    for (const double v : recorder.series(name).values()) {
      fnv_word(h, std::bit_cast<std::uint64_t>(v));
    }
  }
  return h;
}

std::uint64_t combine_digests(const std::vector<std::uint64_t>& digests) {
  std::uint64_t h = kFnvOffset;
  for (const std::uint64_t d : digests) fnv_word(h, d);
  return h;
}

void check_invariants(const sprintcon::sim::TraceRecorder& recorder,
                      std::uint64_t cb_trips, bool expect_no_trips,
                      const std::string& what,
                      std::vector<std::string>& failures) {
  const auto fail = [&](const std::string& msg) {
    failures.push_back(what + ": " + msg);
  };
  for (const sprintcon::TimeSeries* s : recorder.all_series()) {
    const auto& v = s->values();
    const auto bad = std::find_if(v.begin(), v.end(),
                                  [](double x) { return !std::isfinite(x); });
    if (bad != v.end()) {
      fail("non-finite value in " + s->name() + " at sample " +
           std::to_string(bad - v.begin()));
    }
  }
  for (const char* soc_name : {"battery_soc", "battery_component_soc"}) {
    if (!recorder.has(soc_name)) continue;
    for (const double soc : recorder.series(soc_name).values()) {
      if (soc < -1e-12 || soc > 1.0 + 1e-12) {
        fail(std::string(soc_name) + " outside [0, 1]: " +
             std::to_string(soc));
        break;
      }
    }
  }
  const auto& cb = recorder.series("cb_power_w").values();
  const auto& unserved = recorder.series("unserved_w").values();
  const auto& open = recorder.series("breaker_open").values();
  if (cb.size() != open.size() || cb.size() != unserved.size()) {
    fail("channel lengths differ");
    return;
  }
  for (std::size_t i = 0; i < cb.size(); ++i) {
    if (cb[i] < 0.0) {
      fail("negative cb_power_w at sample " + std::to_string(i));
      break;
    }
    if (unserved[i] < 0.0) {
      fail("negative unserved_w at sample " + std::to_string(i));
      break;
    }
    if (open[i] != 0.0 && cb[i] != 0.0) {
      fail("open breaker carries power at sample " + std::to_string(i));
      break;
    }
  }
  if (expect_no_trips && cb_trips != 0) {
    fail(std::to_string(cb_trips) + " breaker trip(s) in a fault-free "
         "SprintCon run");
  }
}

namespace {

constexpr std::size_t kGoldenStride = 10;

constexpr const char* kGoldenChannels[] = {
    "total_power_w", "cb_power_w",       "ups_power_w", "cb_budget_w",
    "unserved_w",    "freq_interactive", "freq_batch",  "battery_soc",
    "cb_thermal_stress", "breaker_open",
};

std::vector<double> downsample(const std::vector<double>& full) {
  std::vector<double> out;
  out.reserve(full.size() / kGoldenStride + 1);
  for (std::size_t i = 0; i < full.size(); i += kGoldenStride) {
    out.push_back(full[i]);
  }
  return out;
}

}  // namespace

Channels rig_golden_channels(const sc::Rig& rig) {
  Channels out;
  for (const char* name : kGoldenChannels) {
    out[name] = downsample(rig.recorder().series(name).values());
  }
  return out;
}

Channels facility_golden_channels(const sc::Facility& facility) {
  Channels out;
  out["facility.cb_power_w"] =
      downsample(facility.facility_cb_power().values());
  out["facility.total_power_w"] =
      downsample(facility.facility_total_power().values());
  for (const auto& [name, values] : rig_golden_channels(facility.rig(0))) {
    out["rack0." + name] = values;
  }
  return out;
}

Channels load_golden(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read golden " + path);
  Channels out;
  const std::string tag = "{\"channel\":\"";
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t name_end = line.find('"', tag.size());
    const std::size_t open = line.find('[', name_end);
    const std::size_t close = line.rfind(']');
    if (line.rfind(tag, 0) != 0 || name_end == std::string::npos ||
        open == std::string::npos || close == std::string::npos ||
        close < open) {
      throw std::runtime_error("malformed golden line in " + path);
    }
    std::vector<double>& values =
        out[line.substr(tag.size(), name_end - tag.size())];
    std::istringstream body(line.substr(open + 1, close - open - 1));
    std::string token;
    while (std::getline(body, token, ',')) {
      char* end = nullptr;
      values.push_back(std::strtod(token.c_str(), &end));
      if (end != token.c_str() + token.size()) {
        throw std::runtime_error("malformed golden value in " + path);
      }
    }
  }
  if (out.empty()) throw std::runtime_error("empty golden " + path);
  return out;
}

void compare_golden(const Channels& golden, const Channels& got, bool exact,
                    const std::string& what,
                    std::vector<std::string>& failures) {
  for (const auto& [name, want] : golden) {
    const auto it = got.find(name);
    if (it == got.end()) {
      failures.push_back(what + ": golden channel " + name + " not recorded");
      continue;
    }
    const std::vector<double>& have = it->second;
    if (have.size() != want.size()) {
      failures.push_back(what + ": channel " + name + " has " +
                         std::to_string(have.size()) + " samples, golden " +
                         std::to_string(want.size()));
      continue;
    }
    double max_abs = 0.0;
    for (const double v : want) max_abs = std::max(max_abs, std::abs(v));
    const double atol = exact ? 0.0 : 1e-9 + 0.01 * max_abs;
    for (std::size_t i = 0; i < want.size(); ++i) {
      const bool same = exact ? have[i] == want[i]
                              : std::abs(have[i] - want[i]) <= atol;
      if (!same) {
        char buf[160];
        std::snprintf(buf, sizeof buf, "%.17g vs golden %.17g", have[i],
                      want[i]);
        failures.push_back(what + ": channel " + name +
                           " diverges from the golden at sample " +
                           std::to_string(i) + ": " + buf);
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Simulated statistics

void SimStats::add(sc::Rig& rig) {
  const sprintcon::metrics::RunSummary s = rig.summary();
  cb_trips += static_cast<std::uint64_t>(s.cb_trips);
  unserved_wh += s.unserved_energy_wh;
  const auto& rack = rig.rack();
  for (const auto& ref : rack.batch_cores()) {
    const sprintcon::workload::BatchJob& job = *rack.core(ref).job();
    const double done = job.completion_time_s();
    if (done < 0.0 || done > job.deadline_s()) ++deadlines_missed;
  }
  batch_freq_sum += s.avg_freq_batch;
  ++rigs;
}

void SimStats::add(const SimStats& other) {
  cb_trips += other.cb_trips;
  unserved_wh += other.unserved_wh;
  deadlines_missed += other.deadlines_missed;
  batch_freq_sum += other.batch_freq_sum;
  rigs += other.rigs;
}

// ---------------------------------------------------------------------------
// Outside-driven tick

void TickSplit::merge(const TickSplit& other) {
  rack_us.merge(other.rack_us);
  controller_us.merge(other.controller_us);
  advance_us.merge(other.advance_us);
  record_us.merge(other.record_us);
  tick_s += other.tick_s;
  ticks += other.ticks;
  baselines_controller_us += other.baselines_controller_us;
}

namespace {

/// The component stepped after the rack: the rig's active controller.
sprintcon::sim::Component& active_controller(sc::Rig& rig) {
  if (rig.sprintcon() != nullptr) return *rig.sprintcon();
  if (rig.sgct() != nullptr) return *rig.sgct();
  if (rig.power_cap() != nullptr) return *rig.power_cap();
  throw std::logic_error("rig has no controller");
}

void tick(sc::Rig& rig, sprintcon::sim::Component& controller,
          TickSplit& split) {
  sprintcon::sim::Simulation& sim = rig.simulation();
  const auto us = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
  };
  const auto t0 = Clock::now();
  rig.rack().step(sim.clock());
  const auto t1 = Clock::now();
  controller.step(sim.clock());
  const auto t2 = Clock::now();
  sim.clock().advance();
  const auto t3 = Clock::now();
  sim.recorder().sample();
  const auto t4 = Clock::now();
  split.rack_us.record(us(t0, t1));
  split.controller_us.record(us(t1, t2));
  split.advance_us.record(us(t2, t3));
  split.record_us.record(us(t3, t4));
  ++split.ticks;
}

}  // namespace

bool outside_drivable(sc::Rig& rig) {
  return rig.fault_injector() == nullptr && rig.obs() == nullptr;
}

void drive_until(sc::Rig& rig, double t_end_s, TickSplit& split) {
  sprintcon::sim::Component& controller = active_controller(rig);
  const sprintcon::sim::SimClock& clock = rig.simulation().clock();
  const double controller_before = split.controller_us.sum();
  const auto start = Clock::now();
  while (clock.now_s() < t_end_s) tick(rig, controller, split);
  split.tick_s += seconds_between(start, Clock::now());
  if (rig.sprintcon() == nullptr) {
    split.baselines_controller_us +=
        split.controller_us.sum() - controller_before;
  }
}

// ---------------------------------------------------------------------------
// Host context

CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTimes out;
  if (cpu != "cpu") return out;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user/nice).
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    out.total += v;
    if (field == 7) out.steal = v;
  }
  return out;
}

double steal_share(const CpuTimes& before, const CpuTimes& after) {
  const std::uint64_t total = after.total - before.total;
  return total == 0 ? 0.0
                    : static_cast<double>(after.steal - before.steal) /
                          static_cast<double>(total);
}

double load_average_1min() {
  std::ifstream in("/proc/loadavg");
  double load = -1.0;
  if (!(in >> load)) return -1.0;
  return load;
}

namespace {

double status_kb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtod(line.c_str() + key.size(), nullptr);
    }
  }
  return 0.0;
}

}  // namespace

double peak_rss_kb() { return status_kb("VmHWM:"); }
double current_rss_kb() { return status_kb("VmRSS:"); }

}  // namespace perfbench
