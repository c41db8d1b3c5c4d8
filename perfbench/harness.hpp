// Building blocks of the wall-clock benchmark (perfbench/main.cpp): unit
// checks against the committed goldens and the hard invariants, the
// outside-driven traced tick, percentile helpers and host context readers.
// Kept apart from main.cpp so perfbench_test can exercise them directly.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "scenario/facility.hpp"
#include "scenario/rig.hpp"
#include "sim/recorder.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// 1-based nearest rank of percentile p (in [0, 100]) among n samples.
std::uint64_t nearest_rank(double p, std::uint64_t n);

/// Nearest-rank percentile (p in [0, 100]) of `samples`; 0 when empty.
double percentile(std::vector<double> samples, double p);

/// A tail percentile and its value.
struct Tail {
  double p = 50.0;
  double value = 0.0;
};

/// The highest percentile of {99.9, 99, 95, 90, 75, 50}, at most `max_p`,
/// that leaves at least ten samples above its nearest rank (the median
/// when even p50 does not), with its value. The fixed ladder and the cap
/// keep the same percentile across runs, and across commits, whose sample
/// counts differ: a faster commit completes more units in the same window
/// and must not be compared at a higher percentile.
Tail tail_percentile(const std::vector<double>& samples, double max_p = 99.9);

/// Work done over one wall-clock interval (a unit, an epoch, a scenario).
struct WorkInterval {
  Clock::time_point begin;
  Clock::time_point end;
  double work = 0.0;
};

/// Throughput as the median over consecutive `slice_s` slices of
/// [start, end) of the work done in each slice, each interval's work spread
/// evenly over its span (a trailing partial slice is dropped). The mean of
/// the slices is total work / total wall time; the median keeps a host
/// stall of a second or two from moving the figure.
double median_slice_rate(const std::vector<WorkInterval>& intervals,
                         Clock::time_point start, Clock::time_point end,
                         double slice_s);

/// Log-bucketed histogram for per-tick section times: millions of samples
/// per run in 32 KB, small enough not to evict the rig being timed from
/// cache. Each octave from 2^-11 us to 2^21 us has 128 buckets (0.8%
/// wide); percentiles interpolate within a bucket. Larger samples are
/// kept verbatim.
class TickHistogram {
 public:
  TickHistogram();

  void record(double us);
  void merge(const TickHistogram& other);

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  /// Nearest-rank percentile.
  double percentile(double p) const;
  /// tail_percentile() over the recorded samples.
  Tail tail() const;

 private:
  double value_at_rank(std::uint64_t rank) const;

  std::vector<std::uint64_t> buckets_;
  std::vector<double> overflow_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

// ---------------------------------------------------------------------------
// Unit checks
// ---------------------------------------------------------------------------

/// FNV-1a over every recorded channel: its name and the bit pattern of
/// every sample (a word at a time), in channel-name order. Equal digests
/// mean bit-identical recordings.
std::uint64_t channel_digest(const sprintcon::sim::TraceRecorder& recorder);

/// Order-sensitive combination of several digests (a facility's racks, a
/// pass over several units).
std::uint64_t combine_digests(const std::vector<std::uint64_t>& digests);

/// Appends one message per violated hard invariant to `failures`, each
/// prefixed with `what`: no NaN/Inf in any channel, SOC in [0, 1],
/// cb_power_w >= 0, unserved_w >= 0, breaker_open => cb_power_w == 0.
/// With `expect_no_trips`, `cb_trips` must also be zero.
void check_invariants(const sprintcon::sim::TraceRecorder& recorder,
                      std::uint64_t cb_trips, bool expect_no_trips,
                      const std::string& what,
                      std::vector<std::string>& failures);

/// Stride-10 channels, as the golden files store them.
using Channels = std::map<std::string, std::vector<double>>;

/// The ten golden channels of one rig, keyed by bare channel name.
Channels rig_golden_channels(const sprintcon::scenario::Rig& rig);

/// The golden channels of a facility: the two aggregate feeds plus every
/// rack-0 channel prefixed "rack0.", as tests/golden/scenarios holds them.
Channels facility_golden_channels(
    const sprintcon::scenario::Facility& facility);

/// Parses a golden JSONL file; throws std::runtime_error when unreadable
/// or malformed.
Channels load_golden(const std::string& path);

/// Appends a message to `failures` for every channel of `golden` missing
/// from `got` or differing from it. `exact` compares bit for bit (the
/// scenario goldens); otherwise each channel tolerates
/// 1e-9 + 0.01 * max|golden|, as the canonical golden test does.
void compare_golden(const Channels& golden, const Channels& got, bool exact,
                    const std::string& what,
                    std::vector<std::string>& failures);

// ---------------------------------------------------------------------------
// Simulated statistics
// ---------------------------------------------------------------------------

/// Simulated (not host) statistics of one or more rigs; identical on
/// every commit whose change is speed-only.
struct SimStats {
  std::uint64_t cb_trips = 0;
  double unserved_wh = 0.0;
  std::uint64_t deadlines_missed = 0;
  double batch_freq_sum = 0.0;  ///< sum over rigs of the mean freq_batch
  std::uint64_t rigs = 0;

  void add(sprintcon::scenario::Rig& rig);
  void add(const SimStats& other);
  double mean_batch_freq() const {
    return rigs == 0 ? 0.0 : batch_freq_sum / static_cast<double>(rigs);
  }
};

// ---------------------------------------------------------------------------
// Outside-driven tick
// ---------------------------------------------------------------------------

/// Per-section wall time of outside-driven ticks.
struct TickSplit {
  TickHistogram rack_us;
  TickHistogram controller_us;
  TickHistogram advance_us;
  TickHistogram record_us;
  double tick_s = 0.0;  ///< wall time of whole ticks, clock reads included
  std::uint64_t ticks = 0;
  /// Part of controller_us.sum() spent in baseline (non-SprintCon)
  /// controllers.
  double baselines_controller_us = 0.0;

  void merge(const TickSplit& other);
};

/// True when Simulation::step_once on this rig does exactly rack step,
/// controller step, clock advance and recorder sample, so tick() below
/// reproduces it: no fault injector and no observability hooks.
bool outside_drivable(sprintcon::scenario::Rig& rig);

/// Drives `rig` from outside until its clock reaches `t_end_s`, one tick
/// at a time mirroring Simulation::step_once: rack step, controller step,
/// clock advance, recorder sample. Each section is timed into `split`.
void drive_until(sprintcon::scenario::Rig& rig, double t_end_s,
                 TickSplit& split);

// ---------------------------------------------------------------------------
// Host context
// ---------------------------------------------------------------------------

/// Aggregate CPU jiffies from the first line of /proc/stat.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTimes read_cpu_times();
/// Steal share of the CPU time that elapsed between two readings.
double steal_share(const CpuTimes& before, const CpuTimes& after);
/// 1-minute load average; -1 when unreadable.
double load_average_1min();
/// VmHWM (peak) or VmRSS (current) of this process in kB; 0 when
/// unreadable.
double peak_rss_kb();
double current_rss_kb();

}  // namespace perfbench
