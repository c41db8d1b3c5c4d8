// perfbench: host wall-clock benchmark of the sprintcon libraries.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--root DIR] [--commit SHA]
//
// Workloads (perfbench/README.md says why each exists):
//   rig-canonical     nproc threads of back-to-back canonical SprintCon rigs
//   rig-baselines     the same with PowerCap / SGCT / SGCT-V1 / SGCT-V2
//   fleet             1,000 staggered canonical racks on nproc shards
//   scenario-library  nproc streams replaying examples/scenarios/*.scn
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload's
// inputs with the outside-driven, per-section timed tick (and, for
// facilities, observed runs) and prints the per-layer metrics. Every unit is checked (goldens, determinism, hard invariants);
// each failure is printed and counted. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>

#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "scenario/loader.hpp"

namespace {

namespace pb = perfbench;
using pb::Clock;
using sprintcon::scenario::Facility;
using sprintcon::scenario::FacilityConfig;
using sprintcon::scenario::Policy;
using sprintcon::scenario::Rig;
using sprintcon::scenario::RigConfig;

/// Tail percentile caps per workload, fixed so the reported percentile
/// does not move with throughput: 4,000-6,000 rig units per run (p99
/// flips between host phases there; p90 holds), 90-150 fleet epochs and
/// 150-250 scenario passes.
constexpr double kRigTailCap = 90.0;
constexpr double kFleetTailCap = 75.0;
constexpr double kScenarioTailCap = 90.0;
/// rack_ticks_per_s is the median over slices this long (harness.hpp).
constexpr double kSliceS = 1.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string root = ".";
  std::string commit = "unknown";
};

/// nproc: the load every workload keeps on the host.
std::size_t host_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

double median(const std::vector<double>& v) { return pb::percentile(v, 50.0); }

// ---------------------------------------------------------------------------
// Shared bookkeeping

/// Counts checked units; prints every failure message (the first 100).
class UnitLog {
 public:
  void record(const std::vector<std::string>& failures) {
    const std::lock_guard lock(mu_);
    ++attempted_;
    if (failures.empty()) return;
    ++failed_;
    for (const std::string& f : failures) {
      if (printed_++ < 100) std::printf("FAIL %s\n", f.c_str());
    }
  }
  std::uint64_t attempted() const {
    const std::lock_guard lock(mu_);
    return attempted_;
  }
  std::uint64_t failed() const {
    const std::lock_guard lock(mu_);
    return failed_;
  }

 private:
  mutable std::mutex mu_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t printed_ = 0;
};

/// First channel digest and simulated statistics of every distinct input;
/// each later unit with the same input must reproduce the digest.
class References {
 public:
  /// Returns true when `key` is new (the caller then supplies its stats).
  bool check(const std::string& key, std::uint64_t digest,
             std::vector<std::string>& failures) {
    const std::lock_guard lock(mu_);
    const auto [it, inserted] = digests_.emplace(key, digest);
    if (!inserted && it->second != digest) {
      failures.push_back(key + ": channel digest differs from the first "
                               "run of the same inputs");
    }
    return inserted;
  }
  void set_stats(const std::string& key, const pb::SimStats& stats) {
    const std::lock_guard lock(mu_);
    stats_[key] = stats;
  }
  /// Digest and stats over every input, in key order: one pass.
  void print_pass() const {
    const std::lock_guard lock(mu_);
    std::vector<std::uint64_t> digests;
    pb::SimStats total;
    for (const auto& [key, digest] : digests_) {
      digests.push_back(digest);
      const auto it = stats_.find(key);
      if (it != stats_.end()) total.add(it->second);
    }
    std::printf(
        "sim_digest=%016llx inputs=%zu rigs=%llu cb_trips=%llu "
        "unserved_wh=%.17g deadlines_missed=%llu mean_batch_freq=%.17g\n",
        static_cast<unsigned long long>(pb::combine_digests(digests)),
        digests.size(), static_cast<unsigned long long>(total.rigs),
        static_cast<unsigned long long>(total.cb_trips), total.unserved_wh,
        static_cast<unsigned long long>(total.deadlines_missed),
        total.mean_batch_freq());
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t> digests_;
  std::map<std::string, pb::SimStats> stats_;
};

struct Shared {
  UnitLog log;
  References refs;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Runs fn(w) on n threads and joins them; rethrows the first exception.
void parallel(std::size_t n, const std::function<void(std::size_t)>& fn) {
  std::vector<std::exception_ptr> errors(n);
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t w = 0; w < n; ++w) {
    threads.emplace_back([&, w] {
      try {
        fn(w);
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// Host context of the timed window: what a slow host phase looks like.
struct Window {
  Clock::time_point start = Clock::now();
  pb::CpuTimes cpu = pb::read_cpu_times();
  double load_1min = pb::load_average_1min();

  Clock::time_point deadline(const Options& opt) const {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(opt.seconds));
  }

  void print(const Options& opt, double wall_s) const {
    const pb::CpuTimes end = pb::read_cpu_times();
    std::printf(
        "context workload=%s seed=%llu trace=%d nproc=%zu build=%s "
        "commit=%s load1=%.2f steal_share=%.4f window_s=%.3f\n",
        opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
        opt.trace ? 1 : 0, host_threads(), PERFBENCH_BUILD_TYPE,
        opt.commit.c_str(), load_1min, pb::steal_share(cpu, end), wall_s);
  }
};

void print_samples(const char* what, const std::vector<double>& v,
                   const char* unit, double tail_cap = 99.9) {
  std::printf("%s [%s]: n=%zu p50=%.6g p90=%.6g p95=%.6g p99=%.6g max=%.6g "
              "tail=p%g\n",
              what, unit, v.size(), median(v), pb::percentile(v, 90.0),
              pb::percentile(v, 95.0), pb::percentile(v, 99.0),
              pb::percentile(v, 100.0), pb::tail_percentile(v, tail_cap).p);
}

// ---------------------------------------------------------------------------
// Facility checks (fleet, scenario-library)

bool fault_free_sprintcon(const FacilityConfig& cfg) {
  return cfg.rack.faults.empty() && cfg.rack.policy == Policy::kSprintCon;
}

std::uint64_t facility_ticks(const Facility& f) {
  std::uint64_t ticks = 0;
  for (std::size_t r = 0; r < f.num_racks(); ++r) {
    ticks += f.rig(r).recorder().series("cb_power_w").size();
  }
  return ticks;
}

/// Checks every rack's invariants, the facility goldens (exact) when given,
/// and that the facility reproduces the first digest of `what`.
void check_facility(Facility& f, const std::string& what, bool no_trips,
                    const pb::Channels* golden, Shared& sh) {
  std::vector<std::string> failures;
  std::vector<std::uint64_t> digests;
  digests.reserve(f.num_racks());
  for (std::size_t r = 0; r < f.num_racks(); ++r) {
    Rig& rig = f.rig(r);
    pb::check_invariants(
        rig.recorder(),
        static_cast<std::uint64_t>(rig.power_path().breaker().trip_count()),
        no_trips, what + "/rack" + std::to_string(r), failures);
    digests.push_back(pb::channel_digest(rig.recorder()));
  }
  if (golden != nullptr) {
    pb::compare_golden(*golden, pb::facility_golden_channels(f), true, what,
                       failures);
  }
  if (sh.refs.check(what, pb::combine_digests(digests), failures)) {
    pb::SimStats stats;
    for (std::size_t r = 0; r < f.num_racks(); ++r) stats.add(f.rig(r));
    sh.refs.set_stats(what, stats);
  }
  sh.log.record(failures);
}

// ---------------------------------------------------------------------------
// Rig workloads

struct RigKey {
  Policy policy;
  std::uint64_t seed;

  std::string name() const {
    return std::string(sprintcon::scenario::to_string(policy)) + "/seed" +
           std::to_string(seed);
  }
  RigConfig config() const {
    RigConfig c;
    c.policy = policy;
    c.seed = seed;
    c.validate();
    return c;
  }
};

/// Eight inputs, seeds 42-49; rig-baselines rotates its policies over them.
std::vector<RigKey> rig_keys(bool baselines) {
  constexpr Policy kRotation[] = {Policy::kPowerCap, Policy::kSgct,
                                  Policy::kSgctV1, Policy::kSgctV2};
  std::vector<RigKey> keys;
  for (std::uint64_t k = 0; k < 8; ++k) {
    keys.push_back({baselines ? kRotation[k % 4] : Policy::kSprintCon, 42 + k});
  }
  return keys;
}

struct RigUnit {
  pb::WorkInterval interval;  ///< construct -> run -> summary; rack-ticks
  double setup_s = 0.0;
  double run_s = 0.0;
  double summary_s = 0.0;
  bool traced = false;

  double unit_s() const {
    return pb::seconds_between(interval.begin, interval.end);
  }
};

struct RigShared : Shared {
  std::vector<RigKey> keys;
  std::unique_ptr<pb::Channels> golden;  ///< canonical seed-42 SprintCon rig
};

void check_rig(Rig& rig, const RigKey& key, int cb_trips, RigShared& sh) {
  std::vector<std::string> failures;
  const std::string what = key.name();
  pb::check_invariants(rig.recorder(), static_cast<std::uint64_t>(cb_trips),
                       key.policy == Policy::kSprintCon, what, failures);
  if (sh.golden && key.policy == Policy::kSprintCon && key.seed == 42) {
    pb::compare_golden(*sh.golden, pb::rig_golden_channels(rig), false, what,
                       failures);
  }
  if (sh.refs.check(what, pb::channel_digest(rig.recorder()), failures)) {
    pb::SimStats stats;
    stats.add(rig);
    sh.refs.set_stats(what, stats);
  }
  sh.log.record(failures);
}

/// One unit: construct -> run -> summary, then the checks. With a split,
/// the run is the outside-driven tick loop and the digest must still equal
/// that of Rig::run() on the same input.
RigUnit run_rig_unit(const RigKey& key, RigShared& sh, pb::TickSplit* split) {
  const RigConfig cfg = key.config();
  const auto t0 = Clock::now();
  Rig rig(cfg);
  const auto t1 = Clock::now();
  if (split != nullptr) {
    pb::drive_until(rig, cfg.duration_s, *split);
  } else {
    rig.run();
  }
  const auto t2 = Clock::now();
  const sprintcon::metrics::RunSummary summary = rig.summary();
  const auto t3 = Clock::now();
  check_rig(rig, key, summary.cb_trips, sh);
  const auto ticks =
      static_cast<double>(rig.recorder().series("cb_power_w").size());
  return {{t0, t3, ticks},
          pb::seconds_between(t0, t1),
          pb::seconds_between(t1, t2),
          pb::seconds_between(t2, t3),
          split != nullptr};
}

// ---------------------------------------------------------------------------
// Per-layer metrics (--trace 1), one definition for every workload

/// What a traced run gathers; layer_metrics() turns it into the per-layer
/// metrics. Every workload fills every field, so every metric is measured
/// on every workload (a count or share may be zero where its layer is not
/// exercised, such as baselines.tick_share outside rig-baselines).
struct LayerInputs {
  pb::TickSplit split;               ///< outside-driven ticks
  std::vector<double> config_us;     ///< run description: build + validate
  std::vector<double> ctor_us;       ///< per rack
  std::vector<double> rack_run_ms;   ///< one rack's whole outside-driven run
  std::vector<double> summary_us;    ///< per rack
  std::vector<double> report_us;     ///< per rack
  std::vector<double> rss_kb;        ///< per rack
  double busy_s = 0.0;               ///< rack run time summed over workers
  double capacity_s = 0.0;           ///< workers x wall time
  double traced_s = 0.0;             ///< traced units' wall time
  double plain_s = 0.0;              ///< the same units untraced
  std::uint64_t passes = 0;          ///< observed passes over the inputs
  std::vector<sprintcon::obs::MetricsSnapshot> observed;  ///< per rack
};

std::vector<Metric> layer_metrics(const LayerInputs& in) {
  const pb::TickSplit& s = in.split;
  const double tick_us = s.tick_s * 1e6;
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto share = [&](double us) { return ratio(us, tick_us); };
  double solves = 0, iterations = 0, not_converged = 0, mpc_us = 0,
         obs_tick_us = 0, faults = 0, degraded = 0, actions = 0;
  for (const sprintcon::obs::MetricsSnapshot& m : in.observed) {
    solves += static_cast<double>(m.counter("mpc.solves.structured") +
                                  m.counter("mpc.solves.dense"));
    iterations += static_cast<double>(m.counter("mpc.qp.iterations"));
    not_converged += static_cast<double>(m.counter("mpc.qp.not_converged"));
    faults += static_cast<double>(m.counter("fault.activations"));
    degraded += static_cast<double>(m.counter("health.degraded"));
    actions += static_cast<double>(m.counter("recovery.actions"));
    const auto hist_sum = [&](const char* name) {
      const auto it = m.histograms.find(name);
      return it == m.histograms.end() ? 0.0 : it->second.sum;
    };
    mpc_us += hist_sum("mpc.step_us");
    obs_tick_us += hist_sum("sim.tick_us");
  }
  const auto passes =
      static_cast<double>(std::max<std::uint64_t>(1, in.passes));
  const double core_us = s.controller_us.sum() - s.baselines_controller_us;
  return {
      {"server.rack_step_us_p50", s.rack_us.percentile(50.0), "us"},
      {"server.rack_step_us_tail", s.rack_us.tail().value, "us"},
      {"server.tick_share", share(s.rack_us.sum()), "ratio"},
      {"controller.step_us_p50", s.controller_us.percentile(50.0), "us"},
      {"controller.step_us_tail", s.controller_us.tail().value, "us"},
      {"core.tick_share", share(core_us), "ratio"},
      {"baselines.tick_share", share(s.baselines_controller_us), "ratio"},
      {"sim.record_us_p50", s.record_us.percentile(50.0), "us"},
      {"sim.tick_share", share(s.advance_us.sum() + s.record_us.sum()),
       "ratio"},
      {"control.mpc_share", ratio(mpc_us, obs_tick_us), "ratio"},
      {"control.qp_iterations_per_solve", ratio(iterations, solves), "count"},
      {"control.qp_not_converged_per_solve", ratio(not_converged, solves),
       "count"},
      {"scenario.config_us", median(in.config_us), "us"},
      {"scenario.ctor_us_per_rack", median(in.ctor_us), "us"},
      {"scenario.rack_run_ms_p50", median(in.rack_run_ms), "ms"},
      {"scenario.rack_run_ms_max", pb::percentile(in.rack_run_ms, 100.0), "ms"},
      {"scenario.shard_busy_ratio", ratio(in.busy_s, in.capacity_s), "ratio"},
      {"metrics.summary_us_per_rack", median(in.summary_us), "us"},
      {"obs.report_us_per_rack", median(in.report_us), "us"},
      {"server.rss_kb_per_rack", median(in.rss_kb), "kB"},
      {"fault.activations", faults / passes, "count"},
      {"health.degraded", degraded / passes, "count"},
      {"recovery.actions", actions / passes, "count"},
      {"trace.overhead_ratio", ratio(in.traced_s, in.plain_s) - 1.0, "ratio"},
  };
}

void print_split(const pb::TickSplit& s) {
  const double tick_us = s.tick_s * 1e6;
  const double parts = s.rack_us.sum() + s.controller_us.sum() +
                       s.advance_us.sum() + s.record_us.sum();
  std::printf(
      "traced ticks=%llu tick_us_mean=%.4g sections_share_of_tick=%.4f\n",
      static_cast<unsigned long long>(s.ticks),
      s.ticks > 0 ? tick_us / static_cast<double>(s.ticks) : 0.0,
      tick_us > 0.0 ? parts / tick_us : 0.0);
}

// ---------------------------------------------------------------------------
// Rig workloads

std::vector<Metric> rig_workload(const Options& opt, bool baselines,
                                 RigShared& sh) {
  sh.keys = rig_keys(baselines);
  if (!baselines) {
    sh.golden = std::make_unique<pb::Channels>(
        pb::load_golden(opt.root + "/tests/golden/canonical_trace.jsonl"));
  }
  const std::size_t n = host_threads();
  const std::size_t k = sh.keys.size();

  // Warm-up: every input once, spread over the threads, so every reference
  // digest exists before timing starts.
  parallel(n, [&](std::size_t w) {
    for (std::size_t i = w; i < k; i += n) {
      run_rig_unit(sh.keys[i], sh, nullptr);
    }
  });

  // Closed loop: each thread starts its next rig when the last one ends,
  // cycling the inputs from a seed-chosen phase. Traced runs alternate
  // whole untraced and traced cycles, so both see every input and the same
  // host phases.
  std::vector<std::vector<RigUnit>> units(n);
  std::vector<Clock::time_point> ends(n);
  std::vector<pb::TickSplit> splits(n);
  const Window window;
  const Clock::time_point deadline = window.deadline(opt);
  parallel(n, [&](std::size_t w) {
    std::size_t pos = static_cast<std::size_t>(opt.seed % k) + w * k / n;
    for (std::size_t j = 0; Clock::now() < deadline; ++j, ++pos) {
      const bool traced = opt.trace && (j / k) % 2 == 1;
      units[w].push_back(
          run_rig_unit(sh.keys[pos % k], sh, traced ? &splits[w] : nullptr));
    }
    ends[w] = Clock::now();
  });
  const Clock::time_point end = *std::max_element(ends.begin(), ends.end());
  const double wall_s = pb::seconds_between(window.start, end);
  window.print(opt, wall_s);

  LayerInputs layers;
  std::vector<double> plain_ms, traced_ms, setup_s;
  std::vector<pb::WorkInterval> work;
  double ticks = 0.0;
  for (const auto& thread_units : units) {
    for (const RigUnit& u : thread_units) {
      work.push_back(u.interval);
      (u.traced ? traced_ms : plain_ms).push_back(u.unit_s() * 1e3);
      if (u.traced) layers.rack_run_ms.push_back(u.run_s * 1e3);
      setup_s.push_back(u.setup_s);
      layers.ctor_us.push_back(u.setup_s * 1e6);
      layers.summary_us.push_back(u.summary_s * 1e6);
      ticks += u.interval.work;
      layers.busy_s += u.unit_s();
    }
  }
  std::printf("rack_ticks_total_per_s=%.6g\n", ticks / wall_s);
  print_samples("unit_wall_ms", plain_ms, "ms", kRigTailCap);
  print_samples("setup_s", setup_s, "s");

  if (!opt.trace) {
    sh.refs.print_pass();
    return {
        {"rack_ticks_per_s",
         pb::median_slice_rate(work, window.start, end, kSliceS), "1/s"},
        {"unit_wall_ms_p50", median(plain_ms), "ms"},
        {"unit_wall_ms_tail",
         pb::tail_percentile(plain_ms, kRigTailCap).value, "ms"},
        {"peak_rss_mb", pb::peak_rss_kb() / 1024.0, "MB"},
        {"setup_s", median(setup_s), "s"},
    };
  }
  print_samples("traced_unit_wall_ms", traced_ms, "ms", kRigTailCap);
  layers.capacity_s = static_cast<double>(n) * wall_s;
  layers.traced_s = median(traced_ms);
  layers.plain_s = median(plain_ms);
  for (const pb::TickSplit& s : splits) layers.split.merge(s);

  // The rig's run description: building and validating its RigConfig,
  // timed 1,000 at a time (one takes about as long as a clock read).
  for (int batch = 0; batch < 9; ++batch) {
    double seed_sum = 0.0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < 1000; ++i) {
      seed_sum += static_cast<double>(sh.keys[i % k].config().seed);
    }
    layers.config_us.push_back(pb::seconds_between(t0, Clock::now()) * 1e3);
    if (seed_sum <= 0.0) throw std::logic_error("bad rig configs");
  }

  // One observed pass: MPC counters and report cost. Observability must
  // not change the recording, so the same references apply.
  layers.observed.resize(k);
  layers.report_us.resize(k);
  layers.passes = 1;
  parallel(n, [&](std::size_t w) {
    for (std::size_t i = w; i < k; i += n) {
      RigConfig cfg = sh.keys[i].config();
      cfg.observability = true;
      Rig rig(cfg);
      rig.run();
      const auto t0 = Clock::now();
      sprintcon::obs::RunReport report = rig.report();
      layers.report_us[i] = pb::seconds_between(t0, Clock::now()) * 1e6;
      layers.observed[i] = std::move(report.metrics);
      check_rig(rig, sh.keys[i], report.summary.cb_trips, sh);
    }
  });

  // Footprint: 16 run rigs per thread held alive at once, measured from
  // memory returned to the OS.
  const std::size_t held = 16 * n;
  std::vector<std::unique_ptr<Rig>> rigs(held);
  malloc_trim(0);
  const double rss0 = pb::current_rss_kb();
  parallel(n, [&](std::size_t w) {
    for (std::size_t i = w; i < held; i += n) {
      rigs[i] = std::make_unique<Rig>(sh.keys[i % k].config());
      rigs[i]->run();
    }
  });
  layers.rss_kb.push_back((pb::current_rss_kb() - rss0) /
                          static_cast<double>(held));
  for (std::size_t i = 0; i < held; ++i) {
    check_rig(*rigs[i], sh.keys[i % k],
              rigs[i]->power_path().breaker().trip_count(), sh);
  }
  rigs.clear();

  sh.refs.print_pass();
  print_split(layers.split);
  return layer_metrics(layers);
}

// ---------------------------------------------------------------------------
// Facility workloads

/// Drives every rack of `f` from outside on min(n, racks) threads, shard by
/// shard and epoch by epoch as Facility::run does. Adds each rack's whole
/// run time to `rack_run_ms`.
void drive_facility(Facility& f, const FacilityConfig& cfg, std::size_t n,
                    LayerInputs& layers) {
  const std::size_t racks = f.num_racks();
  const std::size_t workers = std::min(n, racks);
  const double duration = cfg.rack.duration_s;
  const auto epochs = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(duration / cfg.epoch_s)));
  std::vector<pb::TickSplit> splits(workers);
  std::vector<double> run_s(racks, 0.0);
  std::barrier sync(static_cast<std::ptrdiff_t>(workers));
  parallel(workers, [&](std::size_t w) {
    const std::size_t first = w * racks / workers;
    const std::size_t last = (w + 1) * racks / workers;
    for (std::size_t e = 0; e < epochs; ++e) {
      const double t_end =
          std::min(cfg.epoch_s * static_cast<double>(e + 1), duration);
      try {
        for (std::size_t r = first; r < last; ++r) {
          const auto t0 = Clock::now();
          pb::drive_until(f.rig(r), t_end, splits[w]);
          run_s[r] += pb::seconds_between(t0, Clock::now());
        }
      } catch (...) {
        sync.arrive_and_drop();  // the other workers must not wait for us
        throw;
      }
      sync.arrive_and_wait();
    }
  });
  for (const pb::TickSplit& s : splits) layers.split.merge(s);
  for (const double s : run_s) layers.rack_run_ms.push_back(s * 1e3);
}

/// One traced pass over one facility input: a plain run (reference digest,
/// goldens, aggregation cost, footprint), an observed run (shard busy
/// time, MPC and fault/health/recovery counters, report cost) and, when
/// every rack can be driven from outside, the per-section timed run.
/// Returns the plain run's wall time in seconds.
double trace_facility(const std::string& what,
                      const std::function<FacilityConfig()>& describe,
                      const pb::Channels* golden, std::size_t n, Shared& sh,
                      LayerInputs& layers) {
  auto t0 = Clock::now();
  const FacilityConfig cfg = describe();
  layers.config_us.push_back(pb::seconds_between(t0, Clock::now()) * 1e6);
  const bool no_trips = fault_free_sprintcon(cfg);
  const auto per_rack_us = [&](Clock::time_point since) {
    return pb::seconds_between(since, Clock::now()) * 1e6 /
           static_cast<double>(cfg.num_racks);
  };

  double plain_s = 0.0;
  bool drivable = true;
  {
    // Footprint: returning free memory to the OS first makes the RSS
    // growth the facility's own.
    malloc_trim(0);
    const double rss0 = pb::current_rss_kb();
    t0 = Clock::now();
    Facility plain(cfg);
    layers.ctor_us.push_back(per_rack_us(t0));
    t0 = Clock::now();
    plain.run();
    plain_s = pb::seconds_between(t0, Clock::now());
    layers.rss_kb.push_back((pb::current_rss_kb() - rss0) /
                            static_cast<double>(cfg.num_racks));
    check_facility(plain, what, no_trips, golden, sh);
    t0 = Clock::now();
    const double flat = plain.cb_peak_to_mean() +
                        plain.facility_cb_power().mean() +
                        plain.facility_total_power().mean();
    const std::size_t summaries = plain.summaries().size();
    layers.summary_us.push_back(per_rack_us(t0));
    if (!std::isfinite(flat) || summaries != cfg.num_racks) {
      throw std::logic_error(what + ": facility aggregation failed");
    }
    for (std::size_t r = 0; r < plain.num_racks(); ++r) {
      drivable = drivable && pb::outside_drivable(plain.rig(r));
    }
  }
  {
    FacilityConfig observed_cfg = cfg;
    observed_cfg.observability = true;
    Facility observed(observed_cfg);
    observed.run();
    check_facility(observed, what, no_trips, golden, sh);
    const sprintcon::obs::MetricsSnapshot m =
        observed.obs()->metrics().snapshot();
    if (const auto it = m.histograms.find("facility.rack_run_us");
        it != m.histograms.end()) {
      layers.busy_s += it->second.sum * 1e-6;
    }
    layers.capacity_s += m.gauge("facility.shards") * m.gauge("facility.run_s");
    t0 = Clock::now();
    std::vector<sprintcon::obs::RunReport> reports = observed.reports();
    layers.report_us.push_back(per_rack_us(t0));
    for (sprintcon::obs::RunReport& r : reports) {
      layers.observed.push_back(std::move(r.metrics));
    }
  }
  if (drivable) {
    malloc_trim(0);  // fault in fresh pages, as the plain run did
    Facility traced(cfg);
    t0 = Clock::now();
    drive_facility(traced, cfg, n, layers);
    layers.traced_s += pb::seconds_between(t0, Clock::now());
    layers.plain_s += plain_s;
    // Facility aggregates need Facility::run(); the digest check against
    // the golden-checked plain run covers this run.
    check_facility(traced, what, no_trips, nullptr, sh);
  }
  return plain_s;
}

FacilityConfig fleet_config(const Options& opt, std::size_t n) {
  FacilityConfig cfg;
  cfg.num_racks = 1000;
  cfg.staggered = true;
  cfg.run_threads = n;
  cfg.epoch_s = 30.0;
  cfg.rack.seed = 42 + opt.seed;
  cfg.validate();
  return cfg;
}

std::vector<Metric> fleet_workload(const Options& opt, Shared& sh) {
  const std::size_t n = host_threads();
  const std::string what = "fleet/seed" + std::to_string(42 + opt.seed);

  if (opt.trace) {
    LayerInputs layers;
    const Window window;
    trace_facility(what, [&] { return fleet_config(opt, n); }, nullptr, n, sh,
                   layers);
    layers.passes = 1;
    window.print(opt, pb::seconds_between(window.start, Clock::now()));
    sh.refs.print_pass();
    print_split(layers.split);
    return layer_metrics(layers);
  }

  // Closed loop over whole facility runs; the unit is one epoch, the wall
  // time between successive epoch barriers (the first from run start).
  FacilityConfig cfg = fleet_config(opt, n);
  std::vector<Clock::time_point> boundaries;
  cfg.epoch_callback = [&](std::size_t, double) {
    boundaries.push_back(Clock::now());
  };
  std::vector<double> epoch_ms, setup_s;
  std::vector<pb::WorkInterval> work;
  double run_s = 0.0;
  std::uint64_t ticks = 0;
  const Window window;
  const Clock::time_point deadline = window.deadline(opt);
  do {
    // Every construction starts from memory returned to the OS, as in a
    // fresh process; otherwise set-up time would depend on whether the
    // allocator still holds the previous facility's pages.
    malloc_trim(0);
    auto t0 = Clock::now();
    Facility f(cfg);
    setup_s.push_back(pb::seconds_between(t0, Clock::now()));
    boundaries.clear();
    t0 = Clock::now();
    f.run();
    const auto t1 = Clock::now();
    run_s += pb::seconds_between(t0, t1);
    const std::uint64_t run_ticks = facility_ticks(f);
    Clock::time_point prev = t0;
    for (const Clock::time_point b : boundaries) {
      epoch_ms.push_back(pb::seconds_between(prev, b) * 1e3);
      work.push_back({prev, b,
                      static_cast<double>(run_ticks) /
                          static_cast<double>(boundaries.size())});
      prev = b;
    }
    ticks += run_ticks;
    check_facility(f, what, true, nullptr, sh);
  } while (Clock::now() < deadline);
  const Clock::time_point end = Clock::now();
  window.print(opt, pb::seconds_between(window.start, end));
  std::printf("rack_ticks_total_per_s=%.6g (facility run time only)\n",
              static_cast<double>(ticks) / run_s);
  // Set-up is timed at least nine times even when few runs fill the
  // window, so its median is steady.
  cfg.epoch_callback = nullptr;
  while (setup_s.size() < 9) {
    malloc_trim(0);
    const auto t0 = Clock::now();
    const Facility f(cfg);
    setup_s.push_back(pb::seconds_between(t0, Clock::now()));
  }
  print_samples("unit_wall_ms (epoch)", epoch_ms, "ms", kFleetTailCap);
  print_samples("setup_s", setup_s, "s");
  sh.refs.print_pass();
  return {
      {"rack_ticks_per_s",
       pb::median_slice_rate(work, window.start, end, kSliceS), "1/s"},
      {"unit_wall_ms_p50", median(epoch_ms), "ms"},
      {"unit_wall_ms_tail",
       pb::tail_percentile(epoch_ms, kFleetTailCap).value, "ms"},
      {"peak_rss_mb", pb::peak_rss_kb() / 1024.0, "MB"},
      {"setup_s", median(setup_s), "s"},
  };
}

struct ScenarioInput {
  std::string name;
  std::string path;
  pb::Channels golden;
};

std::vector<ScenarioInput> scenario_library(const Options& opt) {
  const std::filesystem::path dir =
      std::filesystem::path(opt.root) / "examples" / "scenarios";
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".scn") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    throw std::runtime_error("no scenarios under " + dir.string());
  }
  std::vector<ScenarioInput> out;
  for (const auto& file : files) {
    const std::string name = file.stem().string();
    out.push_back({name, file.string(),
                   pb::load_golden(opt.root + "/tests/golden/scenarios/" +
                                   name + ".jsonl")});
  }
  return out;
}

std::vector<Metric> scenario_workload(const Options& opt, Shared& sh) {
  const std::vector<ScenarioInput> inputs = scenario_library(opt);
  const std::size_t n = host_threads();

  if (opt.trace) {
    LayerInputs layers;
    std::map<std::string, std::vector<double>> run_ms, parse_us, compile_us;
    const Window window;
    const Clock::time_point deadline = window.deadline(opt);
    do {
      for (const ScenarioInput& in : inputs) {
        const auto describe = [&] {
          const auto t0 = Clock::now();
          const sprintcon::scenario::ScenarioSpec spec =
              sprintcon::scenario::load_scenario(in.path);
          const auto t1 = Clock::now();
          FacilityConfig cfg = sprintcon::scenario::compile(spec);
          parse_us[in.name].push_back(pb::seconds_between(t0, t1) * 1e6);
          compile_us[in.name].push_back(
              pb::seconds_between(t1, Clock::now()) * 1e6);
          return cfg;
        };
        run_ms[in.name].push_back(
            trace_facility(in.name, describe, &in.golden, n, sh, layers) * 1e3);
      }
      ++layers.passes;
    } while (Clock::now() < deadline);
    window.print(opt, pb::seconds_between(window.start, Clock::now()));
    for (const ScenarioInput& in : inputs) {
      std::printf("scenario %s: passes=%zu run_ms_p50=%.6g parse_us_p50=%.6g "
                  "compile_us_p50=%.6g\n",
                  in.name.c_str(), run_ms[in.name].size(),
                  median(run_ms[in.name]),
                  median(parse_us[in.name]), median(compile_us[in.name]));
    }
    sh.refs.print_pass();
    print_split(layers.split);
    return layer_metrics(layers);
  }

  struct Pass {
    double unit_s = 0.0;
    double setup_s = 0.0;
    std::vector<pb::WorkInterval> work;  ///< one per scenario
  };
  // One pass from scenario `first` on. `sharded` keeps each file's own
  // run_threads; otherwise every facility runs on the calling thread.
  const auto run_pass = [&](std::size_t first, bool sharded) {
    Pass pass;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const ScenarioInput& in = inputs[(first + i) % inputs.size()];
      const auto t0 = Clock::now();
      FacilityConfig cfg = sprintcon::scenario::compile(
          sprintcon::scenario::load_scenario(in.path));
      if (!sharded) cfg.run_threads = 1;
      Facility f(cfg);
      const auto t1 = Clock::now();
      f.run();
      const auto t2 = Clock::now();
      pass.unit_s += pb::seconds_between(t0, t2);
      pass.setup_s += pb::seconds_between(t0, t1);
      pass.work.push_back({t0, t2, static_cast<double>(facility_ticks(f))});
      check_facility(f, in.name, fault_free_sprintcon(cfg), &in.golden, sh);
    }
    return pass;
  };
  // Warm-up: one pass with each file's own shard count sets the reference
  // digests, which the single-shard passes below must reproduce.
  run_pass(0, true);

  // nproc independent streams, each replaying the library back to back
  // with one shard per facility. Sharded replays of 4-6 racks meet at an
  // epoch barrier about every half millisecond, so their wall time
  // follows the host's steal share (a pass took 2-3x longer at 15-20%
  // steal); the traced run still measures them (shard_busy_ratio).
  std::vector<std::vector<Pass>> passes(n);
  std::vector<Clock::time_point> ends(n);
  const Window window;
  const Clock::time_point deadline = window.deadline(opt);
  parallel(n, [&](std::size_t w) {
    // The seed chooses which scenario each stream starts with.
    std::size_t first = static_cast<std::size_t>(opt.seed) + w;
    while (Clock::now() < deadline) {
      passes[w].push_back(run_pass(first++, false));
    }
    ends[w] = Clock::now();
  });
  std::vector<double> unit_ms, setup_s;
  std::vector<pb::WorkInterval> work;
  double ticks = 0.0;
  for (const auto& thread_passes : passes) {
    for (const Pass& pass : thread_passes) {
      unit_ms.push_back(pass.unit_s * 1e3);
      setup_s.push_back(pass.setup_s);
      for (const pb::WorkInterval& w : pass.work) ticks += w.work;
      work.insert(work.end(), pass.work.begin(), pass.work.end());
    }
  }
  const Clock::time_point end = *std::max_element(ends.begin(), ends.end());
  const double wall_s = pb::seconds_between(window.start, end);
  window.print(opt, wall_s);
  std::printf("rack_ticks_total_per_s=%.6g\n", ticks / wall_s);
  print_samples("unit_wall_ms (pass)", unit_ms, "ms", kScenarioTailCap);
  print_samples("setup_s", setup_s, "s");
  sh.refs.print_pass();
  return {
      {"rack_ticks_per_s",
       pb::median_slice_rate(work, window.start, end, kSliceS), "1/s"},
      {"unit_wall_ms_p50", median(unit_ms), "ms"},
      {"unit_wall_ms_tail",
       pb::tail_percentile(unit_ms, kScenarioTailCap).value, "ms"},
      {"peak_rss_mb", pb::peak_rss_kb() / 1024.0, "MB"},
      {"setup_s", median(setup_s), "s"},
  };
}

// ---------------------------------------------------------------------------
// Command line and result

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "rig-canonical|rig-baselines|fleet|scenario-library --seed N "
               "--seconds S --trace 0|1 [--root DIR] [--commit SHA]\n",
               why.c_str());
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty() && value[0] != '-';
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && opt.seconds > 0.0 && opt.seconds <= 600.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      opt.trace = value == "1";
    } else if (flag == "--root") {
      opt.root = value;
    } else if (flag == "--commit") {
      opt.commit = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_seed || !have_seconds || !have_trace || opt.workload.empty()) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return opt;
}

void print_result(std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  bool finite = true;
  std::string json = "{\"correct\": ";
  std::string body;
  for (const Metric& m : metrics) {
    finite = finite && std::isfinite(m.value);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (!body.empty()) body += ", ";
    body += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  if (!finite) std::printf("FAIL a metric is not finite\n");
  json += failed == 0 && finite ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) +
          ", \"metrics\": {" + body + "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  try {
    RigShared sh;
    std::vector<Metric> metrics;
    if (opt.workload == "rig-canonical" || opt.workload == "rig-baselines") {
      metrics = rig_workload(opt, opt.workload == "rig-baselines", sh);
    } else if (opt.workload == "fleet") {
      metrics = fleet_workload(opt, sh);
    } else if (opt.workload == "scenario-library") {
      metrics = scenario_workload(opt, sh);
    } else {
      usage("unknown workload " + opt.workload);
    }
    print_result(sh.log.attempted(), sh.log.failed(), metrics);
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
