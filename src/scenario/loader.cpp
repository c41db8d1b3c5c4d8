#include "scenario/loader.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <sstream>

#include "common/validation.hpp"

namespace sprintcon::scenario {

namespace {

/// Parser context: filename + current line, so every diagnostic can carry
/// its position. fail() is the single exit for all parse errors.
struct Cursor {
  std::string_view filename;
  int line_no = 0;

  [[noreturn]] void fail(const std::string& msg) const {
    throw InvalidArgumentError(std::string(filename) + ":" +
                               std::to_string(line_no) + ": " + msg);
  }
};

/// Split "key=value"; fails on anything else.
std::pair<std::string, std::string> split_kv(const Cursor& at,
                                             const std::string& word) {
  const std::size_t eq = word.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= word.size()) {
    at.fail("expected key=value, got '" + word + "'");
  }
  return {word.substr(0, eq), word.substr(eq + 1)};
}

/// Strict double parse: the whole token must be consumed (rejects the
/// strtod partial-token accepts like "1.2.3" / "1e" / "12x").
double parse_double(const Cursor& at, const std::string& key,
                    const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size()) {
    at.fail("malformed number for " + key + ": '" + value + "'");
  }
  return v;
}

/// Strict unsigned integer parse: digits only (no sign, hex, or
/// whitespace), no overflow.
std::uint64_t parse_u64(const Cursor& at, const std::string& key,
                        const std::string& value) {
  if (value.empty()) at.fail("malformed integer for " + key + ": ''");
  for (const char c : value) {
    if (c < '0' || c > '9') {
      at.fail("malformed integer for " + key + ": '" + value + "'");
    }
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (errno == ERANGE || end != value.c_str() + value.size()) {
    at.fail("integer out of range for " + key + ": '" + value + "'");
  }
  return static_cast<std::uint64_t>(v);
}

std::size_t parse_size(const Cursor& at, const std::string& key,
                       const std::string& value) {
  return static_cast<std::size_t>(parse_u64(at, key, value));
}

bool parse_bool(const Cursor& at, const std::string& key,
                const std::string& value) {
  if (value == "true") return true;
  if (value == "false") return false;
  at.fail("malformed bool for " + key + ": '" + value +
          "' (want true or false)");
}

/// Run a section's validate() with the section line's position attached.
template <typename F>
void validate_at(const Cursor& at, F&& validate) {
  try {
    validate();
  } catch (const InvalidArgumentError& e) {
    at.fail(e.what());
  }
}

void parse_scenario_header(const Cursor& at, std::istringstream& tokens,
                           ScenarioSpec& spec) {
  std::string word;
  bool have_name = false;
  while (tokens >> word) {
    const auto [key, value] = split_kv(at, word);
    if (key == "name") {
      spec.name = value;
      have_name = true;
    } else if (key == "seed") {
      spec.seed = parse_u64(at, key, value);
    } else if (key == "fault_seed") {
      spec.fault_seed = parse_u64(at, key, value);
    } else if (key == "duration") {
      spec.duration_s = parse_double(at, key, value);
    } else if (key == "dt") {
      spec.dt_s = parse_double(at, key, value);
    } else {
      at.fail("unknown scenario key '" + key + "'");
    }
  }
  if (!have_name) at.fail("scenario line needs name=<id>");
  validate_at(at, [&] {
    SPRINTCON_EXPECTS(!spec.name.empty(), "scenario needs a name");
    for (const char c : spec.name) {
      SPRINTCON_EXPECTS((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                            c == '-' || c == '_',
                        "scenario name must be [a-z0-9_-]: '" + spec.name +
                            "'");
    }
    SPRINTCON_EXPECTS(spec.duration_s > 0.0 && std::isfinite(spec.duration_s),
                      "duration must be positive and finite");
    SPRINTCON_EXPECTS(spec.dt_s > 0.0 && spec.dt_s <= spec.duration_s,
                      "dt must be positive and at most the duration");
  });
}

void parse_fleet(const Cursor& at, std::istringstream& tokens,
                 FleetSpec& fleet) {
  std::string word;
  while (tokens >> word) {
    const auto [key, value] = split_kv(at, word);
    if (key == "racks") {
      fleet.racks = parse_size(at, key, value);
    } else if (key == "threads") {
      fleet.threads = parse_size(at, key, value);
    } else if (key == "staggered") {
      fleet.staggered = parse_bool(at, key, value);
    } else if (key == "epoch") {
      fleet.epoch_s = parse_double(at, key, value);
    } else if (key == "health") {
      fleet.health = parse_bool(at, key, value);
    } else if (key == "recovery") {
      fleet.recovery = parse_bool(at, key, value);
    } else {
      at.fail("unknown fleet key '" + key + "'");
    }
  }
  validate_at(at, [&] { fleet.validate(); });
}

void parse_rack(const Cursor& at, std::istringstream& tokens,
                RackSpec& rack) {
  std::string word;
  while (tokens >> word) {
    const auto [key, value] = split_kv(at, word);
    if (key == "servers") {
      rack.servers = parse_size(at, key, value);
    } else if (key == "interactive_cores") {
      rack.interactive_cores = parse_size(at, key, value);
    } else if (key == "dedicated") {
      rack.dedicated = parse_bool(at, key, value);
    } else if (key == "policy") {
      validate_at(at, [&] { rack.policy = parse_policy_token(value); });
    } else if (key == "ups_wh") {
      rack.ups_wh = parse_double(at, key, value);
    } else if (key == "supercap_wh") {
      rack.supercap_wh = parse_double(at, key, value);
    } else if (key == "deadline") {
      rack.deadline_s = parse_double(at, key, value);
    } else if (key == "work_scale") {
      rack.work_scale = parse_double(at, key, value);
    } else if (key == "cb_rated_w") {
      rack.cb_rated_w = parse_double(at, key, value);
    } else if (key == "overload") {
      rack.overload = parse_double(at, key, value);
    } else if (key == "overload_s") {
      rack.overload_s = parse_double(at, key, value);
    } else if (key == "recovery_s") {
      rack.recovery_s = parse_double(at, key, value);
    } else {
      at.fail("unknown rack key '" + key + "'");
    }
  }
  validate_at(at, [&] { rack.validate(); });
}

void parse_workload(const Cursor& at, std::istringstream& tokens,
                    WorkloadSpec& workload) {
  std::string word;
  while (tokens >> word) {
    const auto [key, value] = split_kv(at, word);
    if (key == "mean_util") {
      workload.mean_util = parse_double(at, key, value);
    } else if (key == "idle_util") {
      workload.idle_util = parse_double(at, key, value);
    } else if (key == "ramp_up") {
      workload.ramp_up_s = parse_double(at, key, value);
    } else if (key == "swell_amplitude") {
      workload.swell_amplitude = parse_double(at, key, value);
    } else if (key == "swell_period") {
      workload.swell_period_s = parse_double(at, key, value);
    } else if (key == "noise_sigma") {
      workload.noise_sigma = parse_double(at, key, value);
    } else if (key == "noise_tau") {
      workload.noise_tau_s = parse_double(at, key, value);
    } else if (key == "spike_rate") {
      workload.spike_rate_per_s = parse_double(at, key, value);
    } else if (key == "spike_magnitude") {
      workload.spike_magnitude = parse_double(at, key, value);
    } else if (key == "spike_decay") {
      workload.spike_decay_s = parse_double(at, key, value);
    } else if (key == "queueing") {
      workload.queueing = parse_bool(at, key, value);
    } else {
      at.fail("unknown workload key '" + key + "'");
    }
  }
  validate_at(at, [&] { workload.validate(); });
}

SurgeSpec parse_surge(const Cursor& at, std::istringstream& tokens) {
  SurgeSpec surge;
  std::string word;
  while (tokens >> word) {
    const auto [key, value] = split_kv(at, word);
    if (key == "start") {
      surge.start_s = parse_double(at, key, value);
    } else if (key == "duration") {
      surge.duration_s = parse_double(at, key, value);
    } else if (key == "peak") {
      surge.peak_utilization = parse_double(at, key, value);
    } else if (key == "ramp") {
      surge.ramp_s = parse_double(at, key, value);
    } else {
      at.fail("unknown surge key '" + key + "'");
    }
  }
  validate_at(at, [&] { surge.validate(); });
  return surge;
}

GridEventSpec parse_grid(const Cursor& at, std::istringstream& tokens) {
  GridEventSpec event;
  std::string word;
  if (!(tokens >> word)) at.fail("grid line needs a kind (outage, derate)");
  validate_at(at, [&] { event.kind = parse_grid_event_kind(word); });
  while (tokens >> word) {
    const auto [key, value] = split_kv(at, word);
    if (key == "start") {
      event.start_s = parse_double(at, key, value);
    } else if (key == "duration") {
      event.duration_s = parse_double(at, key, value);
    } else if (key == "fraction") {
      event.fraction = parse_double(at, key, value);
    } else {
      at.fail("unknown grid key '" + key + "'");
    }
  }
  validate_at(at, [&] { event.validate(); });
  return event;
}

}  // namespace

ScenarioSpec parse_scenario(std::istream& in, std::string_view filename) {
  ScenarioSpec spec;
  Cursor at{filename, 0};
  bool seen_scenario = false;
  bool seen_fleet = false;
  bool seen_rack = false;
  bool seen_workload = false;
  int fleet_line = 0;

  std::string line;
  while (std::getline(in, line)) {
    ++at.line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream tokens(line);
    std::string section;
    if (!(tokens >> section)) continue;  // blank / comment-only line

    if (section == "scenario") {
      if (seen_scenario) at.fail("duplicate 'scenario' line");
      seen_scenario = true;
      parse_scenario_header(at, tokens, spec);
      continue;
    }
    if (!seen_scenario) {
      at.fail("the 'scenario' line must come first (got '" + section + "')");
    }
    if (section == "fleet") {
      if (seen_fleet) at.fail("duplicate 'fleet' line");
      seen_fleet = true;
      fleet_line = at.line_no;
      parse_fleet(at, tokens, spec.fleet);
    } else if (section == "rack") {
      if (seen_rack) at.fail("duplicate 'rack' line");
      seen_rack = true;
      parse_rack(at, tokens, spec.rack);
    } else if (section == "workload") {
      if (seen_workload) at.fail("duplicate 'workload' line");
      seen_workload = true;
      parse_workload(at, tokens, spec.workload);
    } else if (section == "surge") {
      const SurgeSpec surge = parse_surge(at, tokens);
      validate_at(at, [&] {
        SPRINTCON_EXPECTS(
            spec.surges.empty() ||
                surge.start_s >=
                    spec.surges.back().end_s() + spec.surges.back().ramp_s,
            "overlapping surge windows (including the down-ramp)");
      });
      spec.surges.push_back(surge);
    } else if (section == "grid") {
      spec.grid_events.push_back(parse_grid(at, tokens));
    } else if (section == "fault") {
      std::string rest;
      std::getline(tokens, rest);
      try {
        spec.faults.faults.push_back(fault::FaultSpec::parse_line(rest));
      } catch (const InvalidArgumentError& e) {
        at.fail(e.what());
      }
    } else {
      at.fail("unknown section '" + section +
              "' (want scenario, fleet, rack, workload, surge, grid, fault)");
    }
  }

  if (!seen_scenario) {
    at.line_no = std::max(at.line_no, 1);
    at.fail("missing required 'scenario' line");
  }
  // Cross-section rule: the recovery knob (fleet line) needs the SprintCon
  // controller ladder (rack line, possibly later in the file).
  if (spec.fleet.recovery && spec.rack.policy != Policy::kSprintCon) {
    at.line_no = fleet_line;
    at.fail("recovery requires policy=sprintcon");
  }
  // Backstop: everything above should have validated piecewise already.
  try {
    spec.validate();
  } catch (const InvalidArgumentError& e) {
    throw InvalidArgumentError(std::string(filename) + ": " + e.what());
  }
  return spec;
}

ScenarioSpec parse_scenario_string(std::string_view text,
                                   std::string_view filename) {
  std::istringstream in{std::string(text)};
  return parse_scenario(in, filename);
}

ScenarioSpec load_scenario(const std::string& path) {
  std::ifstream in(path);
  SPRINTCON_EXPECTS(static_cast<bool>(in), "cannot open scenario: " + path);
  return parse_scenario(in, path);
}

FacilityConfig compile(const ScenarioSpec& spec) {
  spec.validate();

  FacilityConfig fc;
  fc.num_racks = spec.fleet.racks;
  fc.run_threads = spec.fleet.threads;
  fc.staggered = spec.fleet.staggered;
  fc.epoch_s = spec.fleet.epoch_s;

  RigConfig& rig = fc.rack;
  rig.health = spec.fleet.health;
  rig.recovery = spec.fleet.recovery;
  rig.policy = spec.rack.policy;
  rig.num_servers = spec.rack.servers;
  rig.interactive_cores_per_server = spec.rack.interactive_cores;
  rig.dedicated_servers = spec.rack.dedicated;
  rig.dt_s = spec.dt_s;
  rig.duration_s = spec.duration_s;
  rig.batch_deadline_s = spec.rack.deadline_s;
  rig.batch_work_scale = spec.rack.work_scale;
  rig.ups_capacity_wh = spec.rack.ups_wh;
  rig.supercap_wh = spec.rack.supercap_wh;
  rig.seed = spec.seed;
  rig.fault_seed = spec.fault_seed;
  rig.use_request_queues = spec.workload.queueing;
  rig.sprint.cb_rated_w = spec.rack.cb_rated_w;
  rig.sprint.cb_overload_degree = spec.rack.overload;
  rig.sprint.cb_overload_duration_s = spec.rack.overload_s;
  rig.sprint.cb_recovery_duration_s = spec.rack.recovery_s;
  // The sprint covers the whole run (the rig default keeps them equal
  // too); the overload policy then follows the scenario's horizon.
  rig.sprint.burst_duration_s = spec.duration_s;

  // --- workload mix + surge lowering ------------------------------------
  workload::InteractiveTraceConfig& trace = rig.interactive;
  trace.mean_utilization = spec.workload.mean_util;
  trace.idle_utilization = spec.workload.idle_util;
  trace.ramp_up_s = spec.workload.ramp_up_s;
  trace.swell_amplitude = spec.workload.swell_amplitude;
  trace.swell_period_s = spec.workload.swell_period_s;
  trace.noise_sigma = spec.workload.noise_sigma;
  trace.noise_tau_s = spec.workload.noise_tau_s;
  trace.spike_rate_per_s = spec.workload.spike_rate_per_s;
  trace.spike_magnitude = spec.workload.spike_magnitude;
  trace.spike_decay_s = spec.workload.spike_decay_s;
  if (!spec.surges.empty()) {
    // Trapezoid per surge on the baseline mean. Adjacent points can
    // coincide (a surge starting exactly where the previous down-ramp
    // lands); push() drops those so the envelope stays strictly sorted.
    const double base = spec.workload.mean_util;
    double last_t = -1.0;
    const auto push = [&](double t_s, double mean) {
      if (t_s > last_t) {
        trace.envelope.push_back({t_s, mean});
        last_t = t_s;
      }
    };
    if (spec.surges.front().start_s > 0.0) push(0.0, base);
    for (const SurgeSpec& surge : spec.surges) {
      push(surge.start_s, base);
      push(surge.start_s + surge.ramp_s, surge.peak_utilization);
      push(surge.end_s(), surge.peak_utilization);
      push(surge.end_s() + surge.ramp_s, base);
    }
  }

  // --- grid events lowered onto the fault taxonomy ----------------------
  rig.faults = spec.faults;
  for (const GridEventSpec& event : spec.grid_events) {
    fault::FaultSpec f;
    f.start_s = event.start_s;
    f.duration_s = event.duration_s;
    switch (event.kind) {
      case GridEventKind::kOutage:
        f.kind = fault::FaultKind::kUtilityOutage;
        break;
      case GridEventKind::kDerate:
        f.kind = fault::FaultKind::kCbDrift;
        f.magnitude = event.fraction;
        break;
    }
    rig.faults.faults.push_back(f);
  }

  return fc;
}

}  // namespace sprintcon::scenario
