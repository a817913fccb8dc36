// Parallel multi-seed sweep: run N replications of a study preset across a
// thread pool and report each headline metric as a distribution (mean,
// stddev, 95% bootstrap CI) instead of a single draw.
//
//   ./sweep [--network limewire|openft|kad] [--quick|--standard]
//           [--seeds A..B | --seeds N] [--base-seed <n>]
//           [--days <n> | --hours <n>] [--jobs <n>] [--shards <n>]
//           [--json <path>] [--record <dir>|--replay <dir>]
//           [--faults <preset|spec>] [--fault-seed <n>] [--list-presets]
//
// The JSON report is deterministic: identical bytes for any --jobs value
// (wall-clock fields are excluded; task seeds are a pure function of the
// plan). --record additionally saves each replication as a trace file in
// <dir>; --replay re-aggregates from those traces without simulating and
// produces the identical JSON.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "core/report.h"
#include "fault/fault.h"
#include "obs_cli.h"
#include "sweep/sweep.h"
#include "util/table.h"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--network limewire|openft|kad] [--quick|--standard]"
               " [--seeds A..B | --seeds N] [--base-seed <n>]"
               " [--days <n> | --hours <n>] [--jobs <n>] [--shards <n>]"
               " [--json <path>]"
               " [--record <dir>|--replay <dir>]"
               " [--faults <none|mild|moderate|severe|k=v,...>]"
               " [--fault-seed <n>] [--list-presets]"
            << p2p::examples::ObsCli::kUsage << "\n";
  return 2;
}

// "2006..2013" → inclusive range; "8" → count of derived seeds.
bool parse_seeds(const std::string& spec, p2p::sweep::PlanConfig& plan) {
  using p2p::examples::parse_uint;
  auto dots = spec.find("..");
  if (dots == std::string::npos) {
    return parse_uint(spec.c_str(), plan.replications, 1);
  }
  std::uint64_t lo = 0, hi = 0;
  if (!parse_uint(spec.substr(0, dots).c_str(), lo) ||
      !parse_uint(spec.c_str() + dots + 2, hi, lo)) {
    return false;
  }
  for (std::uint64_t s = lo; s <= hi; ++s) plan.seeds.push_back(s);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace p2p;
  sweep::PlanConfig plan;
  sweep::SweepOptions options;
  std::string json_path, record_dir, replay_dir;
  examples::ObsCli obs_cli;
  for (int i = 1; i < argc; ++i) {
    bool obs_err = false;
    if (obs_cli.parse(argc, argv, i, &obs_err)) {
      if (obs_err) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--network") == 0 && i + 1 < argc) {
      std::string name = argv[++i];
      if (name == "limewire") {
        plan.network = sweep::NetworkKind::kLimewire;
      } else if (name == "openft") {
        plan.network = sweep::NetworkKind::kOpenFt;
      } else if (name == "kad") {
        plan.network = sweep::NetworkKind::kKad;
      } else {
        std::cerr << "unknown network: " << name << "\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      plan.quick = true;
    } else if (std::strcmp(argv[i], "--standard") == 0) {
      plan.quick = false;
    } else if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
      if (!parse_seeds(argv[++i], plan)) {
        std::cerr << "bad --seeds spec (want A..B or N): " << argv[i] << "\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--base-seed") == 0 && i + 1 < argc) {
      if (!examples::parse_uint(argv[++i], plan.base_seed)) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--days") == 0 && i + 1 < argc) {
      std::int64_t days = 0;
      if (!examples::parse_uint(argv[++i], days)) return usage(argv[0]);
      plan.duration = sim::SimDuration::days(days);
    } else if (std::strcmp(argv[i], "--hours") == 0 && i + 1 < argc) {
      std::int64_t hours = 0;
      if (!examples::parse_uint(argv[++i], hours)) return usage(argv[0]);
      plan.duration = sim::SimDuration::hours(hours);
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      if (!examples::parse_uint(argv[++i], options.jobs)) return usage(argv[0]);
      if (options.jobs == 0) options.jobs = 1;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--record") == 0 && i + 1 < argc) {
      record_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--replay") == 0 && i + 1 < argc) {
      replay_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--faults") == 0 && i + 1 < argc) {
      auto parsed = fault::parse_spec(argv[++i]);
      if (!parsed) {
        std::cerr << "bad --faults spec: " << argv[i] << "\n";
        return usage(argv[0]);
      }
      plan.faults = *parsed;
    } else if (std::strcmp(argv[i], "--fault-seed") == 0 && i + 1 < argc) {
      if (!examples::parse_uint(argv[++i], plan.fault_seed)) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      if (!examples::parse_uint(argv[++i], plan.shards, 1, 4096)) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--list-presets") == 0) {
      core::print_presets(std::cout);
      return 0;
    } else {
      return usage(argv[0]);
    }
  }

  if (!record_dir.empty() && !replay_dir.empty()) {
    std::cerr << "--record and --replay are mutually exclusive\n";
    return 2;
  }
  plan.timeseries = obs_cli.timeseries_config();
  if (!obs_cli.activate()) return 2;
  auto progress = obs_cli.make_progress();
  options.progress = progress.get();
  if (!record_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(record_dir, ec);
    if (ec) {
      std::cerr << "cannot create " << record_dir << ": " << ec.message() << "\n";
      return 1;
    }
    options.runner = sweep::recording_runner(record_dir);
  } else if (!replay_dir.empty()) {
    options.runner = sweep::replay_runner(replay_dir);
  }

  auto tasks = sweep::plan(plan);
  std::cout << "Sweep: " << sweep::network_name(plan.network) << " "
            << (plan.quick ? "quick" : "standard") << " preset, "
            << tasks.size() << " seeds, " << options.jobs << " job(s)";
  if (!record_dir.empty()) std::cout << ", recording to " << record_dir;
  if (!replay_dir.empty()) std::cout << ", replaying from " << replay_dir;
  if (plan.faults.enabled()) {
    std::cout << ", faults: " << fault::describe(plan.faults);
  }
  std::cout << "\n";
  auto result = sweep::run(tasks, options);
  char timing[96];
  std::snprintf(timing, sizeof(timing), "%.2fs (%.2f tasks/s)",
                result.wall_seconds, result.tasks_per_second);
  std::cout << "  " << result.completed << " completed, " << result.failed
            << " failed in " << timing << "\n\n";
  for (const auto& task : result.tasks) {
    if (!task.ok) {
      std::cerr << "  task " << task.index << " (seed " << task.seed
                << ") failed: " << task.error << "\n";
    }
  }

  util::Table t({"metric", "n", "mean", "stddev", "min", "max", "ci95"});
  for (const auto& s : result.summaries) {
    char mean[32], sd[32], mn[32], mx[32], ci[64];
    std::snprintf(mean, sizeof(mean), "%.6g", s.moments.mean);
    std::snprintf(sd, sizeof(sd), "%.3g", s.moments.stddev);
    std::snprintf(mn, sizeof(mn), "%.6g", s.moments.min);
    std::snprintf(mx, sizeof(mx), "%.6g", s.moments.max);
    std::snprintf(ci, sizeof(ci), "[%.6g, %.6g]", s.ci.lo, s.ci.hi);
    t.add_row({s.name, std::to_string(s.moments.n), mean, sd, mn, mx, ci});
  }
  std::cout << t.render();

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary);
    if (!out) {
      std::cerr << "cannot open " << json_path << "\n";
      return 1;
    }
    sweep::write_json(out, result);
    std::cout << "\nwrote " << json_path << "\n";
  }
  if (!obs_cli.metrics_path.empty()) {
    std::ofstream out(obs_cli.metrics_path);
    if (!out) {
      std::cerr << "cannot write " << obs_cli.metrics_path << "\n";
      return 1;
    }
    obs::write_json(out, obs::MetricsRegistry::global().snapshot());
    std::cout << "wrote metrics snapshot to " << obs_cli.metrics_path << "\n";
  }
  if (!obs_cli.timeseries_path.empty()) {
    // The sweep's per-task series live in the JSON report; the standalone
    // export carries the first task's series (one seed's time-resolved
    // view, same bytes for any --jobs).
    obs::TimeSeries first;
    for (const auto& task : result.tasks) {
      if (task.ok && !task.timeseries.empty()) {
        first = task.timeseries;
        break;
      }
    }
    if (!obs_cli.write_timeseries(first)) return 1;
  }
  if (!obs_cli.write_profile()) return 1;
  if (!obs_cli.write_trace()) return 1;
  return result.all_ok() ? 0 : 1;
}
