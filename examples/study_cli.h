// Shared front-end of the study CLIs (limewire_study, openft_study,
// kad_study) and of `trace record`. Every study CLI takes one flag set:
//
//   ./<network>_study [<preset flag>] [--csv <path>] [--seed <n>]
//                     [--json <path>] [--record <trace>|--replay <trace>]
//                     [--record-dir <dir>|--replay-dir <dir>]
//                     [--replay-jobs <n>] [--windows <csv>]
//                     [--faults <preset|spec>] [--fault-seed <n>]
//                     [network flags] [--list-presets]
//                     [obs flags — see examples/obs_cli.h]
//
// --record captures the crawl as a binary trace (src/trace) while it runs;
// --replay rebuilds the same report from a trace without simulating. The
// --json report is byte-identical between a recorded live run and its
// replay (see README "Recording and replaying a study").
//
// --record-dir captures the same stream to a time-sharded segment directory
// (one .p2pt segment per simulated day plus a MANIFEST); --replay-dir
// replays it out of core across --replay-jobs threads with byte-identical
// JSON at any jobs count (see README "Replaying a long capture out of
// core").
//
// A network contributes one StudyCli table: its presets, its own flags, its
// banner, its run call and the report sections it prints. Flags apply in
// argv order and a preset flag replaces the whole config, so presets go
// first (`--quick --seed 7`).
#pragma once

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/csv.h"
#include "core/kad_study.h"
#include "core/report.h"
#include "core/study.h"
#include "fault/fault.h"
#include "obs_cli.h"
#include "replay_dir.h"
#include "trace/segment.h"
#include "trace/writer.h"
#include "util/strings.h"

namespace p2p::examples {

/// A named config preset; `flag` is null for the default preset.
template <typename Config>
struct StudyPreset {
  const char* name;
  const char* flag;
  Config (*make)();
};

/// A network's own flag. `value` names its argument in the usage line (null
/// for a switch); `apply` returns false on a bad value.
template <typename Config>
struct StudyFlag {
  const char* flag;
  const char* value;
  bool (*apply)(Config&, const char* value);
};

/// Configs with the sharded-engine fields (LimeWire, OpenFT). Their CLIs
/// also take --shards <n> (1-4096, default 1) and --soa (with --shards: the
/// reduced SoA capacity model of core/shard_study).
template <typename Config>
concept ShardedStudy = requires(Config c) {
  c.shards;
  c.soa_capacity;
};

template <typename Config>
struct StudyCli {
  const char* network;  // report, trace header and --replay-dir network
  const char* title;    // banner and replay line
  const char* noun;     // what the run line counts: "responses" or "records"
  bool peer_joins;      // whether the run line also counts churn joins
  std::vector<StudyPreset<Config>> presets;  // presets[0] is the default
  std::vector<StudyFlag<Config>> flags;
  /// Writes the banner after "Running <title> study: "; `run` is the shared
  /// "<duration>, seed <n>" part.
  void (*banner)(std::ostream&, const Config&, const std::string& run);
  core::StudyResult (*run)(const Config&, crawler::RecordSink*);
  std::vector<Section> sections;
};

/// "8 hours", "30 days": whole days when the crawl lasts whole days.
inline std::string format_crawl_duration(util::SimDuration d) {
  constexpr std::int64_t kHourMs = 3'600'000;
  std::int64_t ms = d.count_ms();
  if (ms % (24 * kHourMs) == 0) return std::to_string(ms / (24 * kHourMs)) + " days";
  return std::to_string(ms / kHourMs) + " hours";
}

/// The trace header of a capture of `cfg`.
template <typename Config>
trace::TraceHeader capture_header(const StudyCli<Config>& cli, const Config& cfg,
                                  const std::string& tool, const char* preset) {
  trace::TraceHeader header;
  header.network = cli.network;
  header.config_hash = core::config_hash(cfg);
  header.seed = cfg.seed;
  header.crawl_duration_ms = cfg.crawl.duration.count_ms();
  header.meta = {{"tool", tool}, {"preset", preset}};
  return header;
}

/// Run the study into `writer` (null: no capture) and seal the capture with
/// the run's summary block. False when the capture failed to write.
template <typename Config>
bool run_captured(const StudyCli<Config>& cli, const Config& cfg,
                  trace::StorageWriter* writer, core::StudyResult& result) {
  result = cli.run(cfg, writer);
  if (writer == nullptr) return true;
  writer->write_summary(core::study_summary(result));
  writer->close();
  return writer->ok();
}

template <typename Config>
int run_study_cli(int argc, char** argv, const StudyCli<Config>& cli) {
  auto usage = [&] {
    std::cerr << "usage: " << argv[0] << " [";
    for (std::size_t p = 1; p < cli.presets.size(); ++p) {
      std::cerr << (p > 1 ? "|" : "") << cli.presets[p].flag;
    }
    std::cerr << "] [--csv <path>] [--seed <n>] [--json <path>]"
                 " [--record <trace>|--replay <trace>]"
                 " [--record-dir <dir>|--replay-dir <dir>] [--replay-jobs <n>]"
                 " [--windows <csv>]"
                 " [--faults <none|mild|moderate|severe|k=v,...>]"
                 " [--fault-seed <n>]";
    if constexpr (ShardedStudy<Config>) std::cerr << " [--shards <n>] [--soa]";
    for (const auto& f : cli.flags) {
      std::cerr << " [" << f.flag << (f.value ? " " : "") << (f.value ? f.value : "")
                << "]";
    }
    std::cerr << " [--list-presets]" << ObsCli::kUsage << "\n";
    return 2;
  };

  Config cfg = cli.presets.front().make();
  const char* preset = cli.presets.front().name;
  std::string csv_path, json_path, record_path, replay_path;
  std::string record_dir, replay_dir, windows_path, faults_spec;
  std::size_t replay_jobs = 1;
  std::uint64_t fault_seed = 0;
  std::uint64_t shards = 0;
  ObsCli obs_cli;
  const std::pair<const char*, std::string*> path_flags[] = {
      {"--csv", &csv_path},           {"--json", &json_path},
      {"--record", &record_path},     {"--replay", &replay_path},
      {"--record-dir", &record_dir},  {"--replay-dir", &replay_dir},
      {"--windows", &windows_path},   {"--faults", &faults_spec}};
  for (int i = 1; i < argc; ++i) {
    bool obs_err = false;
    if (obs_cli.parse(argc, argv, i, &obs_err)) {
      if (obs_err) return usage();
      continue;
    }
    const char* arg = argv[i];
    auto is = [arg](const char* flag) { return std::strcmp(arg, flag) == 0; };
    // Value flags read argv[i + 1]; one at the end of argv is a usage error.
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    auto take = [&](const char* flag) {
      if (!is(flag) || value == nullptr) return false;
      ++i;
      return true;
    };
    if (is("--list-presets")) {
      core::print_presets(std::cout);
      return 0;
    }
    auto p = std::find_if(cli.presets.begin(), cli.presets.end(), [&](const auto& p) {
      return p.flag != nullptr && is(p.flag);
    });
    if (p != cli.presets.end()) {
      cfg = p->make();
      preset = p->name;
      continue;
    }
    auto path = std::find_if(std::begin(path_flags), std::end(path_flags),
                             [&](const auto& f) { return is(f.first); });
    bool ok;
    if (path != std::end(path_flags) && take(path->first)) {
      *path->second = value;
      ok = true;
    } else if (take("--seed")) {
      ok = parse_uint(value, cfg.seed);
    } else if (take("--fault-seed")) {
      ok = parse_uint(value, fault_seed);
    } else if (take("--replay-jobs")) {
      ok = parse_uint(value, replay_jobs, 1, 256);
    } else if (ShardedStudy<Config> && take("--shards")) {
      ok = parse_uint(value, shards, 1, 4096);
    } else if (ShardedStudy<Config> && is("--soa")) {
      if constexpr (ShardedStudy<Config>) cfg.soa_capacity = true;
      ok = true;
    } else {
      auto f = std::find_if(cli.flags.begin(), cli.flags.end(),
                            [&](const auto& f) { return is(f.flag); });
      if (f == cli.flags.end() || (f->value != nullptr && !take(f->flag))) {
        return usage();
      }
      ok = f->apply(cfg, f->value != nullptr ? value : nullptr);
    }
    if (!ok) return usage();
  }
  cfg.timeseries = obs_cli.timeseries_config();
  if constexpr (ShardedStudy<Config>) {
    cfg.shards = shards;
    if (cfg.soa_capacity && shards == 0) {
      std::cerr << "--soa requires --shards\n";
      return 2;
    }
  }
  int capture_modes = (record_path.empty() ? 0 : 1) +
                      (replay_path.empty() ? 0 : 1) +
                      (record_dir.empty() ? 0 : 1) + (replay_dir.empty() ? 0 : 1);
  if (capture_modes > 1) {
    std::cerr << "--record, --replay, --record-dir and --replay-dir are "
                 "mutually exclusive\n";
    return 2;
  }
  if (!windows_path.empty() && replay_dir.empty()) {
    std::cerr << "--windows requires --replay-dir\n";
    return 2;
  }
  if (!replay_dir.empty() && !csv_path.empty()) {
    std::cerr << "--csv is not supported with --replay-dir (the capture is "
                 "never materialized); use trace cat on the directory\n";
    return 2;
  }
  if (!faults_spec.empty()) {
    auto parsed = fault::parse_spec(faults_spec);
    if (!parsed) {
      std::cerr << "bad --faults spec: " << faults_spec << "\n";
      return usage();
    }
    core::apply_faults(cfg, *parsed, fault_seed);
    if (cfg.faults.enabled()) {
      std::cout << "Fault injection: " << fault::describe(cfg.faults) << "\n";
    }
  }

  if (!obs_cli.activate()) return 2;
  auto progress = obs_cli.make_progress();

  if (!replay_dir.empty()) {
    return run_replay_dir(replay_dir, replay_jobs, cli.network, json_path,
                          windows_path);
  }

  core::StudyResult result;
  if (!replay_path.empty()) {
    if (!core::load_study_trace(replay_path, result)) {
      std::cerr << "cannot replay " << replay_path
                << ": missing, corrupt, or incomplete trace\n";
      return 1;
    }
    std::cout << "Replaying " << cli.title << " study from " << replay_path << ": "
              << util::format_count(result.records.size()) << " " << cli.noun
              << "\n";
  } else {
    std::cout << "Running " << cli.title << " study: ";
    cli.banner(std::cout, cfg,
               format_crawl_duration(cfg.crawl.duration) + ", seed " +
                   std::to_string(cfg.seed));
    std::cout << "\n";
    std::optional<obs::ProgressReporter::Scope> progress_scope;
    if (progress != nullptr) progress_scope.emplace(*progress);
    const std::string& capture_path =
        !record_dir.empty() ? record_dir : record_path;
    std::unique_ptr<trace::StorageWriter> writer;
    if (!capture_path.empty()) {
      auto header = capture_header(cli, cfg, std::string(cli.network) + "_study",
                                   preset);
      if (!record_dir.empty()) {
        writer = std::make_unique<trace::SegmentWriter>(record_dir, header);
      } else {
        writer = std::make_unique<trace::TraceWriter>(record_path, header);
      }
      if (!writer->ok()) {
        std::cerr << "cannot write " << capture_path << "\n";
        return 1;
      }
    }
    if (!run_captured(cli, cfg, writer.get(), result)) {
      std::cerr << "failed writing trace " << capture_path << "\n";
      return 1;
    }
    if (writer != nullptr) {
      std::cout << "  recorded " << util::format_count(writer->records_written())
                << " records (" << util::format_count(writer->blocks_written())
                << " blocks, " << util::format_count(writer->bytes_written())
                << " bytes";
      if (!record_dir.empty()) {
        std::cout << ", " << util::format_count(writer->segments_written())
                  << " segments";
      }
      std::cout << ") to " << capture_path << "\n";
    }
  }
  std::cout << "  " << util::format_count(result.events_executed) << " events, "
            << util::format_count(result.messages_delivered) << " messages, "
            << util::format_count(result.records.size()) << " " << cli.noun;
  if (cli.peer_joins) {
    std::cout << ", " << util::format_count(result.churn_joins) << " peer joins";
  }
  std::cout << "\n\n";

  auto report = core::build_report(result.records, cli.network);
  core::attach_fault_report(report, result.faults_enabled, result.fault_counters,
                            result.crawl_stats);
  core::attach_kad_coverage(report, result.records, result.metrics);
  report.timeseries = result.timeseries;
  print_sections(std::cout, report, cli.sections);

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    core::write_report_json(out, report);
    std::cout << "wrote report JSON to " << json_path << "\n";
  }
  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    if (!out) {
      std::cerr << "cannot write " << csv_path << "\n";
      return 1;
    }
    analysis::write_csv(out, result.records);
    std::cout << "wrote " << util::format_count(result.records.size())
              << " records to " << csv_path << "\n";
  }
  if (!obs_cli.metrics_path.empty()) {
    std::ofstream out(obs_cli.metrics_path);
    if (!out) {
      std::cerr << "cannot write " << obs_cli.metrics_path << "\n";
      return 1;
    }
    obs::write_json(out, result.metrics);
    core::print_metrics(std::cout, cli.network, result.metrics);
    std::cout << "wrote metrics snapshot to " << obs_cli.metrics_path << "\n";
  }
  if (!obs_cli.write_timeseries(result.timeseries)) return 1;
  if (!obs_cli.write_profile()) return 1;
  if (!obs_cli.write_trace()) return 1;
  return 0;
}

// The three networks' tables.

inline StudyCli<core::LimewireStudyConfig> limewire_cli() {
  return {"limewire", "LimeWire", "responses", /*peer_joins=*/true,
          {{"standard", nullptr, core::limewire_standard},
           {"quick", "--quick", core::limewire_quick}},
          {},
          [](std::ostream& out, const core::LimewireStudyConfig& cfg,
             const std::string& run) {
            out << cfg.population.leaves << " leaves, "
                << cfg.population.ultrapeers << " ultrapeers, " << run;
          },
          core::run_limewire_study,
          {Section::kPrevalence, Section::kStrains, Section::kSources,
           Section::kSizes, Section::kDaily, Section::kFilters}};
}

inline StudyCli<core::OpenFtStudyConfig> openft_cli() {
  return {"openft", "OpenFT", "responses", /*peer_joins=*/false,
          {{"standard", nullptr, core::openft_standard},
           {"quick", "--quick", core::openft_quick}},
          {{"--no-superspreader", nullptr,
            [](core::OpenFtStudyConfig& cfg, const char*) {
              cfg.population.enable_superspreader = false;
              return true;
            }}},
          [](std::ostream& out, const core::OpenFtStudyConfig& cfg,
             const std::string& run) {
            out << cfg.population.users << " users, "
                << cfg.population.search_nodes << " search nodes, " << run
                << (cfg.population.enable_superspreader ? ""
                                                        : " (no super-spreader)");
          },
          core::run_openft_study,
          {Section::kPrevalence, Section::kStrains, Section::kSources,
           Section::kSizes}};
}

inline StudyCli<core::KadStudyConfig> kad_cli() {
  return {"kad", "KAD", "records", /*peer_joins=*/false,
          {{"standard", nullptr, core::kad_standard},
           {"quick", "--quick", core::kad_quick},
           {"longhaul", "--longhaul", core::kad_longhaul}},
          {{"--honeypots", "<n>",
            [](core::KadStudyConfig& cfg, const char* v) {
              return parse_uint(v, cfg.honeypots, 1, 256);
            }}},
          [](std::ostream& out, const core::KadStudyConfig& cfg,
             const std::string& run) {
            out << cfg.population.users << " users, " << cfg.population.servers
                << " index servers, " << cfg.honeypots << " honeypots, " << run;
          },
          core::run_kad_study,
          {Section::kPrevalence, Section::kStrains, Section::kSources,
           Section::kHoneypots}};
}

}  // namespace p2p::examples
