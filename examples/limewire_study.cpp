// Full LimeWire measurement study: runs the standard 30-day configuration
// (or --quick), prints every analysis the paper reports for this network,
// and exports the raw response log to CSV for offline analysis.
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
//   ./limewire_study [--quick] [--csv <path>] [--seed <n>] [--json <path>]
//                    [--record <trace>|--replay <trace>]
//                    [--record-dir <dir>|--replay-dir <dir>]
//                    [--replay-jobs <n>] [--windows <csv>]
//                    [--faults <preset|spec>] [--fault-seed <n>]
//                    [--shards <n>] [--soa]
//                    [obs flags — see examples/obs_cli.h]
//
// --shards N (default 1) runs the study on N engine shards, one worker
// thread each; output is byte-identical for every N (see README "Scaling a
// study across cores"). --soa (with --shards) swaps in the reduced SoA
// capacity model (core/shard_study) instead — the population-scaling
// variant.
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>

#include "analysis/csv.h"
#include "analysis/stats.h"
#include "core/report.h"
#include "core/study.h"
#include "fault/fault.h"
#include "obs_cli.h"
#include "replay_dir.h"
#include "trace/segment.h"
#include "trace/writer.h"
#include "util/strings.h"

namespace {
int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--quick] [--csv <path>] [--seed <n>] [--json <path>]"
               " [--record <trace>|--replay <trace>]"
               " [--record-dir <dir>|--replay-dir <dir>] [--replay-jobs <n>]"
               " [--windows <csv>]"
               " [--faults <none|mild|moderate|severe|k=v,...>]"
               " [--fault-seed <n>] [--shards <n>] [--soa] [--list-presets]"
            << p2p::examples::ObsCli::kUsage << "\n";
  return 2;
}
}  // namespace

int main(int argc, char** argv) {
  using namespace p2p;
  auto cfg = core::limewire_standard();
  bool quick = false;
  std::string csv_path, json_path, record_path, replay_path;
  std::string record_dir, replay_dir, windows_path;
  std::size_t replay_jobs = 1;
  std::string faults_spec;
  std::uint64_t fault_seed = 0;
  std::uint64_t shards = 0;
  examples::ObsCli obs_cli;
  for (int i = 1; i < argc; ++i) {
    bool obs_err = false;
    if (obs_cli.parse(argc, argv, i, &obs_err)) {
      if (obs_err) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      cfg = core::limewire_quick();
      quick = true;
    } else if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      csv_path = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--record") == 0 && i + 1 < argc) {
      record_path = argv[++i];
    } else if (std::strcmp(argv[i], "--replay") == 0 && i + 1 < argc) {
      replay_path = argv[++i];
    } else if (std::strcmp(argv[i], "--record-dir") == 0 && i + 1 < argc) {
      record_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--replay-dir") == 0 && i + 1 < argc) {
      replay_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--replay-jobs") == 0 && i + 1 < argc) {
      char* end = nullptr;
      replay_jobs = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || replay_jobs == 0 ||
          replay_jobs > 256) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--windows") == 0 && i + 1 < argc) {
      windows_path = argv[++i];
    } else if (std::strcmp(argv[i], "--faults") == 0 && i + 1 < argc) {
      faults_spec = argv[++i];
    } else if (std::strcmp(argv[i], "--fault-seed") == 0 && i + 1 < argc) {
      fault_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      char* end = nullptr;
      shards = std::strtoull(argv[++i], &end, 10);
      // Reject junk and wrapped negatives ("-3" parses as 2^64-3).
      if (end == argv[i] || *end != '\0' || shards == 0 || shards > 4096) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--soa") == 0) {
      cfg.soa_capacity = true;
    } else if (std::strcmp(argv[i], "--list-presets") == 0) {
      core::print_presets(std::cout);
      return 0;
    } else {
      return usage(argv[0]);
    }
  }
  cfg.timeseries = obs_cli.timeseries_config();
  cfg.shards = shards;
  if (cfg.soa_capacity && shards == 0) {
    std::cerr << "--soa requires --shards\n";
    return 2;
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
      return usage(argv[0]);
    }
    core::apply_faults(cfg, *parsed, fault_seed);
    if (cfg.faults.enabled()) {
      std::cout << "Fault injection: " << fault::describe(cfg.faults) << "\n";
    }
  }

  if (!obs_cli.activate()) return 2;
  auto progress = obs_cli.make_progress();

  if (!replay_dir.empty()) {
    return examples::run_replay_dir(replay_dir, replay_jobs, "limewire",
                                    json_path, windows_path);
  }

  core::StudyResult result;
  if (!replay_path.empty()) {
    if (!core::load_study_trace(replay_path, result)) {
      std::cerr << "cannot replay " << replay_path
                << ": missing, corrupt, or incomplete trace\n";
      return 1;
    }
    std::cout << "Replaying LimeWire study from " << replay_path << ": "
              << util::format_count(result.records.size()) << " responses\n";
  } else {
    std::cout << "Running LimeWire study: " << cfg.population.leaves
              << " leaves, " << cfg.population.ultrapeers << " ultrapeers, "
              << cfg.crawl.duration.count_ms() / 86'400'000 << " days, seed "
              << cfg.seed << "\n";
    std::optional<obs::ProgressReporter::Scope> progress_scope;
    if (progress != nullptr) progress_scope.emplace(*progress);
    const std::string& capture_path =
        !record_dir.empty() ? record_dir : record_path;
    std::unique_ptr<trace::StorageWriter> writer;
    if (!capture_path.empty()) {
      trace::TraceHeader header;
      header.network = "limewire";
      header.config_hash = core::config_hash(cfg);
      header.seed = cfg.seed;
      header.crawl_duration_ms = cfg.crawl.duration.count_ms();
      header.meta = {{"tool", "limewire_study"},
                     {"preset", quick ? "quick" : "standard"}};
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
    result = core::run_limewire_study(cfg, writer.get());
    if (writer != nullptr) {
      writer->write_summary(core::study_summary(result));
      writer->close();
      if (!writer->ok()) {
        std::cerr << "failed writing trace " << capture_path << "\n";
        return 1;
      }
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
            << util::format_count(result.records.size()) << " responses, "
            << util::format_count(result.churn_joins) << " peer joins\n\n";

  auto report = core::build_report(result.records, "limewire");
  core::attach_fault_report(report, result.faults_enabled, result.fault_counters,
                            result.crawl_stats);
  report.timeseries = result.timeseries;
  core::print_prevalence(std::cout, "limewire", report.prevalence);
  core::print_strain_ranking(std::cout, "limewire", report.strain_ranking);
  core::print_sources(std::cout, "limewire", report.sources, report.strain_sources);
  core::print_size_analysis(std::cout, "limewire", report.size_buckets,
                            report.sizes_per_strain);
  core::print_daily_series(std::cout, "limewire", report.days);
  core::print_filter_comparison(std::cout, "limewire", report.filter_evals);

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
    core::print_metrics(std::cout, "limewire", result.metrics);
    std::cout << "wrote metrics snapshot to " << obs_cli.metrics_path << "\n";
  }
  if (!obs_cli.write_timeseries(result.timeseries)) return 1;
  if (!obs_cli.write_profile()) return 1;
  if (!obs_cli.write_trace()) return 1;
  return 0;
}
