// Trace-store workbench: record a study into a binary trace, inspect the
// store's header and block structure, replay it through the full analysis
// pipeline, or dump its records as CSV. A replayed report is byte-identical
// to the one the recording run produced (--json), which is what decouples
// month-scale collection from offline analysis — see the README's
// "Recording and replaying a study" and the format section in DESIGN.md.
//
// Every command accepts either a single `.p2pt` file or a `.p2ps` segment
// directory (time-sharded capture; see DESIGN.md "Segmented trace
// storage"). A directory replay can fan segments out across --jobs threads
// and emit windowed rolling analytics (--windows) while never holding the
// full record stream in memory.
//
//   ./trace record --network limewire|openft|kad [--quick|--longhaul]
//                  [--seed <n>] [--segment-hours <n>] <file|dir.p2ps>
//   ./trace inspect <file|dir>
//   ./trace replay <file|dir> [--json <path>] [--jobs <n>] [--windows <csv>]
//   ./trace cat <file|dir> [--csv <path>]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "analysis/csv.h"
#include "core/report.h"
#include "obs/metrics.h"
#include "obs_cli.h"
#include "replay_dir.h"
#include "study_cli.h"
#include "trace/reader.h"
#include "trace/storage.h"
#include "util/strings.h"

namespace {

using namespace p2p;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " <command> ...\n"
            << "  record --network limewire|openft|kad [--quick|--longhaul]"
               " [--seed <n>] [--segment-hours <n>] <file|dir.p2ps>\n"
            << "  inspect <file|dir>\n"
            << "  replay <file|dir> [--json <path>] [--jobs <n>] [--windows <csv>]\n"
            << "  cat <file|dir> [--csv <path>]\n"
            << "  --list-presets\n"
            << "every command also accepts the obs flags:\n "
            << examples::ObsCli::kUsage << "\n";
  return 2;
}

// Record one preset study of the network `cli` describes into `file`; the
// backend (single file vs segment directory) is picked from the path shape.
template <typename Config>
int record_study(const examples::StudyCli<Config>& cli, const char* preset,
                 std::optional<std::uint64_t> seed, const std::string& file,
                 const trace::StorageOptions& storage,
                 const examples::ObsCli& obs_cli) {
  auto p = std::find_if(cli.presets.begin(), cli.presets.end(),
                        [&](const auto& p) { return std::strcmp(p.name, preset) == 0; });
  if (p == cli.presets.end()) {
    std::cerr << "--" << preset << " is not a " << cli.network << " preset\n";
    return 2;
  }
  if (!obs_cli.activate()) return 2;
  auto progress = obs_cli.make_progress();
  std::optional<obs::ProgressReporter::Scope> progress_scope;
  if (progress != nullptr) progress_scope.emplace(*progress);

  Config cfg = p->make();
  if (seed) cfg.seed = *seed;
  cfg.timeseries = obs_cli.timeseries_config();
  auto writer = trace::open_storage_writer(
      file, examples::capture_header(cli, cfg, "trace record", preset), storage);
  if (!writer->ok()) {
    std::cerr << "cannot write " << file << "\n";
    return 1;
  }
  core::StudyResult result;
  if (!examples::run_captured(cli, cfg, writer.get(), result)) {
    std::cerr << "failed writing " << file << "\n";
    return 1;
  }
  std::cout << "recorded " << util::format_count(writer->records_written())
            << " records (" << util::format_count(writer->bytes_written())
            << " bytes";
  if (trace::is_segment_path(file)) {
    std::cout << ", " << util::format_count(writer->segments_written())
              << " segments";
  }
  std::cout << ") to " << file << "\n";
  if (!obs_cli.write_timeseries(result.timeseries)) return 1;
  return 0;
}

int cmd_record(int argc, char** argv, const char* argv0,
               examples::ObsCli& obs_cli) {
  std::string network = "limewire", file;
  bool quick = false, longhaul = false;
  std::optional<std::uint64_t> seed;
  trace::StorageOptions storage;
  for (int i = 0; i < argc; ++i) {
    bool obs_err = false;
    std::uint64_t n = 0;
    if (obs_cli.parse(argc, argv, i, &obs_err)) {
      if (obs_err) return usage(argv0);
    } else if (std::strcmp(argv[i], "--network") == 0 && i + 1 < argc) {
      network = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--longhaul") == 0) {
      longhaul = true;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      if (!examples::parse_uint(argv[++i], n)) return usage(argv0);
      seed = n;
    } else if (std::strcmp(argv[i], "--segment-hours") == 0 && i + 1 < argc) {
      if (!examples::parse_uint(argv[++i], n, 1, 24 * 365)) return usage(argv0);
      storage.segment_window_ms = static_cast<std::int64_t>(n) * 3'600'000ll;
    } else if (argv[i][0] != '-' && file.empty()) {
      file = argv[i];
    } else {
      return usage(argv0);
    }
  }
  if (file.empty()) return usage(argv0);
  if (quick && longhaul) {
    std::cerr << "--quick and --longhaul are mutually exclusive\n";
    return 2;
  }
  const char* preset = longhaul ? "longhaul" : (quick ? "quick" : "standard");
  if (network == "limewire") {
    return record_study(examples::limewire_cli(), preset, seed, file, storage, obs_cli);
  }
  if (network == "openft") {
    return record_study(examples::openft_cli(), preset, seed, file, storage, obs_cli);
  }
  if (network == "kad") {
    return record_study(examples::kad_cli(), preset, seed, file, storage, obs_cli);
  }
  return usage(argv0);
}

void print_header(const trace::TraceHeader& h) {
  char hash[17];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(h.config_hash));
  std::cout << "  version:        " << h.version << "\n"
            << "  network:        " << h.network << "\n"
            << "  config hash:    " << hash << "\n"
            << "  seed:           " << h.seed << "\n"
            << "  crawl duration: " << h.crawl_duration_ms / 3'600'000.0
            << " hours\n";
  for (const auto& [key, value] : h.meta) {
    std::cout << "  meta " << key << ": " << value << "\n";
  }
}

int cmd_inspect(const std::string& file) {
  auto reader = trace::open_storage_reader(file);
  if (!reader->ok()) {
    std::cerr << file << ": " << reader->error_message() << "\n";
    return 1;
  }
  std::cout << file << ":\n";
  print_header(reader->header());
  crawler::ResponseRecord rec;
  std::uint64_t infected = 0;
  while (reader->next(rec)) {
    if (rec.infected) ++infected;
  }
  const auto& stats = reader->stats();
  std::cout << "  records:        " << util::format_count(stats.records_read)
            << " (" << util::format_count(infected) << " infected)\n"
            << "  blocks:         " << util::format_count(stats.blocks_read)
            << " ok, " << util::format_count(stats.blocks_corrupt) << " corrupt, "
            << util::format_count(stats.blocks_skipped) << " unknown kind\n"
            << "  bytes:          " << util::format_count(stats.bytes_read) << "\n";
  if (trace::is_segment_path(file)) {
    std::cout << "  segments:       " << util::format_count(stats.segments_read)
              << " ok, " << util::format_count(stats.segments_corrupt)
              << " dropped\n";
  }
  std::cout << "  summary block:  " << (reader->summary() ? "yes" : "no") << "\n";
  if (stats.truncated_tail) std::cout << "  WARNING: truncated tail\n";
  if (!stats.clean()) {
    std::cerr << file
              << ": trace is damaged (corrupt blocks, dropped segments, or "
                 "truncated tail)\n";
    return 1;
  }
  return 0;
}

int cmd_replay(const std::string& file, const std::string& json_path,
               std::size_t jobs, const std::string& windows_path,
               const examples::ObsCli& obs_cli) {
  if (trace::is_segment_path(file)) {
    // Out-of-core map-reduce replay; damage is contained per segment and
    // reported, unlike the single-file path which refuses damaged input.
    return examples::run_replay_dir(file, jobs, /*expect_network=*/"",
                                    json_path, windows_path);
  }
  if (jobs != 1) {
    std::cerr << "--jobs requires a segment directory (single-file replay is "
                 "one pass)\n";
    return 2;
  }
  if (!windows_path.empty()) {
    std::cerr << "--windows requires a segment directory\n";
    return 2;
  }
  auto start = std::chrono::steady_clock::now();
  trace::TraceData data = trace::read_trace_file(file);
  if (!data.ok()) {
    std::cerr << file << ": " << data.error_message << "\n";
    return 1;
  }
  // Replay is an analysis input, not a salvage path: any damage fails loudly
  // instead of producing a report over silently partial data.
  if (!data.stats.clean()) {
    std::cerr << file << ": refusing to replay a damaged trace ("
              << data.stats.blocks_corrupt << " corrupt blocks"
              << (data.stats.truncated_tail ? ", truncated tail" : "") << ")\n";
    return 1;
  }
  double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              start)
                    .count();
  double rate = secs > 0.0 ? static_cast<double>(data.records.size()) / secs : 0.0;
  obs::MetricsRegistry::global()
      .gauge("trace.replay_records_per_sec")
      .set(static_cast<std::int64_t>(rate));

  std::cout << "Replaying " << data.header.network << " study from " << file
            << ": " << util::format_count(data.records.size()) << " records ("
            << util::format_count(static_cast<std::uint64_t>(rate)) << " records/s)\n\n";

  auto report = core::build_report(data.records, data.header.network);
  if (data.summary) {
    core::attach_fault_report(report, data.summary->faults_enabled,
                              data.summary->fault_counters,
                              data.summary->crawl_stats);
    core::attach_kad_coverage(report, data.records, data.summary->metrics);
    report.timeseries = data.summary->timeseries;
  }
  examples::print_sections(std::cout, report, examples::kReplaySections);

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    core::write_report_json(out, report);
    std::cout << "wrote report JSON to " << json_path << "\n";
  }
  if (!obs_cli.write_timeseries(report.timeseries)) return 1;
  return 0;
}

int cmd_cat(const std::string& file, const std::string& csv_path) {
  if (trace::is_segment_path(file)) {
    // Stream segment by segment — the full record set is never materialized,
    // so a multi-month capture cats in constant memory. Per-segment damage
    // is contained: dropped segments are reported and the dump continues.
    auto reader = trace::open_storage_reader(file);
    if (!reader->ok()) {
      std::cerr << file << ": " << reader->error_message() << "\n";
      return 1;
    }
    std::ofstream file_out;
    bool to_stdout = csv_path.empty() || csv_path == "-";
    if (!to_stdout) {
      file_out.open(csv_path, std::ios::binary);
      if (!file_out) {
        std::cerr << "cannot write " << csv_path << "\n";
        return 1;
      }
    }
    std::ostream& out = to_stdout ? std::cout : file_out;
    analysis::write_csv_header(out);
    crawler::ResponseRecord rec;
    while (reader->next(rec)) analysis::write_csv_record(out, rec);
    const auto& stats = reader->stats();
    if (!to_stdout) {
      std::cerr << "wrote " << stats.records_read << " records to " << csv_path
                << "\n";
    }
    if (!stats.clean()) {
      std::cerr << file << ": damage contained (" << stats.segments_corrupt
                << " segments dropped, " << stats.blocks_corrupt
                << " corrupt blocks)\n";
    }
    return 0;
  }
  trace::TraceData data = trace::read_trace_file(file);
  if (!data.ok()) {
    std::cerr << file << ": " << data.error_message << "\n";
    return 1;
  }
  if (!data.stats.clean()) {
    std::cerr << file << ": trace is damaged (corrupt blocks or truncated tail)\n";
    return 1;
  }
  if (csv_path.empty() || csv_path == "-") {
    analysis::write_csv(std::cout, data.records);
  } else {
    std::ofstream out(csv_path, std::ios::binary);
    if (!out) {
      std::cerr << "cannot write " << csv_path << "\n";
      return 1;
    }
    analysis::write_csv(out, data.records);
    std::cerr << "wrote " << data.records.size() << " records to " << csv_path
              << "\n";
  }
  return 0;
}

// Obs outputs shared by every command (the timeseries export is per-command:
// record/replay have a real series to write, inspect/cat none).
int write_obs_outputs(const examples::ObsCli& obs_cli) {
  if (!obs_cli.metrics_path.empty()) {
    std::ofstream out(obs_cli.metrics_path);
    if (!out) {
      std::cerr << "cannot write " << obs_cli.metrics_path << "\n";
      return 1;
    }
    obs::write_json(out, obs::MetricsRegistry::global().snapshot());
    std::cout << "wrote metrics snapshot to " << obs_cli.metrics_path << "\n";
  }
  if (!obs_cli.write_profile()) return 1;
  if (!obs_cli.write_trace()) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  std::string cmd = argv[1];
  if (cmd == "--list-presets") {
    core::print_presets(std::cout);
    return 0;
  }
  examples::ObsCli obs_cli;
  if (cmd == "record") {
    int rc = cmd_record(argc - 2, argv + 2, argv[0], obs_cli);
    return rc != 0 ? rc : write_obs_outputs(obs_cli);
  }

  // The remaining commands take one file/directory plus optional flags.
  std::string file, json_path, csv_path, windows_path;
  std::size_t jobs = 1;
  for (int i = 2; i < argc; ++i) {
    bool obs_err = false;
    if (obs_cli.parse(argc, argv, i, &obs_err)) {
      if (obs_err) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      csv_path = argv[++i];
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      if (!examples::parse_uint(argv[++i], jobs, 1, 256)) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--windows") == 0 && i + 1 < argc) {
      windows_path = argv[++i];
    } else if (argv[i][0] != '-' && file.empty()) {
      file = argv[i];
    } else {
      return usage(argv[0]);
    }
  }
  if (cmd != "replay" && (jobs != 1 || !windows_path.empty())) {
    return usage(argv[0]);
  }
  if (!obs_cli.activate()) return 2;
  int rc;
  if (cmd == "inspect" && !file.empty()) {
    rc = cmd_inspect(file);
    if (rc == 0 && !obs_cli.write_timeseries(obs::TimeSeries{})) rc = 1;
  } else if (cmd == "replay" && !file.empty()) {
    rc = cmd_replay(file, json_path, jobs, windows_path, obs_cli);
  } else if (cmd == "cat" && !file.empty()) {
    rc = cmd_cat(file, csv_path);
    if (rc == 0 && !obs_cli.write_timeseries(obs::TimeSeries{})) rc = 1;
  } else {
    return usage(argv[0]);
  }
  return rc != 0 ? rc : write_obs_outputs(obs_cli);
}
