// Shared --replay-dir driver for the study CLIs (limewire/openft/kad) and
// `trace replay`: out-of-core map-reduce replay of a segment directory via
// core::replay_segment_dir, printing the study's standard sections and
// writing the report JSON / windowed CSV. The JSON is byte-identical to the
// recording run's --json at any --replay-jobs count.
#pragma once

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/windowed.h"
#include "core/replay.h"
#include "core/report.h"
#include "obs/metrics.h"
#include "util/strings.h"

namespace p2p::examples {

/// The printable sections of a study report.
enum class Section { kPrevalence, kStrains, kSources, kSizes, kDaily, kFilters, kHoneypots };

/// What a replay prints: every section a capture can fill (the honeypot
/// coverage prints nothing outside KAD).
inline const std::vector<Section> kReplaySections = {
    Section::kPrevalence, Section::kStrains, Section::kSources,
    Section::kFilters, Section::kHoneypots};

inline void print_sections(std::ostream& out, const core::Report& report,
                           const std::vector<Section>& sections) {
  const std::string& net = report.network;
  for (Section s : sections) {
    switch (s) {
      case Section::kPrevalence:
        core::print_prevalence(out, net, report.prevalence);
        break;
      case Section::kStrains:
        core::print_strain_ranking(out, net, report.strain_ranking);
        break;
      case Section::kSources:
        core::print_sources(out, net, report.sources, report.strain_sources);
        break;
      case Section::kSizes:
        core::print_size_analysis(out, net, report.size_buckets,
                                  report.sizes_per_strain);
        break;
      case Section::kDaily:
        core::print_daily_series(out, net, report.days);
        break;
      case Section::kFilters:
        core::print_filter_comparison(out, net, report.filter_evals);
        break;
      case Section::kHoneypots:
        core::print_honeypot_coverage(out, net, report.honeypots);
        break;
    }
  }
}

inline int run_replay_dir(const std::string& dir, std::size_t jobs,
                          const std::string& expect_network,
                          const std::string& json_path,
                          const std::string& windows_path) {
  core::ReplayOptions options;
  options.jobs = jobs;
  auto start = std::chrono::steady_clock::now();
  auto result = core::replay_segment_dir(dir, options);
  if (!result.ok) {
    std::cerr << dir << ": " << result.error << "\n";
    return 1;
  }
  double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  double rate =
      secs > 0.0 ? static_cast<double>(result.stats.records_read) / secs : 0.0;
  obs::MetricsRegistry::global()
      .gauge("trace.replay_records_per_sec")
      .set(static_cast<std::int64_t>(rate));
  const core::Report& report = result.report;
  if (!expect_network.empty() && report.network != expect_network) {
    std::cerr << dir << ": capture network is \"" << report.network
              << "\", expected \"" << expect_network << "\"\n";
    return 1;
  }
  std::cout << "Replaying " << report.network << " study from " << dir << ": "
            << util::format_count(report.records) << " records across "
            << util::format_count(result.stats.segments_read) << " of "
            << util::format_count(result.segments_total) << " segments ("
            << jobs << (jobs == 1 ? " job)" : " jobs)") << "\n";
  if (result.stats.segments_corrupt > 0 || result.stats.blocks_corrupt > 0 ||
      result.stats.truncated_tail) {
    std::cout << "  damage contained: "
              << util::format_count(result.stats.segments_corrupt)
              << " segments dropped, "
              << util::format_count(result.stats.blocks_corrupt)
              << " corrupt blocks\n";
  }
  std::cout << "\n";

  print_sections(std::cout, report, kReplaySections);

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    core::write_report_json(out, report);
    std::cout << "wrote report JSON to " << json_path << "\n";
  }
  if (!windows_path.empty()) {
    std::ofstream out(windows_path, std::ios::binary);
    if (!out) {
      std::cerr << "cannot write " << windows_path << "\n";
      return 1;
    }
    analysis::write_window_csv(out, result.windows);
    std::cout << "wrote " << util::format_count(result.windows.size())
              << " windows to " << windows_path << "\n";
  }
  return 0;
}

}  // namespace p2p::examples
