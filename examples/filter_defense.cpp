// Deploying the paper's size-based filter as a client-side defense.
//
// This example plays the role of a LimeWire user: it learns the filter from
// the first week of a crawl (the "community blocklist"), then replays the
// remaining weeks as if the user were downloading every exe/zip response —
// counting how many infections the filter would have prevented, how many
// slipped through, and how many clean downloads it would have cost.
//
//   ./filter_defense [--quick] [--top-strains N] [--sizes-per-strain M]
//                    [obs flags]
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>

#include "core/study.h"
#include "filter/evaluation.h"
#include "filter/size_filter.h"
#include "obs/export.h"
#include "obs_cli.h"
#include "util/strings.h"
#include "util/table.h"

namespace {
int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--quick] [--top-strains N] [--sizes-per-strain M]"
            << p2p::examples::ObsCli::kUsage << "\n";
  return 2;
}
}  // namespace

int main(int argc, char** argv) {
  using namespace p2p;
  auto cfg = core::limewire_standard();
  filter::SizeFilterConfig filter_cfg;
  examples::ObsCli obs_cli;
  for (int i = 1; i < argc; ++i) {
    bool obs_err = false;
    if (obs_cli.parse(argc, argv, i, &obs_err)) {
      if (obs_err) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      cfg = core::limewire_quick();
    } else if (std::strcmp(argv[i], "--top-strains") == 0 && i + 1 < argc) {
      if (!examples::parse_uint(argv[++i], filter_cfg.top_strains)) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--sizes-per-strain") == 0 && i + 1 < argc) {
      if (!examples::parse_uint(argv[++i], filter_cfg.sizes_per_strain)) {
        return usage(argv[0]);
      }
    } else {
      return usage(argv[0]);
    }
  }
  cfg.timeseries = obs_cli.timeseries_config();
  if (!obs_cli.activate()) return 2;
  auto progress = obs_cli.make_progress();
  std::optional<obs::ProgressReporter::Scope> progress_scope;
  if (progress != nullptr) progress_scope.emplace(*progress);

  std::cout << "Crawling to collect training + exposure data...\n";
  auto result = core::run_limewire_study(cfg);
  auto split = filter::split_at_fraction(result.records, 0.25);
  auto size_filter = filter::SizeFilter::learn(split.training, filter_cfg);

  std::cout << "Learned " << size_filter.blocked_sizes().size()
            << " blocked sizes from the first quarter of the crawl:\n ";
  for (auto s : size_filter.blocked_sizes()) std::cout << " " << s;
  std::cout << "\n\n";

  // Replay the user's exposure.
  std::uint64_t infections_prevented = 0;
  std::uint64_t infections_suffered = 0;
  std::uint64_t clean_lost = 0;
  std::uint64_t clean_kept = 0;
  for (const auto& rec : split.evaluation) {
    if (!rec.is_study_type() || !rec.downloaded) continue;
    bool blocked = size_filter.blocks(rec);
    if (rec.infected) {
      (blocked ? infections_prevented : infections_suffered)++;
    } else {
      (blocked ? clean_lost : clean_kept)++;
    }
  }

  util::Table t({"outcome", "downloads"});
  t.add_row({"infections prevented", util::format_count(infections_prevented)});
  t.add_row({"infections suffered", util::format_count(infections_suffered)});
  t.add_row({"clean downloads kept", util::format_count(clean_kept)});
  t.add_row({"clean downloads lost (false positives)", util::format_count(clean_lost)});
  std::cout << t.render() << "\n";

  double detection =
      infections_prevented + infections_suffered == 0
          ? 0.0
          : static_cast<double>(infections_prevented) /
                static_cast<double>(infections_prevented + infections_suffered);
  std::cout << "Detection " << util::format_pct(detection) << " at "
            << util::format_pct(
                   clean_lost + clean_kept == 0
                       ? 0.0
                       : static_cast<double>(clean_lost) /
                             static_cast<double>(clean_lost + clean_kept),
                   3)
            << " false positives — the paper's \"over 99% vs very low\" result.\n";

  if (!obs_cli.write_timeseries(result.timeseries)) return 1;
  if (!obs_cli.write_profile()) return 1;
  if (!obs_cli.write_trace()) return 1;
  if (!obs_cli.metrics_path.empty()) {
    std::ofstream out(obs_cli.metrics_path);
    if (!out) {
      std::cerr << "cannot write " << obs_cli.metrics_path << "\n";
      return 1;
    }
    obs::write_json(out, result.metrics);
    std::cout << "wrote metrics snapshot to " << obs_cli.metrics_path << "\n";
  }
  return 0;
}
