// Passive-worm epidemic with and without the paper's defense deployed.
//
// The study's actionable conclusion is that size-based filtering blocks
// >99% of malicious responses. This example asks the follow-up question
// the worm-propagation literature citing the paper cares about: if every
// client shipped that filter, would the worm still spread? It runs the
// same 14-day epidemic twice — unprotected and with the filter deployed —
// and prints the infection curves side by side.
//
//   ./epidemic [--days N] [--users N] [--execute-prob P] [obs flags]
#include <cstring>
#include <fstream>
#include <iostream>

#include "agents/epidemic.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs_cli.h"
#include "util/strings.h"
#include "util/table.h"

namespace {
int usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " [--days N] [--users N] [--execute-prob P]"
            << p2p::examples::ObsCli::kUsage << "\n";
  return 2;
}
}  // namespace

int main(int argc, char** argv) {
  using namespace p2p;
  agents::EpidemicSimulation::Config base;
  base.corpus.num_titles = 400;
  base.users = 100;
  base.duration = sim::SimDuration::days(7);
  base.sample_interval = sim::SimDuration::hours(24);
  examples::ObsCli obs_cli;
  for (int i = 1; i < argc; ++i) {
    bool obs_err = false;
    if (obs_cli.parse(argc, argv, i, &obs_err)) {
      if (obs_err) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--days") == 0 && i + 1 < argc) {
      int days = 0;
      if (!examples::parse_uint(argv[++i], days)) return usage(argv[0]);
      base.duration = sim::SimDuration::days(days);
    } else if (std::strcmp(argv[i], "--users") == 0 && i + 1 < argc) {
      if (!examples::parse_uint(argv[++i], base.users)) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--execute-prob") == 0 && i + 1 < argc) {
      base.behavior.execute_prob = std::atof(argv[++i]);
    } else {
      return usage(argv[0]);
    }
  }
  if (!obs_cli.activate()) return 2;

  std::cout << "Simulating a passive-worm epidemic: " << base.users << " users, "
            << base.initial_infected << " initial worm hosts, "
            << base.duration.count_ms() / 86'400'000 << " days, execute prob "
            << base.behavior.execute_prob << "\n\n";

  auto unprotected = base;
  agents::EpidemicSimulation sim_off(unprotected);
  sim_off.run();

  auto protected_cfg = base;
  protected_cfg.deploy_size_filter = true;
  agents::EpidemicSimulation sim_on(protected_cfg);
  sim_on.run();

  util::Table t({"time", "infected (no filter)", "infected (size filter)"});
  const auto& off = sim_off.infection_curve();
  const auto& on = sim_on.infection_curve();
  for (std::size_t i = 0; i < off.size() && i < on.size(); ++i) {
    t.add_row({off[i].at.str().substr(0, 3), std::to_string(off[i].infected),
               std::to_string(on[i].infected)});
  }
  std::cout << t.render() << "\n";

  std::cout << "final prevalence without filter: "
            << util::format_pct(static_cast<double>(sim_off.infected_count()) /
                                static_cast<double>(sim_off.user_count()))
            << "\n";
  std::cout << "final prevalence with filter:    "
            << util::format_pct(static_cast<double>(sim_on.infected_count()) /
                                static_cast<double>(sim_on.user_count()))
            << " (" << util::format_count(sim_on.total_downloads_blocked())
            << " worm downloads blocked)\n";

  // The epidemic has no study loop, so --timeseries yields an empty series;
  // the flag set stays uniform across every example binary.
  if (!obs_cli.write_timeseries(obs::TimeSeries{})) return 1;
  if (!obs_cli.write_profile()) return 1;
  if (!obs_cli.write_trace()) return 1;
  if (!obs_cli.metrics_path.empty()) {
    std::ofstream out(obs_cli.metrics_path);
    if (!out) {
      std::cerr << "cannot write " << obs_cli.metrics_path << "\n";
      return 1;
    }
    obs::write_json(out, obs::MetricsRegistry::global().snapshot());
    std::cout << "wrote metrics snapshot to " << obs_cli.metrics_path << "\n";
  }
  return 0;
}
