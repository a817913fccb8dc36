// Passive instrumentation of the Gnutella overlay: join an instrumented
// ultrapeer to a network where honest leaves issue their own (organic)
// queries, and characterize the query workload passing through — the
// observational half of "we instrument two different open source P2P
// networks".
//
//   ./query_observatory [--hours N] [--leaves N] [obs flags]
#include <cstring>
#include <fstream>
#include <iostream>

#include "agents/churn.h"
#include "agents/population.h"
#include "crawler/observatory.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs_cli.h"
#include "util/strings.h"
#include "util/table.h"

namespace {
int usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " [--hours N] [--leaves N]"
            << p2p::examples::ObsCli::kUsage << "\n";
  return 2;
}
}  // namespace

int main(int argc, char** argv) {
  using namespace p2p;
  int hours = 12;
  std::size_t leaves = 200;
  examples::ObsCli obs_cli;
  for (int i = 1; i < argc; ++i) {
    bool obs_err = false;
    if (obs_cli.parse(argc, argv, i, &obs_err)) {
      if (obs_err) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--hours") == 0 && i + 1 < argc) {
      hours = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--leaves") == 0 && i + 1 < argc) {
      leaves = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else {
      return usage(argv[0]);
    }
  }
  if (!obs_cli.activate()) return 2;

  sim::Network net(4711);
  agents::GnutellaPopulationConfig pop_cfg;
  pop_cfg.seed = 4711;
  pop_cfg.ultrapeers = 12;
  pop_cfg.leaves = leaves;
  pop_cfg.corpus.num_titles = 800;
  // Leaves behave like users: one query every ~20 minutes while online.
  pop_cfg.organic_query_interval = sim::SimDuration::minutes(20);
  auto pop = agents::build_gnutella_population(net, pop_cfg);

  crawler::QueryObservatory observatory(net, pop.host_cache, 99);

  agents::ChurnConfig churn_cfg;
  churn_cfg.seed = 5;
  agents::ChurnDriver churn(net, std::move(pop.leaf_specs), churn_cfg);
  churn.start();

  std::cout << "Observing " << leaves << " leaves for " << hours
            << " simulated hours...\n\n";
  net.engine().run_until(sim::SimTime::zero() + sim::SimDuration::hours(hours));

  std::cout << "queries observed: " << util::format_count(observatory.total_queries())
            << " (" << util::format_count(observatory.distinct_queries())
            << " distinct)\n\n";

  util::Table top({"rank", "query", "count"});
  auto ranked = observatory.top_queries(15);
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    top.add_row({std::to_string(i + 1), ranked[i].text,
                 util::format_count(ranked[i].count)});
  }
  std::cout << top.render() << "\n";

  util::Table hops({"hops", "queries"});
  for (const auto& [hop, count] : observatory.hop_histogram()) {
    hops.add_row({std::to_string(hop), util::format_count(count)});
  }
  std::cout << hops.render() << "\n";

  std::cout << "log-log popularity slope: " << observatory.zipf_slope()
            << " (catalog Zipf exponent: " << -pop_cfg.corpus.zipf_exponent
            << "; an observed slope of similar magnitude validates the "
               "crawler's popularity-weighted replay workload)\n";

  // The observatory runs the sim in one shot rather than a study loop, so
  // --timeseries yields an empty series; the flag set stays uniform.
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
