#include "workloads.h"

#include <sstream>

#include "analysis/stats.h"
#include "obs/json.h"

namespace p2pbench {

Scale Scale::small() {
  Scale s;
  s.lw_ultrapeers = 20;
  s.lw_leaves = 320;
  s.lw_hours = 4;
  s.sweep_seeds = 2;
  s.capture_records = 60'000;
  s.capture_days = 6;
  return s;
}

sweep::StudyTask lw_scale_task(std::uint64_t seed, const Scale& scale,
                               std::size_t shards) {
  sweep::StudyTask task;
  task.network = sweep::NetworkKind::kLimewire;
  task.seed = sweep::derive_seed(seed, 0);
  task.limewire = core::limewire_standard();
  task.limewire.seed = task.seed;
  task.limewire.population.ultrapeers = scale.lw_ultrapeers;
  task.limewire.population.leaves = scale.lw_leaves;
  task.limewire.crawl.duration = p2p::util::SimDuration::hours(scale.lw_hours);
  task.limewire.shards = shards;
  return task;
}

std::vector<sweep::PlanConfig> sweep_bands_plans(std::uint64_t seed,
                                                 const Scale& scale) {
  std::vector<sweep::PlanConfig> plans;
  for (auto network : {sweep::NetworkKind::kLimewire, sweep::NetworkKind::kOpenFt,
                       sweep::NetworkKind::kKad}) {
    sweep::PlanConfig plan;
    plan.network = network;
    plan.quick = true;
    plan.base_seed = seed;
    plan.replications = scale.sweep_seeds;
    plan.shards = network == sweep::NetworkKind::kKad ? 0 : 1;
    plans.push_back(plan);
  }
  return plans;
}

core::StudyResult run_real_study(const sweep::StudyTask& task) {
  switch (task.network) {
    case sweep::NetworkKind::kLimewire:
      return core::run_limewire_study(task.limewire);
    case sweep::NetworkKind::kOpenFt:
      return core::run_openft_study(task.openft);
    case sweep::NetworkKind::kKad:
      return core::run_kad_study(task.kad);
  }
  throw std::logic_error("unknown network kind");
}

double task_sim_hours(const sweep::StudyTask& task) {
  const p2p::crawler::CrawlConfig& crawl =
      task.network == sweep::NetworkKind::kLimewire ? task.limewire.crawl
      : task.network == sweep::NetworkKind::kOpenFt ? task.openft.crawl
                                                    : task.kad.crawl;
  // Mirrors the drivers' run_until target: warm-up + crawl + 10 minutes.
  auto span = crawl.warmup + crawl.duration + p2p::util::SimDuration::minutes(10);
  return static_cast<double>(span.count_ms()) / 3'600'000.0;
}

core::Report study_report(const core::StudyResult& result,
                          sweep::NetworkKind network) {
  core::Report report =
      core::build_report(result.records, std::string(sweep::network_name(network)));
  core::attach_fault_report(report, result.faults_enabled, result.fault_counters,
                            result.crawl_stats);
  if (network == sweep::NetworkKind::kKad) {
    core::attach_kad_coverage(report, result.records, result.metrics);
  }
  report.timeseries = result.timeseries;
  return report;
}

std::string report_json(const core::Report& report) {
  std::ostringstream out;
  core::write_report_json(out, report);
  return out.str();
}

std::string study_document(const core::StudyResult& result,
                           const std::string& report_json) {
  std::ostringstream out;
  out << report_json;
  const auto& s = result.crawl_stats;
  out << "{\"events\":" << result.events_executed
      << ",\"messages\":" << result.messages_delivered
      << ",\"bytes\":" << result.bytes_delivered
      << ",\"churn_joins\":" << result.churn_joins
      << ",\"churn_leaves\":" << result.churn_leaves
      << ",\"queries_sent\":" << s.queries_sent << ",\"hits\":" << s.hits
      << ",\"responses\":" << s.responses
      << ",\"downloads_started\":" << s.downloads_started
      << ",\"downloads_ok\":" << s.downloads_ok << ",\"counters\":{";
  // Zero counters are skipped: a registry keeps every name registered
  // earlier in the process, so whether a zero appears depends on what ran
  // before, not on this study.
  bool first = true;
  for (const auto& c : result.metrics.counters) {
    if (c.value == 0) continue;
    out << (first ? "" : ",") << "\"" << p2p::obs::json_escape(c.name)
        << "\":" << c.value;
    first = false;
  }
  out << "}}\n";
  return out.str();
}

Headline headline(const core::Report& report) {
  Headline h;
  h.records = report.records;
  h.prevalence = report.prevalence.malicious_fraction();
  h.top3_share = p2p::analysis::topk_share(report.strain_ranking, 3);
  if (!report.filter_evals.empty()) {
    h.size_detection = report.filter_evals.front().detection_rate();
    h.size_false_pos = report.filter_evals.front().false_positive_rate();
  }
  return h;
}

Headline headline(const std::map<std::string, double>& values) {
  auto get = [&values](const char* name) {
    auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
  };
  Headline h;
  h.records = static_cast<std::uint64_t>(get("run.records"));
  h.prevalence = get("prevalence.malicious_fraction");
  h.top3_share = get("strains.top3_share");
  h.size_detection = get("filter.size_detection");
  h.size_false_pos = get("filter.size_false_positives");
  return h;
}

namespace {

struct Bands {
  double prevalence_lo, prevalence_hi;
  double top3_min;
  double detection_min;
  double false_pos_max;
};

// Deliberately wide: the paper's headlines (E1 68% LimeWire / 3% OpenFT,
// E2 top-3 99% / top-1 67%, E5 size filter >99% at ~0 false positives)
// with room for 8-hour crawls of small populations (40 quick seeds per
// network span E1 0.53-0.76 / 0.028-0.063 / 0.11-0.69 and size detection
// down to 0.75 / 0.73 / 0.53). An 8-hour OpenFT or KAD crawl can see no
// malicious response after the filter's training split, so those two have
// no detection floor. A miss means the model broke, not that a seed was
// unlucky. The synthetic capture is drawn at the standard KAD preset's
// E1 (37.9%) and E2 (top-3 80%), from every strain variant, so its bands
// are narrower and its size filter must detect.
Bands bands_for(const std::string& band) {
  if (band == "limewire") return {0.40, 0.90, 0.80, 0.50, 0.05};
  if (band == "openft") return {0.005, 0.20, 0.50, 0.00, 0.05};
  if (band == "kad") return {0.01, 1.00, 0.50, 0.00, 0.10};
  if (band == "capture") return {0.20, 0.60, 0.70, 0.70, 0.05};
  throw std::invalid_argument("unknown sanity band: " + band);
}

}  // namespace

std::string check_headline(const Headline& h, const std::string& band) {
  Bands b = bands_for(band);
  std::ostringstream why;
  if (h.records == 0) why << "no records; ";
  if (h.prevalence < b.prevalence_lo || h.prevalence > b.prevalence_hi) {
    why << "E1 prevalence " << h.prevalence << " outside [" << b.prevalence_lo
        << ", " << b.prevalence_hi << "]; ";
  }
  if (h.top3_share < b.top3_min) {
    why << "E2 top-3 share " << h.top3_share << " < " << b.top3_min << "; ";
  }
  if (h.size_detection < b.detection_min) {
    why << "E5 size-filter detection " << h.size_detection << " < "
        << b.detection_min << "; ";
  }
  if (h.size_false_pos > b.false_pos_max) {
    why << "E5 size-filter false positives " << h.size_false_pos << " > "
        << b.false_pos_max << "; ";
  }
  return why.str();
}

}  // namespace p2pbench
