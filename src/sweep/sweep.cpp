#include "sweep/sweep.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "core/report.h"
#include "filter/evaluation.h"
#include "malware/catalogs.h"
#include "filter/limewire_builtin.h"
#include "filter/size_filter.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/timeseries.h"
#include "util/pool.h"
#include "util/rng.h"

namespace p2p::sweep {

namespace {

using obs::json_number;

core::StudyResult run_task(const StudyTask& task) {
  switch (task.network) {
    case NetworkKind::kLimewire:
      return core::run_limewire_study(task.limewire);
    case NetworkKind::kOpenFt:
      return core::run_openft_study(task.openft);
    case NetworkKind::kKad:
      return core::run_kad_study(task.kad);
  }
  throw std::logic_error("unknown network kind");
}

}  // namespace

std::string_view network_name(NetworkKind kind) {
  switch (kind) {
    case NetworkKind::kLimewire:
      return "limewire";
    case NetworkKind::kOpenFt:
      return "openft";
    case NetworkKind::kKad:
      return "kad";
  }
  return "unknown";
}

std::uint64_t StudyTask::config_hash() const {
  switch (network) {
    case NetworkKind::kLimewire:
      return core::config_hash(limewire);
    case NetworkKind::kOpenFt:
      return core::config_hash(openft);
    case NetworkKind::kKad:
      return core::config_hash(kad);
  }
  return 0;
}

std::uint64_t derive_seed(std::uint64_t base_seed, std::size_t task_index) {
  // The splitmix64 stream over `base_seed`, jumped ahead to `task_index`:
  // pure in (base, index), so identical under any scheduling, and
  // decorrelated even for adjacent bases or indices.
  std::uint64_t state =
      base_seed + 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(task_index);
  return util::splitmix64(state);
}

std::vector<StudyTask> plan(const PlanConfig& config) {
  std::vector<std::uint64_t> seeds = config.seeds;
  if (seeds.empty()) {
    seeds.reserve(config.replications);
    for (std::size_t i = 0; i < config.replications; ++i) {
      seeds.push_back(derive_seed(config.base_seed, i));
    }
  }
  std::vector<StudyTask> tasks;
  tasks.reserve(seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    StudyTask t;
    t.index = i;
    t.seed = seeds[i];
    t.network = config.network;
    if (config.network == NetworkKind::kLimewire) {
      t.limewire = config.quick ? core::limewire_quick() : core::limewire_standard();
      t.limewire.seed = seeds[i];
      if (config.duration) t.limewire.crawl.duration = *config.duration;
      core::apply_faults(t.limewire, config.faults, config.fault_seed);
      t.limewire.timeseries = config.timeseries;
      t.limewire.shards = config.shards;
    } else if (config.network == NetworkKind::kOpenFt) {
      t.openft = config.quick ? core::openft_quick() : core::openft_standard();
      t.openft.seed = seeds[i];
      if (config.duration) t.openft.crawl.duration = *config.duration;
      core::apply_faults(t.openft, config.faults, config.fault_seed);
      t.openft.timeseries = config.timeseries;
      t.openft.shards = config.shards;
    } else {
      // KAD always runs on one shard; config.shards is documented as ignored.
      t.kad = config.quick ? core::kad_quick() : core::kad_standard();
      t.kad.seed = seeds[i];
      if (config.duration) t.kad.crawl.duration = *config.duration;
      core::apply_faults(t.kad, config.faults, config.fault_seed);
      t.kad.timeseries = config.timeseries;
    }
    tasks.push_back(std::move(t));
  }
  return tasks;
}

std::map<std::string, double> extract_observables(const core::StudyResult& result,
                                                  NetworkKind network) {
  std::map<std::string, double> v;

  // A KAD stream interleaves passive honeypot observations with the active
  // client's responses; the standard families run on the active subset, the
  // same split core::build_report applies, so sweep bands and report tables
  // agree.
  std::vector<crawler::ResponseRecord> active;
  std::span<const crawler::ResponseRecord> stream = result.records;
  if (network == NetworkKind::kKad) {
    active.reserve(result.records.size());
    for (const auto& rec : result.records) {
      if (rec.query_category != "honeypot") active.push_back(rec);
    }
    stream = active;
  }

  auto prev = analysis::prevalence(stream);
  v["prevalence.total_responses"] = static_cast<double>(prev.total_responses);
  v["prevalence.study_responses"] = static_cast<double>(prev.study_responses);
  v["prevalence.labeled"] = static_cast<double>(prev.labeled);
  v["prevalence.malicious_fraction"] = prev.malicious_fraction();
  v["prevalence.exe_fraction"] = prev.exe_fraction();
  v["prevalence.archive_fraction"] = prev.archive_fraction();

  auto ranking = analysis::strain_ranking(stream);
  v["strains.distinct"] = static_cast<double>(ranking.size());
  v["strains.top1_share"] = analysis::topk_share(ranking, 1);
  v["strains.top3_share"] = analysis::topk_share(ranking, 3);

  auto sources = analysis::sources(stream);
  v["sources.distinct"] = static_cast<double>(sources.distinct_sources);
  v["sources.private_fraction"] = sources.private_fraction;
  auto concentration = analysis::strain_source_concentration(stream);
  if (!concentration.empty()) {
    v["sources.top_strain_top_source_share"] = concentration.front().top_source_share;
  }

  // E5 protocol: learn filters on the first quarter of the crawl, evaluate
  // on the rest (same split and vendor lists as core::build_report).
  auto split = filter::split_at_fraction(stream, 0.25);
  auto size_filter = filter::SizeFilter::learn(split.training);
  auto size_eval = filter::evaluate(size_filter, split.evaluation);
  v["filter.size_detection"] = size_eval.detection_rate();
  v["filter.size_false_positives"] = size_eval.false_positive_rate();
  v["filter.size_blocked_sizes"] =
      static_cast<double>(size_filter.blocked_sizes().size());
  if (network == NetworkKind::kLimewire) {
    auto builtin = filter::make_builtin_filter(split.training,
                                               core::vendor_known_strains(),
                                               core::vendor_partial_strains());
    auto builtin_eval = filter::evaluate(builtin, split.evaluation);
    v["filter.builtin_detection"] = builtin_eval.detection_rate();
  }

  // E9/E10 bands: the honeypot coverage curve and vantage bias, computed
  // from the full stream (the honeypot records the subset above excluded)
  // plus the ground-truth counters in the run's metrics snapshot.
  if (network == NetworkKind::kKad) {
    auto coverage = core::kad_coverage(result.records, result.metrics);
    v["honeypot.vantages"] = static_cast<double>(coverage.vantages);
    v["honeypot.observations"] = static_cast<double>(coverage.observations);
    v["honeypot.stores"] = static_cast<double>(coverage.stores);
    v["honeypot.queries"] = static_cast<double>(coverage.queries);
    v["honeypot.infected_total"] = static_cast<double>(coverage.infected_total);
    v["honeypot.infected_observed"] =
        static_cast<double>(coverage.infected_observed);
    v["honeypot.keyword_overlap"] = coverage.keyword_overlap;
    for (const auto& point : coverage.curve) {
      v["honeypot.coverage_k" + std::to_string(point.vantages)] =
          point.mean_coverage;
    }
  }

  // Fault-injected runs band their injection and degradation counters too;
  // fault-free runs add no keys (the JSON stays identical to pre-fault).
  if (result.faults_enabled) {
    const auto& f = result.fault_counters;
    v["fault.messages_dropped"] = static_cast<double>(f.messages_dropped);
    v["fault.messages_delayed"] = static_cast<double>(f.messages_delayed);
    v["fault.messages_duplicated"] = static_cast<double>(f.messages_duplicated);
    v["fault.payloads_corrupted"] = static_cast<double>(f.payloads_corrupted);
    v["fault.peer_crashes"] = static_cast<double>(f.peer_crashes);
    v["fault.downloads_stalled"] = static_cast<double>(f.downloads_stalled);
    v["fault.scan_timeouts"] = static_cast<double>(f.scan_timeouts);
    const auto& s = result.crawl_stats;
    v["degradation.downloads_abandoned"] =
        static_cast<double>(s.downloads_abandoned);
    v["degradation.retries_spent"] = static_cast<double>(s.retries_spent);
    v["degradation.hosts_quarantined"] = static_cast<double>(s.hosts_quarantined);
    v["degradation.scan_timeouts"] = static_cast<double>(s.scan_timeouts);
  }

  v["run.records"] = static_cast<double>(result.records.size());
  v["run.events_executed"] = static_cast<double>(result.events_executed);
  v["run.messages_delivered"] = static_cast<double>(result.messages_delivered);
  v["run.bytes_delivered"] = static_cast<double>(result.bytes_delivered);
  v["run.churn_joins"] = static_cast<double>(result.churn_joins);
  v["run.churn_leaves"] = static_cast<double>(result.churn_leaves);

  // Every obs counter of the run (sim-driven, deterministic). Gauges and
  // histograms stay in the snapshot; counters are the scalar aggregates
  // worth banding across seeds.
  for (const auto& c : result.metrics.counters) {
    v["obs." + c.name] = static_cast<double>(c.value);
  }
  return v;
}

std::string task_trace_path(const std::string& dir, const StudyTask& task) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(task.config_hash()));
  return dir + "/sweep_" + std::string(network_name(task.network)) + "_" + buf +
         ".p2pt";
}

std::function<core::StudyResult(const StudyTask&)> recording_runner(
    std::string dir) {
  return [dir = std::move(dir)](const StudyTask& task) {
    core::StudyResult result = run_task(task);
    trace::TraceHeader header;
    header.network = std::string(network_name(task.network));
    header.config_hash = task.config_hash();
    header.seed = task.seed;
    const crawler::CrawlConfig& crawl =
        task.network == NetworkKind::kLimewire ? task.limewire.crawl
        : task.network == NetworkKind::kOpenFt ? task.openft.crawl
                                               : task.kad.crawl;
    header.crawl_duration_ms = crawl.duration.count_ms();
    std::string path = task_trace_path(dir, task);
    if (!core::save_study_trace(path, result, header)) {
      throw std::runtime_error("cannot write sweep trace: " + path);
    }
    return result;
  };
}

std::function<core::StudyResult(const StudyTask&)> replay_runner(std::string dir) {
  return [dir = std::move(dir)](const StudyTask& task) {
    std::string path = task_trace_path(dir, task);
    core::StudyResult result;
    if (!core::load_study_trace(path, result, task.config_hash())) {
      throw std::runtime_error("missing, corrupt, or stale sweep trace: " + path);
    }
    result.strain_catalog = task.network == NetworkKind::kLimewire
                                ? malware::limewire_catalog()
                            : task.network == NetworkKind::kOpenFt
                                ? malware::openft_catalog()
                                : malware::kad_catalog();
    return result;
  };
}

const MetricSummary* SweepResult::summary(std::string_view name) const {
  for (const auto& s : summaries) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

SweepResult run(std::span<const StudyTask> tasks, const SweepOptions& options) {
  using Clock = std::chrono::steady_clock;
  SweepResult out;
  out.tasks.resize(tasks.size());
  if (tasks.empty()) return out;

  const auto& runner = options.runner;
  auto sweep_start = Clock::now();
  std::atomic<std::size_t> done{0};
  std::atomic<std::size_t> failures{0};

  // The shared index-claiming pool (util::parallel_for, also the segment
  // replay's fan-out): results land in the slot of their task, so
  // completion order never shows in the output.
  std::size_t jobs = std::max<std::size_t>(1, std::min(options.jobs, tasks.size()));
  util::parallel_for(tasks.size(), jobs, [&](std::size_t i) {
    const StudyTask& task = tasks[i];
    TaskResult& tr = out.tasks[i];
    tr.index = task.index;
    tr.seed = task.seed;
    auto t0 = Clock::now();
    try {
      OBS_SPAN("sweep.task");
      // The task's private metrics window: every metric the study (and
      // the observable extraction) records stays in this registry.
      obs::MetricsRegistry task_registry;
      obs::ScopedMetricsRegistry scope(task_registry);
      core::StudyResult study = runner ? runner(task) : run_task(task);
      tr.values = extract_observables(study, task.network);
      tr.timeseries = std::move(study.timeseries);
      tr.ok = true;
    } catch (const std::exception& e) {
      tr.error = e.what();
    } catch (...) {
      tr.error = "unknown exception";
    }
    tr.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    if (!tr.ok) failures.fetch_add(1, std::memory_order_relaxed);
    std::size_t completed = done.fetch_add(1, std::memory_order_relaxed) + 1;
    if (options.progress != nullptr && options.progress->enabled()) {
      obs::SweepProgress p;
      p.done = completed;
      p.total = tasks.size();
      p.failed = failures.load(std::memory_order_relaxed);
      p.seed = task.seed;
      p.final = completed == tasks.size();
      options.progress->sweep_tick(p);
    }
  });
  out.wall_seconds = std::chrono::duration<double>(Clock::now() - sweep_start).count();
  out.tasks_per_second =
      out.wall_seconds > 0.0 ? static_cast<double>(tasks.size()) / out.wall_seconds : 0.0;

  // Aggregate each metric over the successful tasks, in task-index order so
  // the bootstrap draws are reproducible.
  std::map<std::string, std::vector<double>> by_name;
  for (const auto& tr : out.tasks) {
    if (!tr.ok) {
      ++out.failed;
      continue;
    }
    ++out.completed;
    for (const auto& [name, value] : tr.values) by_name[name].push_back(value);
  }
  out.summaries.reserve(by_name.size());
  for (const auto& [name, values] : by_name) {
    MetricSummary s;
    s.name = name;
    s.moments = analysis::moments(values);
    s.p50 = analysis::percentile(values, 0.5);
    s.ci = analysis::bootstrap_mean_ci(values, options.bootstrap_resamples,
                                       options.bootstrap_seed);
    out.summaries.push_back(std::move(s));
  }

  // Throughput metrics land in the caller's registry (the workers recorded
  // into per-task registries that are gone by now).
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("sweep.tasks_completed").add(out.completed);
  registry.counter("sweep.tasks_failed").add(out.failed);
  registry.gauge("sweep.jobs").set(static_cast<std::int64_t>(jobs));
  auto& wall = registry.histogram(
      "sweep.task_wall_ns",
      obs::HistogramSpec::exponential(obs::Unit::kNanosWall, /*wall_clock=*/true));
  for (const auto& tr : out.tasks) {
    wall.record(static_cast<std::int64_t>(tr.wall_seconds * 1e9));
  }
  return out;
}

void write_json(std::ostream& out, const SweepResult& result) {
  out << "{\"format\":\"p2p-sweep-1\"";
  out << ",\"completed\":" << result.completed;
  out << ",\"failed\":" << result.failed;
  out << ",\"tasks\":[";
  for (std::size_t i = 0; i < result.tasks.size(); ++i) {
    const auto& t = result.tasks[i];
    if (i) out << ",";
    out << "{\"index\":" << t.index << ",\"seed\":" << t.seed << ",\"ok\":"
        << (t.ok ? "true" : "false");
    if (!t.ok) out << ",\"error\":\"" << obs::json_escape(t.error) << "\"";
    out << ",\"values\":{";
    bool first = true;
    for (const auto& [name, value] : t.values) {
      if (!first) out << ",";
      first = false;
      out << "\"" << obs::json_escape(name) << "\":" << json_number(value);
    }
    out << "}";
    // Per-task series only when the plan recorded one: unrecorded sweep
    // JSON stays byte-identical to pre-timeseries builds.
    if (!t.timeseries.empty()) {
      out << ",\"timeseries\":";
      obs::write_timeseries_json(out, t.timeseries);
    }
    out << "}";
  }
  out << "],\"summaries\":[";
  for (std::size_t i = 0; i < result.summaries.size(); ++i) {
    const auto& s = result.summaries[i];
    if (i) out << ",";
    out << "{\"metric\":\"" << obs::json_escape(s.name) << "\""
        << ",\"n\":" << s.moments.n << ",\"mean\":" << json_number(s.moments.mean)
        << ",\"stddev\":" << json_number(s.moments.stddev)
        << ",\"min\":" << json_number(s.moments.min)
        << ",\"max\":" << json_number(s.moments.max)
        << ",\"p50\":" << json_number(s.p50) << ",\"ci95\":["
        << json_number(s.ci.lo) << "," << json_number(s.ci.hi) << "]}";
  }
  out << "]}\n";
}

}  // namespace p2p::sweep
