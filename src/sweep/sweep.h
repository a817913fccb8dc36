// Parallel multi-seed sweep runner: executes N independent core::Study
// replications concurrently and aggregates their headline metrics into
// distributions (mean / stddev / percentile / bootstrap CI), the way
// measurement studies report prevalence numbers — over repeated
// observations, not single draws.
//
// Determinism contract: a task's seed is a pure function of the plan
// (derive_seed(base, index) or an explicit seed list), every task records
// into its own obs::MetricsRegistry installed thread-locally for the task's
// duration (see ScopedMetricsRegistry), and results are stored by task
// index — so a sweep's deterministic outputs, including the JSON report,
// are byte-identical whether it ran on 1 thread or 8.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/stats.h"
#include "core/kad_study.h"
#include "core/study.h"
#include "obs/progress.h"

namespace p2p::sweep {

enum class NetworkKind { kLimewire, kOpenFt, kKad };

[[nodiscard]] std::string_view network_name(NetworkKind kind);

/// One replication: a fully resolved study configuration. Only the config
/// matching `network` is used.
struct StudyTask {
  std::size_t index = 0;
  std::uint64_t seed = 0;
  NetworkKind network = NetworkKind::kLimewire;
  core::LimewireStudyConfig limewire{};
  core::OpenFtStudyConfig openft{};
  core::KadStudyConfig kad{};

  /// Digest of the active config (see core::config_hash) — cache key.
  [[nodiscard]] std::uint64_t config_hash() const;
};

/// Deterministic per-task seed: a splitmix64 stream over the base seed, so
/// task seeds never depend on thread count or scheduling, and nearby base
/// seeds still yield decorrelated streams.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base_seed,
                                        std::size_t task_index);

/// Declarative sweep plan: which network, which preset, which seeds, and
/// optional config overrides applied uniformly to every task.
struct PlanConfig {
  NetworkKind network = NetworkKind::kLimewire;
  /// Base preset: quick (test-scale) or standard (paper-scale month).
  bool quick = true;
  /// Seeds: explicit list wins; otherwise `replications` seeds derived
  /// from `base_seed`.
  std::vector<std::uint64_t> seeds;
  std::uint64_t base_seed = 2006;
  std::size_t replications = 8;
  /// Override the crawl duration of every task (e.g. scale a quick sweep
  /// up to 5 days).
  std::optional<sim::SimDuration> duration;
  /// Fault plan applied to every task via core::apply_faults (enables the
  /// crawlers' resilient fetch policy with it). All-zero = fault-free.
  fault::FaultSpec faults{};
  /// Explicit fault-schedule seed; 0 derives each task's schedule from its
  /// own task seed.
  std::uint64_t fault_seed = 0;
  /// Windowed metric sampling applied to every task. Each task records
  /// against its own scoped registry, so per-task series are byte-identical
  /// across --jobs counts.
  obs::TimeSeriesConfig timeseries{};
  /// Sharded-engine worker count per task (0 means 1); task results are
  /// identical at every count. Ignored by the KAD driver, which always runs
  /// on one shard.
  std::size_t shards = 0;
};

[[nodiscard]] std::vector<StudyTask> plan(const PlanConfig& config);

struct TaskResult {
  std::size_t index = 0;
  std::uint64_t seed = 0;
  bool ok = false;
  /// Exception text when the task failed (the sweep itself completes).
  std::string error;
  /// Named scalar observables of the run: headline analysis metrics
  /// (prevalence.*, strains.*, sources.*, filter.*) plus every obs counter
  /// (obs.<name>). Deterministic for the task's config.
  std::map<std::string, double> values;
  /// The task's windowed series; empty (and absent from the JSON) unless
  /// the plan enabled time-series recording.
  obs::TimeSeries timeseries;
  /// Wall-clock cost (excluded from deterministic exports).
  double wall_seconds = 0.0;
};

struct MetricSummary {
  std::string name;
  analysis::Moments moments;
  double p50 = 0.0;
  /// 95% bootstrap CI for the mean over replications.
  analysis::BootstrapCi ci;
};

struct SweepResult {
  std::vector<TaskResult> tasks;  // ordered by task index
  /// Per-metric distributions over the successful tasks, sorted by name.
  std::vector<MetricSummary> summaries;
  std::size_t completed = 0;
  std::size_t failed = 0;
  /// Throughput (wall clock; excluded from deterministic exports).
  double wall_seconds = 0.0;
  double tasks_per_second = 0.0;

  [[nodiscard]] const MetricSummary* summary(std::string_view name) const;
  [[nodiscard]] bool all_ok() const { return failed == 0; }
};

struct SweepOptions {
  /// Worker threads; clamped to [1, task count]. Never affects results.
  std::size_t jobs = 1;
  std::size_t bootstrap_resamples = 1000;
  std::uint64_t bootstrap_seed = 17;
  /// Override how a task's study is produced (cache layers in bench, fault
  /// injection in tests). Called concurrently from worker threads — each
  /// call runs under that task's scoped metrics registry. Defaults to
  /// core::run_limewire_study / run_openft_study.
  std::function<core::StudyResult(const StudyTask&)> runner;
  /// Optional live-progress channel: ticked once per completed task (its
  /// mutex serializes the workers). Progress is wall-clock output only and
  /// never touches the sweep's deterministic JSON.
  obs::ProgressReporter* progress = nullptr;
};

/// Run every task (failures are per-task, never abort the sweep), then
/// aggregate. Records sweep throughput metrics (sweep.*) into the caller's
/// registry.
[[nodiscard]] SweepResult run(std::span<const StudyTask> tasks,
                              const SweepOptions& options = {});

/// Named scalar observables of one finished study (the values TaskResult
/// carries). Exposed for tests and for single-run comparisons.
[[nodiscard]] std::map<std::string, double> extract_observables(
    const core::StudyResult& result, NetworkKind network);

/// Trace file for one sweep task inside `dir`, keyed by the task's config
/// hash — an edited preset or seed list misses instead of serving a stale
/// crawl.
[[nodiscard]] std::string task_trace_path(const std::string& dir,
                                          const StudyTask& task);

/// Runner that executes each task normally and persists it as a trace in
/// `dir` (which must exist). The simulation runs once; the traces are then
/// enough to re-aggregate the whole sweep offline. Saving happens after the
/// study's metrics window closes, so the recorded sweep's JSON is
/// byte-identical to an unrecorded one.
[[nodiscard]] std::function<core::StudyResult(const StudyTask&)> recording_runner(
    std::string dir);

/// Runner that rebuilds each task's StudyResult from its trace in `dir`
/// without simulating. Throws std::runtime_error (failing that task, not
/// the sweep) when the trace is missing, corrupt, or was recorded under a
/// different config. Replayed sweep JSON is byte-identical to the recorded
/// run's.
[[nodiscard]] std::function<core::StudyResult(const StudyTask&)> replay_runner(
    std::string dir);

/// Deterministic JSON report: plan echo, per-task values, per-metric
/// summaries. Wall-clock fields are omitted, so the bytes are identical
/// across job counts.
void write_json(std::ostream& out, const SweepResult& result);

}  // namespace p2p::sweep
