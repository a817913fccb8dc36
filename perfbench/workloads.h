// The benchmark's three workloads as library configurations, each a pure
// function of the workload seed and a Scale (the benchmark's sizes, or the
// seconds-long sizes the benchmark's own tests use).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/report.h"
#include "sweep/sweep.h"

namespace p2pbench {

namespace core = p2p::core;
namespace sweep = p2p::sweep;

/// Parallel width of the sweep and replay pools (half of a 4-core host, so
/// a noisy neighbour does not own the run).
inline constexpr std::size_t kThreads = 2;

/// lw_scale's shard count. At 2 shards, two barriers per lookahead window
/// turn every stolen vCPU slice into a stall of both workers: on a 4-vCPU
/// host with ~7% steal, ten seeds spread sim_h_per_s by 40% (quartiles over
/// median), more than any bound the benchmark can gate on. One shard runs
/// the same model, byte for byte, without the barriers.
inline constexpr std::size_t kLwShards = 1;

struct Scale {
  /// lw_scale: the limewire_standard model at this population and crawl.
  std::size_t lw_ultrapeers = 500;
  std::size_t lw_leaves = 8000;
  std::int64_t lw_hours = 8;
  /// sweep_bands: quick-preset seeds per network.
  std::size_t sweep_seeds = 4;
  /// capture_replay: synthetic KAD capture size and span (about the standard
  /// KAD preset's 2.07M records over 30 simulated days).
  std::uint64_t capture_records = 2'000'000;
  std::int64_t capture_days = 30;

  /// Seconds-long sizes for the benchmark's own tests.
  [[nodiscard]] static Scale small();
};

/// lw_scale's one study: limewire_standard at the Scale's population and
/// crawl length, on the sharded engine. Like the study CLIs' --seed, the
/// seed drives the run (network, churn, crawl) over the preset population.
[[nodiscard]] sweep::StudyTask lw_scale_task(std::uint64_t seed, const Scale& scale,
                                             std::size_t shards = kLwShards);

/// sweep_bands: one quick-preset plan per network, the same seed count
/// each. LimeWire and OpenFT run the sharded engine at one shard; KAD runs
/// its serial driver.
[[nodiscard]] std::vector<sweep::PlanConfig> sweep_bands_plans(std::uint64_t seed,
                                                               const Scale& scale);

/// The real driver for a task: core::run_limewire_study, run_openft_study
/// or run_kad_study.
[[nodiscard]] core::StudyResult run_real_study(const sweep::StudyTask& task);

/// Simulated hours a task's event loop covers (warm-up, crawl and the
/// settling grace period: the run_until target).
[[nodiscard]] double task_sim_hours(const sweep::StudyTask& task);

/// The report a CLI user reads: build_report over the records, with the
/// fault and KAD appendices the study CLIs attach.
[[nodiscard]] core::Report study_report(const core::StudyResult& result,
                                        sweep::NetworkKind network);
[[nodiscard]] std::string report_json(const core::Report& report);

/// The bytes a study is judged by: its report JSON, then one line of run
/// counters (events, messages, churn, crawl stats and every obs counter).
/// Two runs of a study agree exactly when these bytes do.
[[nodiscard]] std::string study_document(const core::StudyResult& result,
                                         const std::string& report_json);

/// Paper-headline figures of one report, checked against wide bands.
struct Headline {
  double prevalence = 0.0;      // E1: malicious share of study-type responses
  double top3_share = 0.0;      // E2: top-3 strains' share of malicious ones
  double size_detection = 0.0;  // E5: size filter detection rate
  double size_false_pos = 0.0;  // E5: size filter false-positive rate
  std::uint64_t records = 0;
};
[[nodiscard]] Headline headline(const core::Report& report);
/// The same figures from a sweep task's observables.
[[nodiscard]] Headline headline(const std::map<std::string, double>& values);

/// Empty when `h` lies inside the sanity bands of `band` ("limewire",
/// "openft", "kad" or "capture"); otherwise why it does not.
[[nodiscard]] std::string check_headline(const Headline& h, const std::string& band);

}  // namespace p2pbench
