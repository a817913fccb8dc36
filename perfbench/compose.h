// The traced copy of the study drivers: each study is built from the
// layers' public calls in the order core::run_limewire_study,
// run_openft_study and run_kad_study make them (population -> scanner ->
// workload -> crawler -> churn -> run_until -> finalize), with a ledger
// span around each call. Because this copy could drift from the real
// drivers, the benchmark fails unless its output bytes equal theirs
// (workloads.h: study_document).
//
// Only what the benchmark's workloads use is composed: fault-free runs with
// one vantage, no time series, and the full-fidelity model. Anything else
// throws std::invalid_argument.
#pragma once

#include <cstdint>

#include "ledger.h"
#include "workloads.h"

namespace p2pbench {

/// Measurements the composition takes beside the StudyResult.
struct StudyProbe {
  std::uint64_t peers = 0;       // hosts the population builder made
  double build_rss_kib = 0.0;    // VmRSS growth across the population build
  double run_wall_s = 0.0;       // engine().run_until (+ gauge refresh)
  double run_cpu_s = 0.0;        // process CPU during it (thread CPU at <= 1 shard)
  std::size_t shards = 0;        // 0 = serial EventQueue
  std::uint64_t rounds = 0;      // ShardedEngine::Stats
  std::uint64_t cross_shard_messages = 0;
};

/// Run `task`'s study through the composition. `ledger` may be null (no
/// spans); the study's spans carry `study_id`.
[[nodiscard]] core::StudyResult compose_study(const sweep::StudyTask& task,
                                              std::uint64_t study_id,
                                              Ledger* ledger, StudyProbe& probe);

/// Resident set size of this process now, in KiB (0 if unknown).
[[nodiscard]] double current_rss_kib();
/// Peak resident set size of this process (VmHWM), in MiB (0 if unknown).
[[nodiscard]] double peak_rss_mib();
/// User+system CPU seconds of the process (or of the calling thread).
[[nodiscard]] double process_cpu_s();
[[nodiscard]] double thread_cpu_s();

}  // namespace p2pbench
