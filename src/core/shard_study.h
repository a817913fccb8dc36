// SoA capacity study driver: the million-peer-scale counterpart of
// study.cpp's full-fidelity drivers, built on sim::ShardedEngine +
// sim::PeerTable.
//
// `--soa` with `--shards N` on a study config routes the run here. The
// model keeps the paper's calibrated mechanisms — query-echo worms, lure
// trojans, the OpenFT super-spreader, NAT/private advertising, churned
// sessions, fault injection — but derives every per-peer decision from
// stateless splitmix64 hashes of (seed, peer, query), never from shared
// mutable state. Combined with the engine's intrinsic event ordering this
// makes the full StudyResult (records, stats, metrics, timeseries) a pure
// function of the configuration: byte-identical at every shard count,
// which tests/test_shard.cpp enforces differentially against --shards 1.
//
// The full-fidelity model (the default) stays in study.cpp; see DESIGN.md
// "Sharded execution" for why the two are separate models rather than one.
#pragma once

#include <cstddef>

#include "core/study.h"

namespace p2p::core {

/// Number of peer cells (cell = group of peers owned by one entity) for a
/// population. A pure function of the peer count — never of the shard
/// count — so event origins (and therefore output) are shard-invariant.
[[nodiscard]] std::size_t shard_cell_count(std::size_t peers);

/// Run a study on the sharded engine. `config.shards` >= 1 selects the
/// worker count; output is identical for every value of it.
[[nodiscard]] StudyResult run_limewire_study_sharded(
    const LimewireStudyConfig& config,
    crawler::RecordSink* record_sink = nullptr);
[[nodiscard]] StudyResult run_openft_study_sharded(
    const OpenFtStudyConfig& config,
    crawler::RecordSink* record_sink = nullptr);

}  // namespace p2p::core
