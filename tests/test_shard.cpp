// Sharded-engine suite (ctest -L shard).
//
// Two halves:
//  * Differential: the full studies — both networks, quick presets, several
//    seeds — must produce byte-identical JSON reports, trace files, and
//    time series at every --shards count, fault-free and faulted alike.
//    `--shards 1` (no worker threads) is the baseline the parallel counts
//    are diffed against.
//  * Properties of the conservative lookahead scheduler, model-checked
//    against a single-queue reference replay: randomized latency matrices
//    never deliver a message before send-time + latency, same-(at, origin,
//    seq) keys are never reordered, and windows drain cleanly at barriers.
#include "sim/sharded_engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <queue>
#include <sstream>
#include <string>
#include <vector>

#include "core/report.h"
#include "core/study.h"
#include "fault/fault.h"
#include "trace/codec.h"
#include "trace/writer.h"
#include "util/rng.h"

namespace p2p {
namespace {

// ---------------------------------------------------------------------------
// Differential study runs
// ---------------------------------------------------------------------------

core::LimewireStudyConfig lw_config(std::uint64_t seed, std::size_t shards) {
  core::LimewireStudyConfig cfg = core::limewire_quick();
  cfg.seed = seed;
  cfg.shards = shards;
  return cfg;
}

core::OpenFtStudyConfig oft_config(std::uint64_t seed, std::size_t shards) {
  core::OpenFtStudyConfig cfg = core::openft_quick();
  cfg.seed = seed;
  cfg.shards = shards;
  return cfg;
}

std::string report_json(const core::StudyResult& result,
                        const std::string& network) {
  core::Report report = core::build_report(result.records, network);
  core::attach_fault_report(report, result.faults_enabled,
                            result.fault_counters, result.crawl_stats);
  report.timeseries = result.timeseries;
  std::ostringstream out;
  core::write_report_json(out, report);
  return out.str();
}

std::string lw_report(std::uint64_t seed, std::size_t shards) {
  return report_json(core::run_limewire_study(lw_config(seed, shards)),
                     "limewire");
}

std::string oft_report(std::uint64_t seed, std::size_t shards) {
  return report_json(core::run_openft_study(oft_config(seed, shards)),
                     "openft");
}

TEST(ShardDifferential, LimewireReportsIdenticalAcrossShardCounts) {
  for (std::uint64_t seed : {7ull, 2006ull}) {
    std::string baseline = lw_report(seed, 1);
    ASSERT_FALSE(baseline.empty());
    for (std::size_t shards : {2u, 4u, 7u}) {
      EXPECT_EQ(baseline, lw_report(seed, shards))
          << "limewire seed " << seed << " diverged at " << shards
          << " shards";
    }
  }
}

TEST(ShardDifferential, OpenFtReportsIdenticalAcrossShardCounts) {
  for (std::uint64_t seed : {7ull, 2007ull}) {
    std::string baseline = oft_report(seed, 1);
    ASSERT_FALSE(baseline.empty());
    for (std::size_t shards : {2u, 4u, 7u}) {
      EXPECT_EQ(baseline, oft_report(seed, shards))
          << "openft seed " << seed << " diverged at " << shards << " shards";
    }
  }
}

TEST(ShardDifferential, RepeatedShardedRunsAreBitReproducible) {
  EXPECT_EQ(lw_report(11, 4), lw_report(11, 4));
  EXPECT_EQ(oft_report(11, 4), oft_report(11, 4));
}

TEST(ShardDifferential, FaultedRunsIdenticalAcrossShardCounts) {
  auto spec = fault::parse_spec("moderate");
  ASSERT_TRUE(spec.has_value());
  for (std::size_t shards : {4u, 7u}) {
    {
      core::LimewireStudyConfig base = lw_config(7, 1);
      core::apply_faults(base, *spec);
      core::LimewireStudyConfig cfg = lw_config(7, shards);
      core::apply_faults(cfg, *spec);
      EXPECT_EQ(report_json(core::run_limewire_study(base), "limewire"),
                report_json(core::run_limewire_study(cfg), "limewire"));
    }
    {
      core::OpenFtStudyConfig base = oft_config(7, 1);
      core::apply_faults(base, *spec);
      core::OpenFtStudyConfig cfg = oft_config(7, shards);
      core::apply_faults(cfg, *spec);
      EXPECT_EQ(report_json(core::run_openft_study(base), "openft"),
                report_json(core::run_openft_study(cfg), "openft"));
    }
  }
}

TEST(ShardDifferential, TimeseriesIdenticalAcrossShardCounts) {
  auto with_ts = [](std::size_t shards) {
    core::LimewireStudyConfig cfg = lw_config(7, shards);
    cfg.timeseries.window = sim::SimDuration::minutes(30);
    return report_json(core::run_limewire_study(cfg), "limewire");
  };
  std::string baseline = with_ts(1);
  EXPECT_NE(baseline.find("\"timeseries\""), std::string::npos);
  EXPECT_EQ(baseline, with_ts(4));
}

std::string record_trace(const std::filesystem::path& path, std::uint64_t seed,
                         std::size_t shards, bool limewire) {
  trace::TraceHeader header;
  header.seed = seed;
  std::string bytes;
  if (limewire) {
    core::LimewireStudyConfig cfg = lw_config(seed, shards);
    header.network = "limewire";
    header.config_hash = core::config_hash(cfg);
    header.crawl_duration_ms = cfg.crawl.duration.count_ms();
    trace::TraceWriter writer(path.string(), header);
    EXPECT_TRUE(writer.ok());
    auto result = core::run_limewire_study(cfg, &writer);
    writer.write_summary(core::study_summary(result));
    writer.close();
    EXPECT_TRUE(writer.ok());
  } else {
    core::OpenFtStudyConfig cfg = oft_config(seed, shards);
    header.network = "openft";
    header.config_hash = core::config_hash(cfg);
    header.crawl_duration_ms = cfg.crawl.duration.count_ms();
    trace::TraceWriter writer(path.string(), header);
    EXPECT_TRUE(writer.ok());
    auto result = core::run_openft_study(cfg, &writer);
    writer.write_summary(core::study_summary(result));
    writer.close();
    EXPECT_TRUE(writer.ok());
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(ShardDifferential, TraceBytesIdenticalAcrossShardCounts) {
  std::filesystem::path dir = ::testing::TempDir();
  for (bool limewire : {true, false}) {
    const char* tag = limewire ? "lw" : "oft";
    std::string baseline =
        record_trace(dir / (std::string("shard1_") + tag + ".p2pt"), 7, 1,
                     limewire);
    ASSERT_FALSE(baseline.empty());
    std::string sharded =
        record_trace(dir / (std::string("shard4_") + tag + ".p2pt"), 7, 4,
                     limewire);
    EXPECT_EQ(baseline, sharded) << tag << " trace diverged at 4 shards";
  }
}

TEST(ShardDifferential, ConfigHashMarksShardedButNotTheCount) {
  // Every shard count of the model produces identical bytes, so the count
  // must not leak into the digest — including 0, which means one shard.
  EXPECT_EQ(core::config_hash(lw_config(7, 0)),
            core::config_hash(lw_config(7, 1)));
  EXPECT_EQ(core::config_hash(lw_config(7, 1)),
            core::config_hash(lw_config(7, 4)));
  // The SoA capacity model is another generator: its marker must differ
  // from the full-fidelity digest, and must itself be shard-count-invariant.
  core::LimewireStudyConfig soa1 = lw_config(7, 1);
  soa1.soa_capacity = true;
  core::LimewireStudyConfig soa4 = lw_config(7, 4);
  soa4.soa_capacity = true;
  EXPECT_NE(core::config_hash(soa1), core::config_hash(lw_config(7, 1)));
  EXPECT_EQ(core::config_hash(soa1), core::config_hash(soa4));
}

TEST(ShardDifferential, SoaCapacityModelIdenticalAcrossShardCounts) {
  // --shards routes to the full-fidelity legacy model by default; the SoA
  // capacity variant stays reachable behind soa_capacity and keeps its own
  // shard-count invariance.
  auto lw_soa = [](std::size_t shards) {
    core::LimewireStudyConfig cfg = lw_config(7, shards);
    cfg.soa_capacity = true;
    return report_json(core::run_limewire_study(cfg), "limewire");
  };
  auto oft_soa = [](std::size_t shards) {
    core::OpenFtStudyConfig cfg = oft_config(7, shards);
    cfg.soa_capacity = true;
    return report_json(core::run_openft_study(cfg), "openft");
  };
  std::string lw_base = lw_soa(1);
  ASSERT_FALSE(lw_base.empty());
  EXPECT_EQ(lw_base, lw_soa(4));
  std::string oft_base = oft_soa(1);
  ASSERT_FALSE(oft_base.empty());
  EXPECT_EQ(oft_base, oft_soa(4));
}

// ---------------------------------------------------------------------------
// Lookahead-scheduler properties, model-checked against a single-queue
// reference replay.
//
// Workload: `kEntities` relays. Handler (id, step) posts one successor to
// dst = f(id, step) with latency L[id % kDim][dst % kDim] taken from a
// seeded random matrix with entries >= the lookahead floor. Everything is a
// pure function of (seed, id, step), so an independent model replay with a
// plain priority queue must visit exactly the same (time, origin, step)
// tuples in exactly the same per-entity order.
// ---------------------------------------------------------------------------

constexpr std::size_t kEntities = 64;
constexpr std::size_t kDim = 16;
constexpr std::int64_t kLookaheadMs = 20;
constexpr std::int64_t kHorizonMs = 5'000;

struct Delivery {
  std::int64_t at_ms = 0;
  std::uint32_t origin = 0;
  std::uint32_t step = 0;

  bool operator==(const Delivery&) const = default;
};

struct LatencyMatrix {
  std::int64_t l[kDim][kDim];

  explicit LatencyMatrix(std::uint64_t seed) {
    util::Rng rng(seed);
    for (auto& row : l) {
      for (auto& cell : row) {
        cell = kLookaheadMs + static_cast<std::int64_t>(rng.bounded(480));
      }
    }
  }
};

std::uint32_t next_dst(std::uint32_t id, std::uint32_t step) {
  std::uint64_t state = (std::uint64_t{id} << 32) | step;
  return static_cast<std::uint32_t>(util::splitmix64(state) % kEntities);
}

struct Harness {
  sim::ShardedEngine engine;
  const LatencyMatrix& latency;
  // One log per entity: an entity lives on exactly one shard, so its
  // handler executions are serial and the logs are race-free by design.
  std::vector<std::vector<Delivery>> logs;
  std::vector<sim::ShardedEngine::EntityId> ids;
  bool early_delivery = false;

  Harness(std::size_t shards, const LatencyMatrix& lat)
      : engine([&] {
          sim::ShardedEngine::Config cfg;
          cfg.shards = shards;
          cfg.lookahead = sim::SimDuration::millis(kLookaheadMs);
          return cfg;
        }()),
        latency(lat),
        logs(kEntities) {
    for (std::size_t i = 0; i < kEntities; ++i) {
      ids.push_back(engine.add_entity(0xfeedull ^ (i * 0x9e37ull)));
    }
  }

  void relay(std::uint32_t id, std::uint32_t step, std::int64_t expect_ms) {
    if (engine.now().millis() != expect_ms) early_delivery = true;
    logs[id].push_back(Delivery{engine.now().millis(), id, step});
    std::uint32_t dst = next_dst(id, step);
    std::int64_t delay = latency.l[id % kDim][dst % kDim];
    sim::SimTime at = engine.now() + sim::SimDuration::millis(delay);
    if (at.millis() > kHorizonMs) return;
    std::int64_t at_ms = at.millis();
    engine.post(ids[dst], at,
                [this, dst, next = step + 1, at_ms] { relay(dst, next, at_ms); });
  }

  void bootstrap_and_run() {
    for (std::uint32_t i = 0; i < kEntities; ++i) {
      std::int64_t at_ms = static_cast<std::int64_t>(i % 10);
      engine.post(ids[i], sim::SimTime::at_millis(at_ms),
                  [this, i, at_ms] { relay(i, 0, at_ms); });
    }
    engine.run_all();
  }
};

// Reference model: the same workload on a plain ordered queue keyed
// (at, origin, per-origin seq) — the intrinsic event key the engine
// guarantees at every shard count.
std::vector<std::vector<Delivery>> model_replay(const LatencyMatrix& latency) {
  struct Msg {
    std::int64_t at;
    std::uint32_t oid;
    std::uint64_t oseq;
    std::uint32_t dst;
    std::uint32_t step;
  };
  auto later = [](const Msg& a, const Msg& b) {
    if (a.at != b.at) return a.at > b.at;
    if (a.oid != b.oid) return a.oid > b.oid;
    return a.oseq > b.oseq;
  };
  std::priority_queue<Msg, std::vector<Msg>, decltype(later)> queue(later);
  std::vector<std::uint64_t> oseq(kEntities, 0);
  // Bootstrap posts take the destination's own counter (self-posts).
  for (std::uint32_t i = 0; i < kEntities; ++i) {
    queue.push(Msg{static_cast<std::int64_t>(i % 10), i, oseq[i]++, i, 0});
  }
  std::vector<std::vector<Delivery>> logs(kEntities);
  while (!queue.empty()) {
    Msg m = queue.top();
    queue.pop();
    logs[m.dst].push_back(Delivery{m.at, m.dst, m.step});
    std::uint32_t dst = next_dst(m.dst, m.step);
    std::int64_t at = m.at + latency.l[m.dst % kDim][dst % kDim];
    if (at > kHorizonMs) continue;
    queue.push(Msg{at, m.dst, oseq[m.dst]++, dst, m.step + 1});
  }
  return logs;
}

TEST(ShardLookahead, RandomMatricesNeverDeliverEarlyAndMatchModel) {
  for (std::uint64_t seed : {1ull, 42ull, 9001ull}) {
    LatencyMatrix latency(seed);
    std::vector<std::vector<Delivery>> reference = model_replay(latency);
    for (std::size_t shards : {1u, 2u, 4u, 7u}) {
      Harness h(shards, latency);
      h.bootstrap_and_run();
      EXPECT_FALSE(h.early_delivery)
          << "delivery before send+latency at " << shards << " shards";
      ASSERT_EQ(h.logs.size(), reference.size());
      for (std::size_t e = 0; e < kEntities; ++e) {
        EXPECT_EQ(h.logs[e], reference[e])
            << "entity " << e << " log diverged from the single-queue "
            << "reference at " << shards << " shards (matrix seed " << seed
            << ")";
      }
      if (shards > 1) {
        EXPECT_GT(h.engine.stats().cross_shard_messages, 0u)
            << "workload never crossed a shard boundary — test is vacuous";
      }
    }
  }
}

TEST(ShardLookahead, SameKeyMessagesAreNeverReordered) {
  constexpr int kBurst = 32;
  for (std::size_t shards : {1u, 4u}) {
    sim::ShardedEngine::Config cfg;
    cfg.shards = shards;
    cfg.lookahead = sim::SimDuration::millis(kLookaheadMs);
    sim::ShardedEngine engine(cfg);
    auto a = engine.add_entity(1);
    auto b = engine.add_entity(2);
    std::vector<int> received;
    engine.post(a, sim::SimTime::at_millis(0), [&] {
      // One origin, one destination, one timestamp: delivery must follow
      // post order (the per-origin sequence breaks the tie).
      sim::SimTime at = engine.now() + sim::SimDuration::millis(kLookaheadMs);
      for (int i = 0; i < kBurst; ++i) {
        engine.post(b, at, [&received, i] { received.push_back(i); });
      }
    });
    engine.run_all();
    ASSERT_EQ(received.size(), static_cast<std::size_t>(kBurst));
    for (int i = 0; i < kBurst; ++i) {
      EXPECT_EQ(received[static_cast<std::size_t>(i)], i)
          << "same-key reorder at " << shards << " shards";
    }
  }
}

TEST(ShardLookahead, WindowsDrainCleanlyAtBarriers) {
  LatencyMatrix latency(7);
  std::vector<std::vector<Delivery>> reference = model_replay(latency);
  for (std::size_t shards : {1u, 4u}) {
    Harness h(shards, latency);
    for (std::uint32_t i = 0; i < kEntities; ++i) {
      std::int64_t at_ms = static_cast<std::int64_t>(i % 10);
      h.engine.post(h.ids[i], sim::SimTime::at_millis(at_ms),
                    [&h, i, at_ms] { h.relay(i, 0, at_ms); });
    }
    // Chop the run into arbitrary barriers; each run_until must retire
    // every event at or before the barrier and nothing after it.
    const std::int64_t barriers[] = {137, 1'000, 2'500, kHorizonMs + 600};
    for (std::int64_t barrier : barriers) {
      h.engine.run_until(sim::SimTime::at_millis(barrier));
      EXPECT_EQ(h.engine.now(), sim::SimTime::at_millis(barrier));
      for (const auto& log : h.logs) {
        if (!log.empty()) {
          EXPECT_LE(log.back().at_ms, barrier);
        }
      }
    }
    EXPECT_TRUE(h.engine.empty());
    EXPECT_FALSE(h.early_delivery);
    for (std::size_t e = 0; e < kEntities; ++e) {
      EXPECT_EQ(h.logs[e], reference[e])
          << "barrier-chopped run diverged at entity " << e << ", " << shards
          << " shards";
    }
  }
}

TEST(ShardLookahead, CrossEntityPostBelowFloorThrows) {
  for (std::size_t shards : {1u, 4u}) {
    sim::ShardedEngine::Config cfg;
    cfg.shards = shards;
    cfg.lookahead = sim::SimDuration::millis(kLookaheadMs);
    sim::ShardedEngine engine(cfg);
    auto a = engine.add_entity(1);
    auto b = engine.add_entity(2);
    engine.post(a, sim::SimTime::at_millis(100), [&] {
      engine.post(b, engine.now() + sim::SimDuration::millis(kLookaheadMs - 1),
                  [] {});
    });
    EXPECT_THROW(engine.run_all(), std::logic_error)
        << "lookahead floor not enforced at " << shards << " shards";
  }
}

TEST(ShardLookahead, PostingInThePastThrows) {
  for (std::size_t shards : {1u, 4u}) {
    sim::ShardedEngine::Config cfg;
    cfg.shards = shards;
    cfg.lookahead = sim::SimDuration::millis(kLookaheadMs);
    sim::ShardedEngine engine(cfg);
    auto a = engine.add_entity(1);
    engine.post(a, sim::SimTime::at_millis(100), [&] {
      engine.post(a, sim::SimTime::at_millis(50), [] {});
    });
    EXPECT_THROW(engine.run_all(), std::invalid_argument);
  }
}

}  // namespace
}  // namespace p2p
