// Sharded-engine fuzz (ctest label: fuzz).
//
// Each round draws a random topology — entity count, stable keys (including
// colliding ones), lookahead, horizon — and a random message storm: bursty
// fan-out relays, self-timers below the lookahead floor, and bootstrap posts
// scattered over the horizon. The storm is replayed at several shard counts
// and every per-entity delivery log must match the 1-shard baseline exactly.
// All in-handler randomness is drawn from splitmix64 of intrinsic ids so the
// workload itself is shard-count-invariant; only the engine under test
// varies. The sanitizer tier scales rounds up via P2P_FUZZ_ROUNDS.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/network.h"
#include "sim/sharded_engine.h"
#include "tests/fuzz_rounds.h"
#include "util/payload.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace p2p {
namespace {

std::uint64_t mix(std::uint64_t x) { return util::splitmix64(x); }

struct StormShape {
  std::uint32_t entities;
  std::int64_t lookahead_ms;
  std::int64_t horizon_ms;
  std::uint32_t bootstraps;
  std::uint64_t seed;
};

StormShape draw_shape(std::uint64_t seed) {
  util::Rng rng(seed);
  StormShape s;
  s.entities = 8 + static_cast<std::uint32_t>(rng.bounded(120));
  s.lookahead_ms = 5 + static_cast<std::int64_t>(rng.bounded(45));
  s.horizon_ms = 2000 + static_cast<std::int64_t>(rng.bounded(6000));
  s.bootstraps = 4 + static_cast<std::uint32_t>(rng.bounded(28));
  s.seed = rng.next();
  return s;
}

struct Delivery {
  std::int64_t at_ms;
  std::uint32_t origin;
  std::uint32_t step;
  bool operator==(const Delivery& o) const {
    return at_ms == o.at_ms && origin == o.origin && step == o.step;
  }
};

// One storm instance bound to an engine. Handlers fan out 0..3 relays to
// hash-chosen destinations with latency >= lookahead, plus an occasional
// self-timer *below* the lookahead floor (legal for self-posts — exactly the
// edge the conservative windows must not lose).
struct Storm {
  const StormShape& shape;
  sim::ShardedEngine engine;
  std::vector<sim::ShardedEngine::EntityId> ids;
  std::vector<std::vector<Delivery>> logs;

  Storm(const StormShape& sh, std::size_t shards)
      : shape(sh),
        engine(sim::ShardedEngine::Config{
            shards, util::SimDuration::millis(sh.lookahead_ms)}),
        logs(sh.entities) {
    ids.reserve(sh.entities);
    for (std::uint32_t i = 0; i < sh.entities; ++i) {
      // Deliberately colliding stable keys (mod 2 buckets of entropy) so
      // shard partitions are lumpy, not uniform.
      ids.push_back(engine.add_entity(mix(shape.seed ^ (i % 2 == 0 ? i : i / 3))));
    }
  }

  // Per-(origin, step) decisions are pure hash draws: identical at every
  // shard count.
  void deliver(std::uint32_t id, std::uint32_t step, std::uint32_t origin) {
    std::int64_t now_ms = engine.now().millis();
    logs[id].push_back({now_ms, origin, step});
    if (step >= 24) return;
    std::uint64_t h = mix(shape.seed ^ (std::uint64_t{id} << 40) ^
                          (std::uint64_t{step} << 8) ^ origin);
    std::uint32_t fanout = static_cast<std::uint32_t>(h % 4);
    for (std::uint32_t f = 0; f < fanout; ++f) {
      std::uint64_t hf = mix(h ^ (0x9e3779b97f4a7c15ull * (f + 1)));
      std::uint32_t dst = static_cast<std::uint32_t>(hf % shape.entities);
      std::int64_t latency =
          shape.lookahead_ms + static_cast<std::int64_t>((hf >> 32) % 400);
      std::int64_t at_ms = now_ms + latency;
      if (at_ms > shape.horizon_ms) continue;
      engine.post(ids[dst], util::SimTime::at_millis(at_ms),
                  [this, dst, next = step + 1, id] { deliver(dst, next, id); });
    }
    if ((h >> 60) == 0) {
      // Self-timer below the lookahead floor.
      std::int64_t at_ms = now_ms + 1 + static_cast<std::int64_t>((h >> 16) % 4);
      if (at_ms <= shape.horizon_ms) {
        engine.post(ids[id], util::SimTime::at_millis(at_ms),
                    [this, id, next = step + 1] { deliver(id, next, id); });
      }
    }
  }

  void seed_bootstraps() {
    for (std::uint32_t b = 0; b < shape.bootstraps; ++b) {
      std::uint64_t h = mix(shape.seed ^ 0xb007ull ^ b);
      std::uint32_t dst = static_cast<std::uint32_t>(h % shape.entities);
      std::int64_t at_ms =
          static_cast<std::int64_t>((h >> 32) % (shape.horizon_ms / 2 + 1));
      engine.post(ids[dst], util::SimTime::at_millis(at_ms),
                  [this, dst] { deliver(dst, 0, dst); });
    }
  }
};

class ShardStormFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardStormFuzz, RandomStormsMatchSerialBaselineAtEveryShardCount) {
  const int rounds = fuzz_rounds(8);
  for (int round = 0; round < rounds; ++round) {
    StormShape shape = draw_shape(GetParam() * 1000003ull + round);
    Storm baseline(shape, 1);
    baseline.seed_bootstraps();
    baseline.engine.run_all();
    std::uint64_t ref_executed = baseline.engine.executed();
    ASSERT_GT(ref_executed, shape.bootstraps / 2)
        << "degenerate storm, seed " << shape.seed;
    for (std::size_t shards : {2u, 3u, 5u, 8u}) {
      Storm storm(shape, shards);
      storm.seed_bootstraps();
      storm.engine.run_all();
      EXPECT_EQ(ref_executed, storm.engine.executed())
          << "round " << round << " shards " << shards;
      for (std::uint32_t i = 0; i < shape.entities; ++i) {
        ASSERT_EQ(baseline.logs[i], storm.logs[i])
            << "entity " << i << " log diverged, round " << round
            << ", shards " << shards;
      }
    }
  }
}

TEST_P(ShardStormFuzz, RandomStormsSurviveWindowedRunUntil) {
  // Same diff, but the sharded run is chopped into randomized run_until
  // barriers — partial drains must compose to the same final logs.
  const int rounds = fuzz_rounds(6);
  for (int round = 0; round < rounds; ++round) {
    StormShape shape = draw_shape(GetParam() * 7778777ull + round);
    Storm baseline(shape, 1);
    baseline.seed_bootstraps();
    baseline.engine.run_all();
    for (std::size_t shards : {2u, 7u}) {
      Storm storm(shape, shards);
      storm.seed_bootstraps();
      util::Rng cuts(shape.seed ^ shards);
      std::int64_t at = 0;
      while (at < shape.horizon_ms + 1000) {
        at += 1 + static_cast<std::int64_t>(cuts.bounded(
                 static_cast<std::uint64_t>(shape.horizon_ms / 3)));
        storm.engine.run_until(util::SimTime::at_millis(at));
      }
      storm.engine.run_all();
      EXPECT_EQ(baseline.engine.executed(), storm.engine.executed());
      for (std::uint32_t i = 0; i < shape.entities; ++i) {
        ASSERT_EQ(baseline.logs[i], storm.logs[i])
            << "entity " << i << " diverged under windowed run, round "
            << round << ", shards " << shards;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardStormFuzz,
                         ::testing::Values(1ull, 42ull, 0xfeedfaceull));

// ---------------------------------------------------------------------------
// Legacy-model storms: the same shard-count differential, but through the
// full sim::Network connection lifecycle instead of raw engine posts.
// Hash-driven nodes dial random peers (some behind NAT, some refusing),
// push payload bursts down whichever connections opened, close early, and a
// subset detaches and reattaches mid-run (the churn pattern). Every
// observable — per-node event logs, delivered message/byte totals, the
// connection counters — must match the 1-shard baseline exactly.
// ---------------------------------------------------------------------------

struct LegacyShape {
  std::uint32_t nodes;
  std::int64_t horizon_ms;
  std::uint64_t seed;
};

LegacyShape draw_legacy_shape(std::uint64_t seed) {
  util::Rng rng(seed);
  LegacyShape s;
  s.nodes = 6 + static_cast<std::uint32_t>(rng.bounded(30));
  s.horizon_ms = 3000 + static_cast<std::int64_t>(rng.bounded(5000));
  s.seed = rng.next();
  return s;
}

struct LegacyEvent {
  std::int64_t at_ms;
  std::uint64_t kind;  // 0=open 1=failed 2=closed 3=message
  std::uint64_t detail;  // peer id, target id, or payload size
  bool operator==(const LegacyEvent& o) const {
    return at_ms == o.at_ms && kind == o.kind && detail == o.detail;
  }
};

class LegacyStorm;

// All decisions are pure hash draws over (storm seed, node index, step):
// identical at every shard count, so only the engine under test varies.
class LegacyStormNode : public sim::Node {
 public:
  LegacyStormNode(LegacyStorm& owner, std::uint32_t index)
      : owner_(owner), index_(index) {}

  void start() override;
  bool accept_connection(sim::NodeId from) override;
  void on_connection_open(sim::ConnId conn, sim::NodeId peer,
                          bool initiated) override;
  void on_connection_failed(sim::ConnId conn, sim::NodeId target) override;
  void on_message(sim::ConnId conn, const util::Payload& payload) override;
  void on_connection_closed(sim::ConnId conn) override;

 private:
  void step(std::uint32_t k);

  LegacyStorm& owner_;
  std::uint32_t index_;
  std::vector<sim::ConnId> open_;
};

class LegacyStorm {
 public:
  LegacyStorm(const LegacyShape& shape, std::size_t shards)
      : shape(shape),
        net(shape.seed, sim::ShardingConfig{shards}),
        logs(shape.nodes) {
    for (std::uint32_t i = 0; i < shape.nodes; ++i) {
      std::uint64_t h = mix(shape.seed ^ (0xad0ull << 40) ^ i);
      sim::HostProfile profile;
      profile.ip = util::Ipv4{static_cast<std::uint32_t>(0x0a000000u | i)};
      profile.port = static_cast<std::uint16_t>(6346 + i);
      profile.behind_nat = (h % 5) == 0;
      ids.push_back(
          net.add_node(std::make_unique<LegacyStormNode>(*this, i), profile));
    }
    // Churn subset: a third of the nodes detach at a hash-chosen instant and
    // a fresh instance reattaches later, exactly the ChurnDriver pattern
    // (posted to the victim's own entity, never from inside its handlers).
    for (std::uint32_t i = 0; i < shape.nodes; ++i) {
      std::uint64_t h = mix(shape.seed ^ (0xdeadull << 32) ^ i);
      if (h % 3 != 0) continue;
      std::int64_t leave_ms =
          500 + static_cast<std::int64_t>((h >> 8) % (shape.horizon_ms / 2));
      std::int64_t back_ms =
          leave_ms + 200 + static_cast<std::int64_t>((h >> 40) % 1500);
      sim::NodeId id = ids[i];
      net.engine().post(net.entity_of(id), util::SimTime::at_millis(leave_ms),
                        [this, id] { net.remove_node(id); });
      net.engine().post(net.entity_of(id), util::SimTime::at_millis(back_ms),
                        [this, id, i] {
                          net.attach_node(
                              id, std::make_unique<LegacyStormNode>(*this, i));
                        });
    }
  }

  void run() {
    net.engine().run_until(util::SimTime::at_millis(shape.horizon_ms + 3000));
  }

  const LegacyShape& shape;
  sim::Network net;
  std::vector<sim::NodeId> ids;
  std::vector<std::vector<LegacyEvent>> logs;
};

void LegacyStormNode::start() {
  std::uint64_t h = mix(owner_.shape.seed ^ (std::uint64_t{index_} << 20));
  network().schedule_node(
      id(), util::SimDuration::millis(1 + static_cast<std::int64_t>(h % 300)),
      [this] { step(0); });
}

bool LegacyStormNode::accept_connection(sim::NodeId from) {
  // Deterministic per (self, dialer): some peers always refuse some dialers.
  return mix(owner_.shape.seed ^ (std::uint64_t{index_} << 32) ^ from) % 7 != 0;
}

void LegacyStormNode::on_connection_open(sim::ConnId conn, sim::NodeId peer,
                                         bool initiated) {
  owner_.logs[index_].push_back(
      {network().now().millis(), 0, std::uint64_t{peer}});
  open_.push_back(conn);
  if (initiated) {
    // Greet down the fresh pipe: exercises tx_free serialization from the
    // very first exchange.
    network().send(conn, id(), util::Payload(util::Bytes(64, 0x5a)));
  }
}

void LegacyStormNode::on_connection_failed(sim::ConnId conn,
                                           sim::NodeId target) {
  (void)conn;
  owner_.logs[index_].push_back(
      {network().now().millis(), 1, std::uint64_t{target}});
}

void LegacyStormNode::on_message(sim::ConnId conn, const util::Payload& payload) {
  (void)conn;
  owner_.logs[index_].push_back(
      {network().now().millis(), 3, payload.size()});
}

void LegacyStormNode::on_connection_closed(sim::ConnId conn) {
  owner_.logs[index_].push_back({network().now().millis(), 2, 0});
  std::erase(open_, conn);
}

void LegacyStormNode::step(std::uint32_t k) {
  std::int64_t now_ms = network().now().millis();
  if (now_ms > owner_.shape.horizon_ms) return;
  std::uint64_t h = mix(owner_.shape.seed ^ (std::uint64_t{index_} << 24) ^
                        (std::uint64_t{k} << 4));
  switch (h % 4) {
    case 0: {  // dial a hash-chosen peer (possibly NATed or refusing)
      std::uint32_t dst = static_cast<std::uint32_t>((h >> 16) % owner_.shape.nodes);
      if (dst != index_) network().connect(id(), owner_.ids[dst]);
      break;
    }
    case 1:
    case 2: {  // burst 1..3 payloads down one open connection
      if (!open_.empty()) {
        sim::ConnId conn = open_[(h >> 16) % open_.size()];
        std::uint32_t burst = 1 + static_cast<std::uint32_t>((h >> 32) % 3);
        for (std::uint32_t b = 0; b < burst; ++b) {
          std::size_t size = 16 + ((h >> (8 + 4 * b)) % 900);
          network().send(conn, id(),
                         util::Payload(util::Bytes(size, std::uint8_t(b))));
        }
      }
      break;
    }
    default: {  // hang up one open connection
      if (!open_.empty()) {
        network().close(open_[(h >> 16) % open_.size()], id());
      }
      break;
    }
  }
  network().schedule_node(
      id(),
      util::SimDuration::millis(1 + static_cast<std::int64_t>((h >> 48) % 180)),
      [this, k] { step(k + 1); });
}

class LegacyStormFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LegacyStormFuzz, NetworkStormsMatchOneShardBaseline) {
  const int rounds = fuzz_rounds(4);
  for (int round = 0; round < rounds; ++round) {
    LegacyShape shape = draw_legacy_shape(GetParam() * 6700417ull + round);
    LegacyStorm baseline(shape, 1);
    baseline.run();
    ASSERT_GT(baseline.net.messages_delivered(), 0u)
        << "degenerate storm, seed " << shape.seed;
    for (std::size_t shards : {2u, 3u, 5u}) {
      LegacyStorm storm(shape, shards);
      storm.run();
      EXPECT_EQ(baseline.net.engine().executed(), storm.net.engine().executed())
          << "round " << round << " shards " << shards;
      EXPECT_EQ(baseline.net.messages_delivered(), storm.net.messages_delivered());
      EXPECT_EQ(baseline.net.bytes_delivered(), storm.net.bytes_delivered());
      EXPECT_EQ(baseline.net.open_connection_count(),
                storm.net.open_connection_count());
      for (std::uint32_t i = 0; i < shape.nodes; ++i) {
        ASSERT_EQ(baseline.logs[i], storm.logs[i])
            << "node " << i << " log diverged, round " << round << ", shards "
            << shards;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LegacyStormFuzz,
                         ::testing::Values(3ull, 0xa11ceull));

}  // namespace
}  // namespace p2p
