// Cross-cutting invariants: random operation sequences against the
// executors and the simulator must never crash or corrupt state, and a
// full study's response log must be internally consistent. The executor
// op-fuzz and the study consistency suite run parametrically over shard
// counts.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "analysis/stats.h"
#include "core/study.h"
#include "sim/network.h"
#include "sim/sharded_engine.h"
#include "util/rng.h"

namespace p2p {
namespace {

using sim::SimDuration;
using sim::SimTime;

// ---------------------------------------------------------------------------
// Executor op-fuzz (parametric over engines)
// ---------------------------------------------------------------------------

// Enumerator values are printed in the test names; keep them stable.
enum class EngineKind { kSharded1 = 1, kSharded4 };

std::unique_ptr<sim::ShardedEngine> make_engine(EngineKind kind) {
  sim::ShardedEngine::Config config;
  config.shards = kind == EngineKind::kSharded4 ? 4 : 1;
  return std::make_unique<sim::ShardedEngine>(config);
}

class EngineOpFuzz
    : public ::testing::TestWithParam<std::tuple<EngineKind, std::uint64_t>> {};

TEST_P(EngineOpFuzz, RandomScheduleRunSequencesKeepAccountingConsistent) {
  auto [kind, seed] = GetParam();
  util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  auto engine = make_engine(kind);
  std::uint64_t scheduled = 0;
  std::uint64_t handler_fired = 0;

  for (int op = 0; op < 300; ++op) {
    switch (rng.index(4)) {
      case 0: {  // burst of schedules, some re-entrant
        std::uint64_t n = rng.bounded(12);
        for (std::uint64_t i = 0; i < n; ++i) {
          SimTime at = engine->now() +
                       SimDuration::millis(static_cast<std::int64_t>(rng.bounded(500)));
          bool chain = rng.chance(0.25);
          auto* eng = engine.get();
          ++scheduled;
          engine->schedule_at(at, [&handler_fired, &scheduled, eng, chain] {
            ++handler_fired;
            if (chain) {
              ++scheduled;
              eng->schedule_in(SimDuration::millis(7),
                               [&handler_fired] { ++handler_fired; });
            }
          });
        }
        break;
      }
      case 1:  // partial drain
        engine->run_until(engine->now() + SimDuration::millis(
                                              static_cast<std::int64_t>(rng.bounded(300))));
        break;
      case 2:  // zero-width window (clock stays put, nothing lost)
        engine->run_until(engine->now());
        break;
      default: {  // clock-driven invariants hold mid-stream
        EXPECT_EQ(engine->executed() + engine->pending(), scheduled);
        EXPECT_EQ(engine->empty(), engine->pending() == 0);
        break;
      }
    }
    // now() never runs backwards and executed() is monotone by construction;
    // the accounting identity is re-checked after every op.
    ASSERT_LE(engine->executed(), scheduled);
  }

  engine->run_all();
  EXPECT_TRUE(engine->empty());
  EXPECT_EQ(engine->pending(), 0u);
  EXPECT_EQ(engine->executed(), scheduled);
  EXPECT_EQ(handler_fired, scheduled);
}

std::string engine_case_name(
    const ::testing::TestParamInfo<std::tuple<EngineKind, std::uint64_t>>&
        info) {
  std::string name;
  switch (std::get<0>(info.param)) {
    case EngineKind::kSharded1: name = "Sharded1"; break;
    case EngineKind::kSharded4: name = "Sharded4"; break;
  }
  return name + "_seed" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Executors, EngineOpFuzz,
    ::testing::Combine(::testing::Values(EngineKind::kSharded1,
                                         EngineKind::kSharded4),
                       ::testing::Range<std::uint64_t>(1, 5)),
    engine_case_name);

/// Minimal node that talks back occasionally.
class ChattyNode : public sim::Node {
 public:
  explicit ChattyNode(std::uint64_t seed) : rng_(seed) {}
  void on_message(sim::ConnId conn, const util::Payload& payload) override {
    ++received_;
    if (rng_.chance(0.3) && !payload.empty()) {
      network().send(conn, id(), {payload[0]});
    }
  }
  std::uint64_t received_ = 0;

 private:
  util::Rng rng_;
};

class SimulatorOpFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorOpFuzz, RandomOperationSequencesAreSafe) {
  util::Rng rng(GetParam());
  sim::Network net(GetParam() ^ 0x51u);

  std::vector<sim::NodeId> nodes;
  std::vector<sim::ConnId> conns;
  for (int i = 0; i < 10; ++i) {
    sim::HostProfile profile;
    profile.ip = util::Ipv4(70, 0, 0, static_cast<std::uint8_t>(i + 1));
    profile.port = 1000;
    profile.behind_nat = rng.chance(0.3);
    nodes.push_back(net.add_node(std::make_unique<ChattyNode>(rng.next()), profile));
  }

  for (int op = 0; op < 400; ++op) {
    switch (rng.index(5)) {
      case 0: {  // connect two random nodes
        sim::NodeId a = nodes[rng.index(nodes.size())];
        sim::NodeId b = nodes[rng.index(nodes.size())];
        if (a != b && net.alive(a)) conns.push_back(net.connect(a, b));
        break;
      }
      case 1: {  // send on a random connection from a random side
        if (conns.empty()) break;
        sim::ConnId c = conns[rng.index(conns.size())];
        sim::NodeId sender = nodes[rng.index(nodes.size())];
        if (net.peer_of(c, sender) != sim::kInvalidNode && net.connection_open(c)) {
          util::Bytes payload(rng.index(100) + 1);
          rng.fill(payload);
          net.send(c, sender, std::move(payload));
        }
        break;
      }
      case 2: {  // close a random connection
        if (conns.empty()) break;
        sim::ConnId c = conns[rng.index(conns.size())];
        sim::NodeId closer = nodes[rng.index(nodes.size())];
        if (net.peer_of(c, closer) != sim::kInvalidNode) net.close(c, closer);
        break;
      }
      case 3: {  // remove a node (rarely), keeping at least half alive
        if (net.node_count() > 5 && rng.chance(0.2)) {
          net.remove_node(nodes[rng.index(nodes.size())]);
        }
        break;
      }
      default:  // let time pass
        net.engine().run_until(net.now() + SimDuration::seconds(
                                               static_cast<std::int64_t>(rng.index(30))));
        break;
    }
  }
  net.engine().run_until(net.now() + SimDuration::minutes(10));

  // Structural invariants after the storm.
  std::size_t alive = 0;
  for (sim::NodeId id : nodes) {
    if (net.alive(id)) ++alive;
  }
  EXPECT_EQ(alive, net.node_count());
  EXPECT_GE(net.node_count(), 5u);
  for (sim::ConnId c : conns) {
    if (net.connection_open(c)) {
      // Open connections connect two currently-alive nodes.
      bool found_owner = false;
      for (sim::NodeId id : nodes) {
        if (net.peer_of(c, id) != sim::kInvalidNode && net.alive(id)) {
          found_owner = true;
          break;
        }
      }
      EXPECT_TRUE(found_owner);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorOpFuzz, ::testing::Range<std::uint64_t>(1, 9));

// Parametric over the shard count: shards=0 (the default mapping to one
// shard) and 1 run on the calling thread, shards=4 on the parallel engine —
// all under the same consistency checks.
class StudyInvariants : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StudyInvariants, ResponseLogIsInternallyConsistent) {
  auto cfg = core::limewire_quick();
  cfg.shards = GetParam();
  cfg.population.ultrapeers = 6;
  cfg.population.leaves = 80;
  cfg.population.corpus.num_titles = 300;
  cfg.crawl.duration = SimDuration::hours(3);
  cfg.crawl.query_interval = SimDuration::seconds(120);
  auto result = core::run_limewire_study(cfg);
  ASSERT_GT(result.records.size(), 100u);

  std::map<std::string, bool> label_by_content;
  std::map<std::string, std::string> strain_by_content;
  for (const auto& r : result.records) {
    // Ids are unique and dense from 1.
    // Times lie within the crawl window.
    EXPECT_GE(r.at.millis(), 0);
    EXPECT_LE(r.at, SimTime::zero() + cfg.crawl.warmup + cfg.crawl.duration +
                        SimDuration::minutes(10));
    // Network tag is uniform.
    EXPECT_EQ(r.network, "limewire");
    // Downloaded implies attempted; infected implies downloaded + named strain.
    if (r.downloaded) {
      EXPECT_TRUE(r.download_attempted);
    }
    if (r.infected) {
      EXPECT_TRUE(r.downloaded);
      EXPECT_FALSE(r.strain_name.empty());
    }
    // The same content hash always carries the same verdict and strain.
    if (r.downloaded) {
      auto [it, inserted] = label_by_content.emplace(r.content_key, r.infected);
      if (!inserted) {
        EXPECT_EQ(it->second, r.infected) << r.content_key;
      }
      auto [it2, inserted2] = strain_by_content.emplace(r.content_key, r.strain_name);
      if (!inserted2) {
        EXPECT_EQ(it2->second, r.strain_name) << r.content_key;
      }
    }
    // Non-study types are never labeled.
    if (!r.is_study_type()) {
      EXPECT_FALSE(r.download_attempted);
      EXPECT_FALSE(r.infected);
    }
  }

  // Prevalence identities.
  auto s = analysis::prevalence(result.records);
  EXPECT_EQ(s.exe_labeled + s.archive_labeled, s.labeled);
  EXPECT_EQ(s.exe_infected + s.archive_infected, s.infected);
  EXPECT_LE(s.infected, s.labeled);
  EXPECT_LE(s.labeled, s.study_responses);
  EXPECT_LE(s.study_responses, s.total_responses);

  // Strain shares sum to 1 over malicious responses.
  auto ranking = analysis::strain_ranking(result.records);
  double share_sum = 0;
  std::uint64_t response_sum = 0;
  for (const auto& r : ranking) {
    share_sum += r.share;
    response_sum += r.responses;
  }
  if (!ranking.empty()) {
    EXPECT_NEAR(share_sum, 1.0, 1e-9);
    EXPECT_EQ(response_sum, s.infected);
  }

  // Source classes partition malicious responses.
  auto src = analysis::sources(result.records);
  std::uint64_t class_sum = 0;
  for (const auto& [klass, count] : src.by_class) class_sum += count;
  EXPECT_EQ(class_sum, src.malicious_responses);
  EXPECT_EQ(src.malicious_responses, s.infected);

  // Daily bins partition the log.
  auto days = analysis::daily_series(result.records);
  std::uint64_t day_total = 0, day_infected = 0;
  for (const auto& d : days) {
    day_total += d.responses;
    day_infected += d.infected;
  }
  EXPECT_EQ(day_total, s.total_responses);
  EXPECT_EQ(day_infected, s.infected);
}

INSTANTIATE_TEST_SUITE_P(Shards, StudyInvariants,
                         ::testing::Values(0u, 1u, 4u),
                         [](const auto& info) {
                           return info.param == 0
                                      ? std::string("Legacy")
                                      : "Shards" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace p2p
