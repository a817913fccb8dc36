// Executor contract + the per-shard event heap.
//
// The first half runs parametrically against ShardedEngine at 1, 2 and 4
// shards, pinning the contract every partition must share — time order,
// same-context tie order, clock visibility, monotonicity, and
// run_until/run_all semantics. The second half covers the 4-ary slab heap
// under every shard (sim::ShardQueue: pop order equivalent to a binary heap
// over the same key) and the Task small-buffer closure type.
#include "sim/shard_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "sim/sharded_engine.h"
#include "util/rng.h"

namespace p2p::sim {
namespace {

// ---------------------------------------------------------------------------
// Engine contract (parametric over shard counts)
// ---------------------------------------------------------------------------

// Enumerator values are printed in the test names; keep them stable.
enum class EngineKind { kSharded2, kSharded1, kSharded4 };

std::size_t shard_count(EngineKind kind) {
  switch (kind) {
    case EngineKind::kSharded1: return 1;
    case EngineKind::kSharded2: return 2;
    case EngineKind::kSharded4: return 4;
  }
  return 1;
}

std::unique_ptr<ShardedEngine> make_engine(EngineKind kind) {
  ShardedEngine::Config config;
  config.shards = shard_count(kind);
  return std::make_unique<ShardedEngine>(config);
}

std::string kind_name(const ::testing::TestParamInfo<EngineKind>& info) {
  return "Sharded" + std::to_string(shard_count(info.param));
}

class EngineContract : public ::testing::TestWithParam<EngineKind> {
 protected:
  std::unique_ptr<ShardedEngine> q_ = make_engine(GetParam());
  ShardedEngine& q() { return *q_; }
};

TEST_P(EngineContract, RunsInTimeOrder) {
  std::vector<int> order;
  q().schedule_at(SimTime::at_millis(30), [&] { order.push_back(3); });
  q().schedule_at(SimTime::at_millis(10), [&] { order.push_back(1); });
  q().schedule_at(SimTime::at_millis(20), [&] { order.push_back(2); });
  q().run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q().now(), SimTime::at_millis(30));
}

TEST_P(EngineContract, TiesBreakByScheduleOrder) {
  // Same instant, same scheduling context: runs in scheduling order at
  // every shard count (the origin-sequence tie break).
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q().schedule_at(SimTime::at_millis(10), [&order, i] { order.push_back(i); });
  }
  q().run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_P(EngineContract, ClockAdvancesDuringExecution) {
  SimTime seen;
  q().schedule_at(SimTime::at_millis(42), [&] { seen = q().now(); });
  q().run_all();
  EXPECT_EQ(seen, SimTime::at_millis(42));
}

TEST_P(EngineContract, EventsCanScheduleMoreEvents) {
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) q().schedule_in(SimDuration::millis(10), tick);
  };
  q().schedule_in(SimDuration::millis(10), tick);
  q().run_all();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(q().now(), SimTime::at_millis(50));
}

TEST_P(EngineContract, SchedulingInPastThrows) {
  q().schedule_at(SimTime::at_millis(100), [] {});
  q().run_all();
  EXPECT_THROW(q().schedule_at(SimTime::at_millis(50), [] {}),
               std::invalid_argument);
}

TEST_P(EngineContract, RunUntilLeavesLaterEventsQueued) {
  int ran = 0;
  q().schedule_at(SimTime::at_millis(10), [&] { ++ran; });
  q().schedule_at(SimTime::at_millis(100), [&] { ++ran; });
  q().run_until(SimTime::at_millis(50));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(q().pending(), 1u);
  EXPECT_EQ(q().now(), SimTime::at_millis(50));
  q().run_until(SimTime::at_millis(200));
  EXPECT_EQ(ran, 2);
}

TEST_P(EngineContract, RunUntilInclusiveOfBoundary) {
  bool ran = false;
  q().schedule_at(SimTime::at_millis(50), [&] { ran = true; });
  q().run_until(SimTime::at_millis(50));
  EXPECT_TRUE(ran);
}

TEST_P(EngineContract, CountsExecutedAndDrains) {
  for (int i = 0; i < 7; ++i) q().schedule_in(SimDuration::millis(i), [] {});
  q().run_all();
  EXPECT_EQ(q().executed(), 7u);
  EXPECT_TRUE(q().empty());
  EXPECT_EQ(q().pending(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Executors, EngineContract,
                         ::testing::Values(EngineKind::kSharded2,
                                           EngineKind::kSharded1,
                                           EngineKind::kSharded4),
                         kind_name);

// ---------------------------------------------------------------------------
// ShardQueue: the 4-ary slab heap under every shard
// ---------------------------------------------------------------------------

TEST(ShardQueue, EmptyUntilPushedAndAfterDrain) {
  ShardQueue q;
  EXPECT_TRUE(q.empty());
  int ran = 0;
  q.push(ShardQueue::Entry{1, 0, 0, 0}, 3, [&ran] { ++ran; });
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.size(), 1u);
  auto popped = q.pop();
  EXPECT_EQ(popped.dst, 3u);
  popped.action();
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(q.empty());
}

// Reference for the property test below: a binary heap with the inverted
// comparator over the same (at, origin entity, origin sequence) key. Every
// report byte depends on pop order, so the 4-ary heap must reproduce this
// order — not just "some valid order".
struct RefEntry {
  std::int64_t at;
  std::uint32_t oid;
  std::uint64_t oseq;
};
struct RefLater {
  bool operator()(const RefEntry& a, const RefEntry& b) const {
    if (a.at != b.at) return a.at > b.at;
    if (a.oid != b.oid) return a.oid > b.oid;
    return a.oseq > b.oseq;
  }
};

TEST(ShardQueue, PropertyPopsMatchBinaryHeapUnderRandomSchedules) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    util::Rng rng(0x4a77'0000 + seed);
    ShardQueue q;
    std::priority_queue<RefEntry, std::vector<RefEntry>, RefLater> ref;
    std::vector<std::uint64_t> next_oseq(5, 0);
    std::int64_t clock = 0;
    std::vector<RefEntry> popped;
    std::vector<RefEntry> expected;

    auto pop_one = [&] {
      expected.push_back(ref.top());
      ref.pop();
      ASSERT_FALSE(q.empty());
      auto ev = q.pop();
      clock = ev.entry.at_ms;
      ev.action();
    };
    // Interleave bursts of pushes (with heavy stamp and origin collisions,
    // so both tie-break levels are exercised) and partial drains that
    // restructure the heap mid-stream.
    for (int round = 0; round < 40; ++round) {
      std::uint64_t pushes = rng.bounded(30);
      for (std::uint64_t i = 0; i < pushes; ++i) {
        RefEntry e{clock + static_cast<std::int64_t>(rng.bounded(8)),
                   static_cast<std::uint32_t>(rng.bounded(5)), 0};
        e.oseq = next_oseq[e.oid]++;
        q.push(ShardQueue::Entry{e.at, e.oseq, e.oid, 0}, e.oid,
               [&popped, e] { popped.push_back(e); });
        ref.push(e);
      }
      std::uint64_t pops = rng.bounded(20);
      for (std::uint64_t i = 0; i < pops && !ref.empty(); ++i) pop_one();
    }
    while (!ref.empty()) pop_one();
    ASSERT_TRUE(q.empty());

    ASSERT_EQ(popped.size(), expected.size()) << "seed " << seed;
    for (std::size_t i = 0; i < popped.size(); ++i) {
      EXPECT_EQ(popped[i].at, expected[i].at) << "seed " << seed;
      EXPECT_EQ(popped[i].oid, expected[i].oid) << "seed " << seed;
      EXPECT_EQ(popped[i].oseq, expected[i].oseq) << "seed " << seed;
    }
  }
}

TEST(Task, InvokesAndReportsEngagement) {
  int calls = 0;
  Task t([&] { ++calls; });
  EXPECT_TRUE(static_cast<bool>(t));
  t();
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(static_cast<bool>(Task{}));
}

TEST(Task, MoveTransfersCallable) {
  int calls = 0;
  Task a([&] { ++calls; });
  Task b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  b();
  EXPECT_EQ(calls, 1);
  Task c;
  c = std::move(b);
  c();
  EXPECT_EQ(calls, 2);
}

TEST(Task, LargeCapturesFallBackToHeapAndStillRun) {
  // 3x the inline budget: forces the heap path.
  struct Big {
    unsigned char blob[Task::kInlineSize * 3] = {};
  };
  auto big = std::make_shared<int>(0);
  Big payload;
  payload.blob[0] = 7;
  Task t([big, payload] { *big = payload.blob[0]; });
  Task moved(std::move(t));
  moved();
  EXPECT_EQ(*big, 7);
}

TEST(Task, DestroysCaptureExactlyOnce) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  {
    Task t([token = std::move(token)] { (void)token; });
    Task u(std::move(t));
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(Task, TypicalDeliveryClosureFitsInline) {
  // The shape of Network::send's delivery event: this + conn + receiver +
  // one Payload handle. If this ever outgrows the inline buffer the hot
  // path regresses to one allocation per message — fail loudly here.
  struct Probe {
    void* self;
    std::uint64_t conn;
    std::uint32_t receiver;
    void* payload_rep;
  };
  static_assert(sizeof(Probe) <= Task::kInlineSize,
                "delivery closure no longer fits Task inline storage");
}

}  // namespace
}  // namespace p2p::sim
