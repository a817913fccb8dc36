#include "sim/network.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace p2p::sim {
namespace {

/// Records everything that happens to it; optionally refuses connections.
class ProbeNode : public Node {
 public:
  struct Event {
    std::string kind;
    ConnId conn = kInvalidConn;
    NodeId peer = kInvalidNode;
    util::Bytes payload;
    SimTime at;
  };

  bool accept = true;
  std::vector<Event> events;

  bool accept_connection(NodeId from) override {
    record("accept?", kInvalidConn, from);
    return accept;
  }
  void on_connection_open(ConnId conn, NodeId peer, bool initiated) override {
    record(initiated ? "open-out" : "open-in", conn, peer);
  }
  void on_connection_failed(ConnId conn, NodeId target) override {
    record("failed", conn, target);
  }
  void on_message(ConnId conn, const util::Payload& payload) override {
    record("msg", conn, kInvalidNode, payload.to_bytes());
  }
  void on_connection_closed(ConnId conn) override {
    record("closed", conn, kInvalidNode);
  }

  [[nodiscard]] int count(const std::string& kind) const {
    int n = 0;
    for (const auto& e : events) {
      if (e.kind == kind) ++n;
    }
    return n;
  }
  /// Sim time of the first event of `kind` (throws if there is none).
  [[nodiscard]] SimTime first(const std::string& kind) const {
    for (const auto& e : events) {
      if (e.kind == kind) return e.at;
    }
    throw std::out_of_range(kind);
  }

 private:
  void record(std::string kind, ConnId conn, NodeId peer, util::Bytes payload = {}) {
    events.push_back({std::move(kind), conn, peer, std::move(payload), network().now()});
  }
};

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

struct Fixture {
  Network net{1234};
  ProbeNode* a = nullptr;
  ProbeNode* b = nullptr;
  NodeId a_id = kInvalidNode;
  NodeId b_id = kInvalidNode;

  explicit Fixture(bool b_nat = false) {
    auto na = std::make_unique<ProbeNode>();
    auto nb = std::make_unique<ProbeNode>();
    a = na.get();
    b = nb.get();
    HostProfile pa;
    pa.ip = util::Ipv4(1, 1, 1, 1);
    pa.port = 1000;
    HostProfile pb;
    pb.ip = util::Ipv4(2, 2, 2, 2);
    pb.port = 2000;
    pb.behind_nat = b_nat;
    a_id = net.add_node(std::move(na), pa);
    b_id = net.add_node(std::move(nb), pb);
  }
};

TEST(Network, ConnectDeliversOpenOnBothSides) {
  Fixture f;
  ConnId c = f.net.connect(f.a_id, f.b_id);
  f.net.engine().run_until(SimTime::at_millis(10'000));
  EXPECT_EQ(f.b->count("open-in"), 1);
  EXPECT_EQ(f.a->count("open-out"), 1);
  EXPECT_TRUE(f.net.connection_open(c));
  EXPECT_EQ(f.net.peer_of(c, f.a_id), f.b_id);
  EXPECT_EQ(f.net.peer_of(c, f.b_id), f.a_id);
}

TEST(Network, ConnectToNatTargetFails) {
  Fixture f(/*b_nat=*/true);
  f.net.connect(f.a_id, f.b_id);
  f.net.engine().run_until(SimTime::at_millis(10'000));
  EXPECT_EQ(f.a->count("failed"), 1);
  EXPECT_EQ(f.b->count("open-in"), 0);
  // The target refuses on arrival and the answer travels back: the
  // initiator hears of the failure after a full round trip, 2·latency.
  std::int64_t rtt = f.a->first("failed").millis();
  EXPECT_EQ(rtt % 2, 0);
  EXPECT_GE(rtt, 2 * f.net.latency_model.min.count_ms());
  EXPECT_LE(rtt, 2 * f.net.latency_model.max.count_ms());
}

TEST(Network, NatNodeCanInitiate) {
  Fixture f(/*b_nat=*/true);
  f.net.connect(f.b_id, f.a_id);
  f.net.engine().run_until(SimTime::at_millis(10'000));
  EXPECT_EQ(f.b->count("open-out"), 1);
  EXPECT_EQ(f.a->count("open-in"), 1);
}

TEST(Network, RefusedConnectionFails) {
  Fixture f;
  f.b->accept = false;
  f.net.connect(f.a_id, f.b_id);
  f.net.engine().run_until(SimTime::at_millis(10'000));
  EXPECT_EQ(f.a->count("failed"), 1);
  EXPECT_EQ(f.b->count("open-in"), 0);
  // The request reaches the target after one latency; the refusal reaches
  // the initiator after a second one.
  std::int64_t latency = f.b->first("accept?").millis();
  EXPECT_EQ(f.a->first("failed").millis(), 2 * latency);
}

TEST(Network, MessagesArriveInOrder) {
  Fixture f;
  ConnId c = f.net.connect(f.a_id, f.b_id);
  f.net.engine().run_until(SimTime::at_millis(10'000));
  f.net.send(c, f.a_id, {1});
  f.net.send(c, f.a_id, {2});
  f.net.send(c, f.a_id, {3});
  f.net.engine().run_until(SimTime::at_millis(60'000));
  ASSERT_EQ(f.b->count("msg"), 3);
  std::vector<std::uint8_t> seen;
  for (const auto& e : f.b->events) {
    if (e.kind == "msg") seen.push_back(e.payload[0]);
  }
  EXPECT_EQ(seen, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(Network, LargerMessagesTakeLonger) {
  Fixture f;
  ConnId c = f.net.connect(f.a_id, f.b_id);
  f.net.engine().run_until(SimTime::at_millis(10'000));
  SimTime start = f.net.now();

  util::Bytes big(48'000);  // one second at the default 48 kB/s uplink
  f.net.send(c, f.a_id, std::move(big));
  f.net.engine().run_until(start + SimDuration::millis(500));
  EXPECT_EQ(f.b->count("msg"), 0);  // still in transfer
  f.net.engine().run_until(start + SimDuration::seconds(5));
  EXPECT_EQ(f.b->count("msg"), 1);
}

TEST(Network, SendsSerializePerDirection) {
  Fixture f;
  ConnId c = f.net.connect(f.a_id, f.b_id);
  f.net.engine().run_until(SimTime::at_millis(10'000));
  SimTime start = f.net.now();
  // Two 1-second transfers back to back: second arrives ~2s after start.
  f.net.send(c, f.a_id, util::Bytes(48'000));
  f.net.send(c, f.a_id, util::Bytes(48'000));
  f.net.engine().run_until(start + SimDuration::millis(1'600));
  EXPECT_EQ(f.b->count("msg"), 1);
  f.net.engine().run_until(start + SimDuration::seconds(6));
  EXPECT_EQ(f.b->count("msg"), 2);
}

TEST(Network, CloseNotifiesPeerAndStopsNewSends) {
  Fixture f;
  ConnId c = f.net.connect(f.a_id, f.b_id);
  f.net.engine().run_until(SimTime::at_millis(10'000));
  f.net.close(c, f.a_id);
  EXPECT_FALSE(f.net.connection_open(c));
  f.net.send(c, f.a_id, {1});  // dropped silently
  f.net.engine().run_until(SimTime::at_millis(60'000));
  EXPECT_EQ(f.b->count("closed"), 1);
  EXPECT_EQ(f.b->count("msg"), 0);
}

TEST(Network, InFlightMessageSurvivesClose) {
  Fixture f;
  ConnId c = f.net.connect(f.a_id, f.b_id);
  f.net.engine().run_until(SimTime::at_millis(10'000));
  f.net.send(c, f.a_id, {42});
  f.net.close(c, f.a_id);  // close races the in-flight byte
  f.net.engine().run_until(SimTime::at_millis(60'000));
  EXPECT_EQ(f.b->count("msg"), 1);
}

TEST(Network, RemoveNodeClosesConnectionsAndDropsDeliveries) {
  Fixture f;
  ConnId c = f.net.connect(f.a_id, f.b_id);
  f.net.engine().run_until(SimTime::at_millis(10'000));
  std::uint64_t sent = counter("net.messages_sent");
  std::uint64_t dropped = counter("net.messages_dropped");
  f.net.remove_node(f.a_id);
  EXPECT_FALSE(f.net.alive(f.a_id));
  EXPECT_EQ(f.net.node_count(), 1u);
  // b has not heard of the close yet, so its send to the dead peer counts
  // as sent — and drops at delivery.
  f.net.send(c, f.b_id, {7});
  EXPECT_EQ(counter("net.messages_sent"), sent + 1);
  f.net.engine().run_until(SimTime::at_millis(60'000));
  EXPECT_EQ(counter("net.messages_dropped"), dropped + 1);
  EXPECT_EQ(f.net.messages_delivered(), 0u);
  // a is gone (its node object was destroyed); b is notified of the close.
  EXPECT_EQ(f.b->count("closed"), 1);
}

TEST(Network, LookupFindsPublicListeners) {
  Fixture f(/*b_nat=*/true);
  auto found = f.net.lookup(util::Endpoint{util::Ipv4(1, 1, 1, 1), 1000});
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, f.a_id);
  // NATed nodes are not reachable by endpoint.
  EXPECT_FALSE(f.net.lookup(util::Endpoint{util::Ipv4(2, 2, 2, 2), 2000}).has_value());
  // Unknown endpoint.
  EXPECT_FALSE(f.net.lookup(util::Endpoint{util::Ipv4(9, 9, 9, 9), 1}).has_value());
}

TEST(Network, LookupKeepsRemovedSlotButConnectIsRefused) {
  Fixture f;
  f.net.remove_node(f.a_id);
  // The slot keeps its listener endpoint across churn (the engine's entity
  // partition never changes mid-run); liveness is decided at the target.
  auto found = f.net.lookup(util::Endpoint{util::Ipv4(1, 1, 1, 1), 1000});
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, f.a_id);
  f.net.connect(f.b_id, *found);
  f.net.engine().run_until(SimTime::at_millis(10'000));
  EXPECT_EQ(f.b->count("failed"), 1);
  EXPECT_EQ(f.b->count("open-out"), 0);
}

TEST(Network, ScheduleNodeSkipsRemoved) {
  Fixture f;
  int fired = 0;
  f.net.schedule_node(f.a_id, SimDuration::seconds(1), [&] { ++fired; });
  f.net.remove_node(f.a_id);
  f.net.engine().run_until(SimTime::at_millis(60'000));
  EXPECT_EQ(fired, 0);
}

TEST(Network, ScheduleNodeFiresForLiveNode) {
  Fixture f;
  int fired = 0;
  f.net.schedule_node(f.a_id, SimDuration::seconds(1), [&] { ++fired; });
  f.net.engine().run_until(SimTime::at_millis(60'000));
  EXPECT_EQ(fired, 1);
}

TEST(Network, StatsCountDeliveries) {
  Fixture f;
  ConnId c = f.net.connect(f.a_id, f.b_id);
  f.net.engine().run_until(SimTime::at_millis(10'000));
  f.net.send(c, f.a_id, {1, 2, 3});
  f.net.engine().run_until(SimTime::at_millis(60'000));
  EXPECT_EQ(f.net.messages_delivered(), 1u);
  EXPECT_EQ(f.net.bytes_delivered(), 3u);
}

}  // namespace
}  // namespace p2p::sim
