// KAD network suite (ctest label: kad).
//
// Property tests for the 128-bit XOR metric and the k-bucket routing
// table (LRU semantics model-checked against a reference implementation),
// codec round-trips, iterative-lookup convergence on a small simulated
// swarm, and the study-level contracts: deterministic reports, trace
// record/replay byte-identity (honeypot coverage included), and the
// monotone-with-diminishing-gains shape of the E9 coverage curve.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/kad_study.h"
#include "core/report.h"
#include "core/study.h"
#include "files/corpus.h"
#include "kad/id.h"
#include "kad/message.h"
#include "kad/node.h"
#include "kad/routing.h"
#include "sim/network.h"
#include "trace/writer.h"
#include "util/rng.h"

namespace p2p {
namespace {

kad::KadId random_id(util::Rng& rng) { return kad::KadId{rng.next(), rng.next()}; }

// 128-bit a + b with an overflow flag, for checking the triangle
// inequality without wrapping.
struct Sum128 {
  kad::KadId value;
  bool overflow = false;
};

Sum128 add128(const kad::KadId& a, const kad::KadId& b) {
  Sum128 s;
  s.value.lo = a.lo + b.lo;
  std::uint64_t carry = s.value.lo < a.lo ? 1 : 0;
  std::uint64_t hi = a.hi + b.hi;
  s.overflow = hi < a.hi;
  s.value.hi = hi + carry;
  s.overflow = s.overflow || s.value.hi < hi;
  return s;
}

// ---------------------------------------------------------------------------
// XOR metric
// ---------------------------------------------------------------------------

TEST(KadId, XorMetricIdentityAndSymmetry) {
  util::Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    kad::KadId a = random_id(rng), b = random_id(rng);
    EXPECT_TRUE((a ^ a).is_zero());
    EXPECT_EQ(a ^ b, b ^ a);
    if (a != b) {
      EXPECT_FALSE((a ^ b).is_zero());
    }
  }
}

TEST(KadId, XorMetricUnidirectional) {
  // For a fixed a and distance d there is exactly one b with d(a,b) = d:
  // distinct peers are at distinct distances from any vantage.
  util::Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    kad::KadId a = random_id(rng), b = random_id(rng), c = random_id(rng);
    if (b == c) continue;
    EXPECT_NE(a ^ b, a ^ c);
  }
}

TEST(KadId, XorMetricTriangleInequality) {
  util::Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    kad::KadId a = random_id(rng), b = random_id(rng), c = random_id(rng);
    Sum128 rhs = add128(a ^ b, b ^ c);
    if (rhs.overflow) continue;  // sum exceeds 128 bits: trivially >= d(a,c)
    EXPECT_LE(a ^ c, rhs.value);
  }
}

TEST(KadId, KeywordIdIsCaseInsensitive) {
  EXPECT_EQ(kad::keyword_id("Shrek"), kad::keyword_id("shrek"));
  EXPECT_NE(kad::keyword_id("shrek"), kad::keyword_id("shrek 2"));
}

TEST(KadId, NodeIdIsStablePerEndpoint) {
  util::Endpoint a{util::Ipv4(0x9c380101), 4662};
  util::Endpoint b{util::Ipv4(0x9c380101), 4663};
  EXPECT_EQ(kad::node_id_for(a), kad::node_id_for(a));
  EXPECT_NE(kad::node_id_for(a), kad::node_id_for(b));
}

TEST(KadId, BucketIndexIsTheDistanceMsb) {
  EXPECT_EQ(kad::bucket_index(kad::KadId{0, 0}), -1);
  EXPECT_EQ(kad::bucket_index(kad::KadId{0, 1}), 0);
  EXPECT_EQ(kad::bucket_index(kad::KadId{0, 2}), 1);
  EXPECT_EQ(kad::bucket_index(kad::KadId{0, 0x8000'0000'0000'0000ull}), 63);
  EXPECT_EQ(kad::bucket_index(kad::KadId{1, 0}), 64);
  EXPECT_EQ(kad::bucket_index(kad::KadId{0x8000'0000'0000'0000ull, 0}), 127);
  util::Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    kad::KadId d = random_id(rng);
    int idx = kad::bucket_index(d);
    ASSERT_GE(idx, 64);  // hi is nonzero almost surely
    // The index is the position of the highest set bit.
    EXPECT_TRUE(d.hi >> (idx - 64) == 1ull);
  }
}

TEST(KadId, HexRoundTrip) {
  util::Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    kad::KadId id = random_id(rng);
    EXPECT_EQ(kad::id_from_digest(kad::digest_of(id)), id);
    EXPECT_EQ(kad::to_hex(id).size(), 32u);
  }
}

// ---------------------------------------------------------------------------
// Routing table: LRU k-buckets model-checked against a reference
// ---------------------------------------------------------------------------

struct ModelEntry {
  kad::Contact contact;
  std::uint32_t failures = 0;
};

// Reference implementation of the documented bucket semantics.
class ModelTable {
 public:
  ModelTable(const kad::KadId& self, kad::RoutingConfig config)
      : self_(self), config_(config) {}

  void observe(const kad::Contact& c) {
    int idx = kad::bucket_index(c.id ^ self_);
    if (idx < 0) return;
    auto& bucket = buckets_[static_cast<std::size_t>(idx)];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      if (bucket[i].contact.id == c.id) {
        bucket.erase(bucket.begin() + static_cast<std::ptrdiff_t>(i));
        bucket.push_back(ModelEntry{c, 0});
        return;
      }
    }
    if (bucket.size() < config_.k) {
      bucket.push_back(ModelEntry{c, 0});
      return;
    }
    if (bucket.front().failures >= config_.stale_after_failures) {
      bucket.erase(bucket.begin());
      bucket.push_back(ModelEntry{c, 0});
    }
  }

  void fail(const kad::KadId& id) {
    int idx = kad::bucket_index(id ^ self_);
    if (idx < 0) return;
    for (auto& e : buckets_[static_cast<std::size_t>(idx)]) {
      if (e.contact.id == id) {
        ++e.failures;
        return;
      }
    }
  }

  const std::vector<ModelEntry>& bucket(int idx) const {
    return buckets_[static_cast<std::size_t>(idx)];
  }

 private:
  kad::KadId self_;
  kad::RoutingConfig config_;
  std::array<std::vector<ModelEntry>, 128> buckets_;
};

TEST(KadRouting, LruBucketsMatchReferenceModel) {
  kad::KadId self{0, 0};
  kad::RoutingConfig config;
  config.k = 4;
  config.stale_after_failures = 2;
  kad::RoutingTable table(self, config);
  ModelTable model(self, config);

  // A small id pool congesting the low buckets, so full-bucket eviction,
  // refresh-moves-to-tail, and the stale rule all get exercised.
  util::Rng rng(42);
  std::vector<kad::Contact> pool;
  for (std::uint64_t v = 1; v <= 48; ++v) {
    kad::Contact c;
    c.id = kad::KadId{0, v};
    c.addr = {util::Ipv4(0x0a000000u + static_cast<std::uint32_t>(v)),
              static_cast<std::uint16_t>(1000 + v)};
    c.firewalled = (v % 3) == 0;
    pool.push_back(c);
  }
  for (int op = 0; op < 4000; ++op) {
    kad::Contact c = pool[rng.index(pool.size())];
    if (rng.chance(0.3)) {
      // Re-observations may carry a refreshed address; the table must
      // keep the newest one.
      c.addr.port = static_cast<std::uint16_t>(2000 + rng.index(1000));
    }
    if (rng.chance(0.75)) {
      table.observe(c);
      model.observe(c);
    } else {
      table.fail(c.id);
      model.fail(c.id);
    }
    if (op % 64 != 0) continue;
    for (int b = 0; b < 8; ++b) {
      const auto& got = table.bucket(b);
      const auto& want = model.bucket(b);
      ASSERT_EQ(got.size(), want.size()) << "bucket " << b << " op " << op;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].contact, want[i].contact) << "bucket " << b;
        EXPECT_EQ(got[i].failures, want[i].failures) << "bucket " << b;
      }
    }
  }
}

TEST(KadRouting, SelfIsNeverBucketed) {
  kad::KadId self{7, 7};
  kad::RoutingTable table(self, {});
  kad::Contact me;
  me.id = self;
  table.observe(me);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.contains(self));
}

TEST(KadRouting, ClosestMatchesBruteForce) {
  util::Rng rng(43);
  kad::KadId self = random_id(rng);
  kad::RoutingTable table(self, {});
  for (int i = 0; i < 300; ++i) {
    kad::Contact c;
    c.id = random_id(rng);
    c.addr = {util::Ipv4(static_cast<std::uint32_t>(rng.next())),
              static_cast<std::uint16_t>(rng.bounded(65535) + 1)};
    table.observe(c);
  }
  for (int t = 0; t < 20; ++t) {
    kad::KadId target = random_id(rng);
    std::vector<kad::Contact> all;
    for (int b = 0; b < 128; ++b) {
      for (const auto& e : table.bucket(b)) all.push_back(e.contact);
    }
    std::sort(all.begin(), all.end(),
              [&](const kad::Contact& a, const kad::Contact& b) {
                kad::KadId da = a.id ^ target, db = b.id ^ target;
                if (da != db) return da < db;
                return a.id < b.id;
              });
    if (all.size() > 12) all.resize(12);
    EXPECT_EQ(table.closest(target, 12), all);
  }
}

// ---------------------------------------------------------------------------
// Codec round-trips
// ---------------------------------------------------------------------------

kad::Contact sample_contact(util::Rng& rng) {
  kad::Contact c;
  c.id = random_id(rng);
  c.addr = {util::Ipv4(static_cast<std::uint32_t>(rng.next())),
            static_cast<std::uint16_t>(rng.bounded(65536))};
  c.firewalled = rng.chance(0.3);
  return c;
}

kad::SourceEntry sample_entry(util::Rng& rng) {
  kad::SourceEntry e;
  e.keyword = random_id(rng);
  e.filename = "file_" + std::to_string(rng.index(1000)) + ".exe";
  e.size = rng.next() % (1u << 26);
  rng.fill(e.md5);
  e.owner = {util::Ipv4(static_cast<std::uint32_t>(rng.next())),
             static_cast<std::uint16_t>(rng.bounded(65536))};
  e.firewalled = rng.chance(0.4);
  return e;
}

TEST(KadCodec, AllCommandsRoundTrip) {
  util::Rng rng(44);
  std::vector<kad::KadPacket> packets;
  packets.push_back(kad::make_packet(kad::Ping{sample_contact(rng)}));
  packets.push_back(kad::make_packet(kad::Pong{sample_contact(rng)}));
  packets.push_back(
      kad::make_packet(kad::FindNode{sample_contact(rng), random_id(rng)}));
  packets.push_back(kad::make_packet(kad::FindNodeReply{
      {sample_contact(rng), sample_contact(rng), sample_contact(rng)}}));
  packets.push_back(
      kad::make_packet(kad::FindValue{sample_contact(rng), random_id(rng)}));
  packets.push_back(kad::make_packet(kad::FindValueReply{
      {sample_entry(rng), sample_entry(rng)}, {sample_contact(rng)}}));
  packets.push_back(kad::make_packet(
      kad::Store{sample_contact(rng), {sample_entry(rng), sample_entry(rng)}}));
  packets.push_back(kad::make_packet(kad::StoreReply{2}));
  kad::ServerRegister reg;
  reg.owner = {util::Ipv4(0x9c380105), 4711};
  reg.firewalled = true;
  reg.entries = {sample_entry(rng)};
  packets.push_back(kad::make_packet(reg));
  packets.push_back(kad::make_packet(kad::ServerQuery{99, "shrek keygen"}));
  packets.push_back(
      kad::make_packet(kad::ServerQueryReply{99, {sample_entry(rng)}}));

  for (const auto& pkt : packets) {
    auto wire = kad::serialize(pkt);
    auto parsed = kad::parse(wire);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->command, pkt.command);
    EXPECT_EQ(kad::serialize(*parsed), wire);  // canonical re-encoding
  }
}

TEST(KadCodec, RejectsTruncatedAndOversized) {
  util::Rng rng(45);
  auto wire = kad::serialize(
      kad::make_packet(kad::Store{sample_contact(rng), {sample_entry(rng)}}));
  for (std::size_t len = 0; len < wire.size(); ++len) {
    auto truncated = wire.to_bytes();
    truncated.resize(len);
    EXPECT_NO_THROW({ auto r = kad::parse(truncated); (void)r; });
  }
  // A contact count beyond kMaxContacts must be rejected, not allocated.
  kad::FindNodeReply reply;
  for (std::size_t i = 0; i < kad::kMaxContacts; ++i) {
    reply.contacts.push_back(sample_contact(rng));
  }
  auto ok_wire = kad::serialize(kad::make_packet(reply));
  EXPECT_TRUE(kad::parse(ok_wire).has_value());
}

// ---------------------------------------------------------------------------
// Iterative lookups on a small swarm
// ---------------------------------------------------------------------------

TEST(KadSwarm, LookupsConvergeAndSearchFindsPublishedContent) {
  sim::Network net(1234);
  auto host_cache = std::make_shared<kad::KadHostCache>();
  files::CorpusConfig corpus;
  corpus.num_titles = 40;
  corpus.seed = 7;
  auto catalog = std::make_shared<files::ContentCatalog>(corpus);

  const std::size_t kNodes = 24;
  std::vector<kad::KadNode*> nodes;
  std::vector<sim::NodeId> ids;
  for (std::size_t i = 0; i < kNodes; ++i) {
    sim::HostProfile profile;
    profile.ip = util::Ipv4(0x9c380200u + static_cast<std::uint32_t>(i));
    profile.port = static_cast<std::uint16_t>(5000 + i);
    profile.behind_nat = false;
    profile.uplink_bps = 200'000;
    profile.downlink_bps = 800'000;

    kad::KadConfig cfg;
    cfg.alias = 'n' + std::to_string(i);
    auto content = catalog->content(i % catalog->size());
    std::vector<kad::KadShare> shares{
        kad::KadShare{content, "/shared/" + content->name()}};
    auto node = std::make_unique<kad::KadNode>(cfg, std::move(shares),
                                               host_cache, 9000 + i);
    nodes.push_back(node.get());
    ids.push_back(net.add_node(std::move(node), profile));
    host_cache->add(util::Endpoint{profile.ip, profile.port});
  }

  // Bootstrap + first publish pass.
  net.engine().run_until(sim::SimTime::zero() + sim::SimDuration::seconds(120));
  std::size_t populated = 0;
  std::size_t indexed = 0;
  for (const auto* n : nodes) {
    if (n->routing().size() >= 3) ++populated;
    indexed += n->indexed_sources();
  }
  EXPECT_EQ(populated, kNodes) << "every node should learn >= 3 contacts";
  EXPECT_GT(indexed, kNodes) << "publishes should land on indexing nodes";

  // Search from node 0 for a title another node shares.
  std::vector<kad::KadSearchEvent> results;
  bool ended = false;
  nodes[0]->set_result_callback(
      [&](const kad::KadSearchEvent& ev) { results.push_back(ev); });
  nodes[0]->set_search_end_callback([&](std::uint64_t) { ended = true; });
  const std::string query = catalog->entry(3).query;
  net.schedule_node(ids[0], sim::SimDuration::seconds(1),
                    [&] { nodes[0]->search(query); });
  net.engine().run_until(sim::SimTime::zero() + sim::SimDuration::seconds(240));

  EXPECT_TRUE(ended) << "search window must close";
  ASSERT_FALSE(results.empty()) << "published content must be findable";
  for (const auto& ev : results) {
    EXPECT_FALSE(ev.entry.filename.empty());
    EXPECT_NE(ev.entry.owner, nodes[0]->self().addr);
  }
  EXPECT_GT(nodes[0]->stats().lookups_completed, 0u);
}

// ---------------------------------------------------------------------------
// Study-level contracts
// ---------------------------------------------------------------------------

core::KadStudyConfig small_study() {
  auto cfg = core::kad_quick();
  cfg.seed = 99;
  cfg.population.users = 60;
  cfg.population.corpus.num_titles = 300;
  cfg.crawl.duration = sim::SimDuration::hours(2);
  cfg.crawl.query_interval = sim::SimDuration::seconds(120);
  cfg.workload_top_n = 40;
  return cfg;
}

std::string report_json(const core::StudyResult& result) {
  auto report = core::build_report(result.records, "kad");
  core::attach_fault_report(report, result.faults_enabled,
                            result.fault_counters, result.crawl_stats);
  core::attach_kad_coverage(report, result.records, result.metrics);
  report.timeseries = result.timeseries;
  std::ostringstream out;
  core::write_report_json(out, report);
  return out.str();
}

TEST(KadStudy, TwoRunsAreByteIdentical) {
  auto cfg = small_study();
  auto a = core::run_kad_study(cfg);
  auto b = core::run_kad_study(cfg);
  ASSERT_EQ(a.records.size(), b.records.size());
  EXPECT_EQ(report_json(a), report_json(b));
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
}

TEST(KadStudy, TraceReplayReproducesTheReport) {
  auto cfg = small_study();
  std::string path = ::testing::TempDir() + "/kad_roundtrip.p2pt";
  trace::TraceHeader header;
  header.network = "kad";
  header.config_hash = core::config_hash(cfg);
  header.seed = cfg.seed;
  header.crawl_duration_ms = cfg.crawl.duration.count_ms();

  trace::TraceWriter writer(path, header);
  ASSERT_TRUE(writer.ok());
  auto live = core::run_kad_study(cfg, &writer);
  writer.write_summary(core::study_summary(live));
  writer.close();
  ASSERT_TRUE(writer.ok());

  core::StudyResult replayed;
  ASSERT_TRUE(core::load_study_trace(path, replayed, core::config_hash(cfg)));
  ASSERT_EQ(replayed.records.size(), live.records.size());
  // The honeypot observations flow through the same RecordSink as the
  // active client's responses, and the coverage denominators ride in the
  // summary's metrics snapshot — so replay is byte-identical, coverage
  // block included.
  EXPECT_EQ(report_json(replayed), report_json(live));
}

TEST(KadStudy, HoneypotStreamIsLabeledAndMerged) {
  auto result = core::run_kad_study(small_study());
  std::uint64_t honeypot_records = 0, active_records = 0, infected_obs = 0;
  std::uint64_t last_id = 0;
  sim::SimTime last_at{};
  for (const auto& rec : result.records) {
    EXPECT_EQ(rec.id, last_id + 1) << "ids must be renumbered contiguously";
    EXPECT_GE(rec.at, last_at) << "merged stream must stay time-ordered";
    last_id = rec.id;
    last_at = rec.at;
    if (rec.query_category == "honeypot") {
      ++honeypot_records;
      EXPECT_EQ(rec.network.rfind("kad.honeypot/", 0), 0u);
      if (rec.infected) {
        ++infected_obs;
        EXPECT_FALSE(rec.strain_name.empty());
        EXPECT_FALSE(rec.content_key.empty())
            << "only STOREs of malicious digests are labeled";
      }
    } else {
      ++active_records;
      EXPECT_EQ(rec.network, "kad");
    }
  }
  EXPECT_GT(honeypot_records, 0u);
  EXPECT_GT(active_records, 0u);
  EXPECT_GT(infected_obs, 0u);
}

TEST(KadStudy, CoverageCurveIsMonotoneWithDiminishingGains) {
  auto result = core::run_kad_study(small_study());
  auto coverage = core::kad_coverage(result.records, result.metrics);
  ASSERT_TRUE(coverage.enabled);
  EXPECT_EQ(coverage.vantages, 16u);
  EXPECT_GT(coverage.observations, 0u);
  EXPECT_LE(coverage.infected_observed, coverage.infected_total);
  ASSERT_EQ(coverage.curve.size(), 5u);
  double prev = 0.0, prev_gain = 1.0;
  for (const auto& point : coverage.curve) {
    EXPECT_GE(point.mean_coverage, prev) << "coverage must be monotone";
    double gain = point.mean_coverage - prev;
    EXPECT_LE(gain, prev_gain + 1e-12) << "marginal gains must diminish";
    prev = point.mean_coverage;
    prev_gain = gain;
    EXPECT_GE(point.mean_coverage, 0.0);
    EXPECT_LE(point.mean_coverage, 1.0);
  }
  EXPECT_GE(coverage.keyword_overlap, 0.0);
  EXPECT_LE(coverage.keyword_overlap, 1.0);
}

TEST(KadStudy, ConfigHashIsSensitiveToEveryKnob) {
  auto base = core::kad_quick();
  EXPECT_EQ(core::config_hash(base), core::config_hash(core::kad_quick()));
  auto seed = base;
  seed.seed = base.seed + 1;
  auto honeypots = base;
  honeypots.honeypots = base.honeypots + 1;
  auto bait = base;
  bait.honeypot_bait = base.honeypot_bait + 1;
  auto k = base;
  k.population.node_config.k = base.population.node_config.k + 1;
  auto poison = base;
  poison.population.poison_rank_limit = base.population.poison_rank_limit + 1;
  std::vector<std::uint64_t> hashes = {
      core::config_hash(base),     core::config_hash(seed),
      core::config_hash(honeypots), core::config_hash(bait),
      core::config_hash(k),        core::config_hash(poison)};
  std::sort(hashes.begin(), hashes.end());
  EXPECT_EQ(std::unique(hashes.begin(), hashes.end()), hashes.end());
  EXPECT_NE(core::config_hash(base), core::config_hash(core::kad_standard()));
}

TEST(KadStudy, SerialModelCacheIsStale) {
  // The quick preset's digest as the retired serial KAD driver computed it
  // (no model marker): its caches and traces hold different bytes.
  constexpr std::uint64_t kSerialKadQuickHash = 0x31d56bf01c1595c6ull;
  EXPECT_NE(core::config_hash(core::kad_quick()), kSerialKadQuickHash);
}

}  // namespace
}  // namespace p2p
