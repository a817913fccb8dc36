// OpenFT browse (host profiling) and the bootstrap confidence interval.
#include <gtest/gtest.h>

#include "analysis/stats.h"
#include "openft/node.h"

namespace p2p {
namespace {

using sim::SimDuration;
using sim::SimTime;

TEST(Browse, PacketRoundTrips) {
  openft::BrowseResponse resp;
  resp.browse_id = 777;
  resp.md5[3] = 9;
  resp.size = 81'920;
  resp.path = "/shared/gobbler lure.exe";
  auto parsed = openft::parse(openft::serialize(openft::make_packet(resp)));
  ASSERT_TRUE(parsed.has_value());
  const auto& out = std::get<openft::BrowseResponse>(parsed->payload);
  EXPECT_EQ(out.browse_id, 777u);
  EXPECT_EQ(out.md5, resp.md5);
  EXPECT_EQ(out.path, resp.path);

  auto end = openft::parse(openft::serialize(openft::make_packet(
      openft::BrowseEnd{777, 42})));
  ASSERT_TRUE(end.has_value());
  EXPECT_EQ(std::get<openft::BrowseEnd>(end->payload).total, 42u);
}

TEST(Browse, EnumeratesTargetShares) {
  sim::Network net(808);
  auto cache = std::make_shared<openft::FtHostCache>();

  // Superspreader-style target: one content under many paths.
  auto artifact = std::make_shared<const files::FileContent>("worm.exe",
                                                             util::Bytes(500, 3));
  std::vector<openft::FtShare> shares;
  for (int i = 0; i < 5; ++i) {
    shares.push_back({artifact, "/shared/lure" + std::to_string(i) + ".exe"});
  }
  openft::FtConfig cfg;
  auto target = std::make_unique<openft::FtNode>(cfg, shares, cache, 1);
  sim::HostProfile tp;
  tp.ip = util::Ipv4(60, 0, 0, 1);
  tp.port = 5000;
  net.add_node(std::move(target), tp);

  openft::FtConfig profiler_cfg;
  auto profiler = std::make_unique<openft::FtNode>(
      profiler_cfg, std::vector<openft::FtShare>{}, cache, 2);
  openft::FtNode* profiler_raw = profiler.get();
  sim::HostProfile pp;
  pp.ip = util::Ipv4(60, 0, 0, 2);
  pp.port = 5001;
  net.add_node(std::move(profiler), pp);
  net.engine().run_until(SimTime::zero() + SimDuration::seconds(10));

  std::vector<openft::BrowseResponse> results;
  std::vector<std::tuple<std::uint64_t, std::uint32_t, bool>> ends;
  profiler_raw->set_browse_result_callback(
      [&](const openft::BrowseResponse& r) { results.push_back(r); });
  profiler_raw->set_browse_end_callback(
      [&](std::uint64_t id, std::uint32_t total, bool ok) {
        ends.emplace_back(id, total, ok);
      });
  std::uint64_t browse_id = profiler_raw->browse({tp.ip, tp.port});
  net.engine().run_until(net.now() + SimDuration::minutes(1));

  ASSERT_EQ(ends.size(), 1u);
  EXPECT_EQ(std::get<0>(ends[0]), browse_id);
  EXPECT_EQ(std::get<1>(ends[0]), 5u);
  EXPECT_TRUE(std::get<2>(ends[0]));
  ASSERT_EQ(results.size(), 5u);
  // All five paths advertise the same content — the single-host,
  // single-content pattern browsing is meant to expose.
  for (const auto& r : results) {
    EXPECT_EQ(r.md5, artifact->md5());
    EXPECT_EQ(r.size, 500u);
  }
}

TEST(Browse, UnreachableTargetFails) {
  sim::Network net(809);
  auto cache = std::make_shared<openft::FtHostCache>();
  openft::FtConfig cfg;
  auto profiler = std::make_unique<openft::FtNode>(
      cfg, std::vector<openft::FtShare>{}, cache, 1);
  openft::FtNode* raw = profiler.get();
  sim::HostProfile pp;
  pp.ip = util::Ipv4(61, 0, 0, 1);
  pp.port = 5001;
  net.add_node(std::move(profiler), pp);
  net.engine().run_until(SimTime::zero() + SimDuration::seconds(5));

  std::vector<bool> oks;
  raw->set_browse_end_callback(
      [&](std::uint64_t, std::uint32_t, bool ok) { oks.push_back(ok); });
  raw->browse({util::Ipv4(99, 99, 99, 99), 1234});
  net.engine().run_until(net.now() + SimDuration::minutes(1));
  ASSERT_EQ(oks.size(), 1u);
  EXPECT_FALSE(oks[0]);
}

crawler::ResponseRecord day_record(int day, bool infected) {
  crawler::ResponseRecord r;
  r.filename = "x.exe";
  r.type_by_name = files::FileType::kExecutable;
  r.downloaded = true;
  r.infected = infected;
  r.at = util::SimTime::zero() + util::SimDuration::days(day) +
         util::SimDuration::hours(1);
  return r;
}

TEST(Bootstrap, CiBracketsPointEstimate) {
  std::vector<crawler::ResponseRecord> records;
  util::Rng rng(5);
  for (int day = 0; day < 20; ++day) {
    for (int i = 0; i < 100; ++i) {
      records.push_back(day_record(day, rng.chance(0.68)));
    }
  }
  auto ci = analysis::bootstrap_malicious_fraction(records, 500, 3);
  EXPECT_NEAR(ci.point, 0.68, 0.03);
  EXPECT_LE(ci.lo, ci.point);
  EXPECT_GE(ci.hi, ci.point);
  EXPECT_LT(ci.hi - ci.lo, 0.10);  // 2000 labeled responses: a tight CI
  EXPECT_GT(ci.hi - ci.lo, 0.0);
}

TEST(Bootstrap, DeterministicForSeed) {
  std::vector<crawler::ResponseRecord> records;
  for (int day = 0; day < 5; ++day) {
    for (int i = 0; i < 20; ++i) records.push_back(day_record(day, i % 3 == 0));
  }
  auto a = analysis::bootstrap_malicious_fraction(records, 200, 9);
  auto b = analysis::bootstrap_malicious_fraction(records, 200, 9);
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
}

TEST(Bootstrap, EmptyInputYieldsZeros) {
  std::vector<crawler::ResponseRecord> none;
  auto ci = analysis::bootstrap_malicious_fraction(none);
  EXPECT_DOUBLE_EQ(ci.point, 0.0);
  EXPECT_DOUBLE_EQ(ci.lo, 0.0);
  EXPECT_DOUBLE_EQ(ci.hi, 0.0);
}

TEST(Bootstrap, WiderWithFewerDays) {
  // Day-to-day variance dominates: two days of data give a wider interval
  // than twenty days with the same per-day volume.
  util::Rng rng(7);
  auto build = [&](int days) {
    std::vector<crawler::ResponseRecord> records;
    for (int day = 0; day < days; ++day) {
      double p = day % 2 ? 0.55 : 0.75;  // alternating daily rates
      for (int i = 0; i < 50; ++i) records.push_back(day_record(day, rng.chance(p)));
    }
    return records;
  };
  auto few = analysis::bootstrap_malicious_fraction(build(2), 500, 11);
  auto many = analysis::bootstrap_malicious_fraction(build(20), 500, 11);
  EXPECT_GT(few.hi - few.lo, many.hi - many.lo);
}

}  // namespace
}  // namespace p2p
