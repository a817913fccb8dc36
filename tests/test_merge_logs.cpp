// crawler::merge_logs, the one rule that turns several time-ordered record
// streams into a study's crawl log: stable k-way merge (ties go to the
// lower stream index), ids 1..N, the sink fed in result order. The unit
// tests compare it with the concatenate + stable_sort reference it
// replaced; the pinned tests hold the merged logs of the three studies that
// merge (multi-vantage LimeWire, KAD with honeypots, the SoA model with two
// crawlers) to digests recorded before the merge was rewritten.
#include "crawler/records.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/csv.h"
#include "core/kad_study.h"
#include "core/study.h"
#include "files/hash.h"
#include "util/rng.h"

namespace p2p::crawler {
namespace {

using Streams = std::vector<std::vector<ResponseRecord>>;

struct Collect : RecordSink {
  std::vector<ResponseRecord> seen;
  void on_record(const ResponseRecord& r) override { seen.push_back(r); }
};

/// A record tagged with where it came from: `size` holds stream * 1000 +
/// position, so the merged order can be read back.
ResponseRecord tagged(std::size_t stream, std::size_t pos, std::int64_t at_ms) {
  ResponseRecord r;
  r.at = util::SimTime::at_millis(at_ms);
  r.size = stream * 1000 + pos;
  r.id = 999;  // stale: the merge must renumber
  return r;
}

/// Time-ordered streams whose timestamps come from a tiny range, so most
/// records tie with records of other streams.
Streams random_streams(util::Rng& rng, std::size_t count) {
  Streams streams(count);
  for (std::size_t s = 0; s < count; ++s) {
    auto n = static_cast<std::size_t>(rng.range(0, 40));
    std::int64_t at = 0;
    for (std::size_t i = 0; i < n; ++i) {
      at += rng.range(0, 2);
      streams[s].push_back(tagged(s, i, at));
    }
  }
  return streams;
}

/// The rule merge_logs replaced: concatenate in stream order, stable_sort
/// by time, renumber.
std::vector<ResponseRecord> reference(Streams streams) {
  std::vector<ResponseRecord> all;
  for (auto& s : streams) all.insert(all.end(), s.begin(), s.end());
  std::stable_sort(all.begin(), all.end(),
                   [](const ResponseRecord& a, const ResponseRecord& b) {
                     return a.at < b.at;
                   });
  for (std::size_t i = 0; i < all.size(); ++i) all[i].id = i + 1;
  return all;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> tags(
    const std::vector<ResponseRecord>& records) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const auto& r : records) out.emplace_back(r.id, r.size);
  return out;
}

void expect_ids_one_to_n(const std::vector<ResponseRecord>& records) {
  for (std::size_t i = 0; i < records.size(); ++i) {
    ASSERT_EQ(records[i].id, i + 1) << "at position " << i;
  }
}

TEST(MergeLogs, MatchesStableSortOnTiedRandomStreams) {
  util::Rng rng(20061025);
  for (int round = 0; round < 200; ++round) {
    Streams streams = random_streams(rng, static_cast<std::size_t>(rng.range(1, 6)));
    auto expected = reference(streams);
    Collect sink;
    auto merged = merge_logs(std::move(streams), &sink);
    ASSERT_EQ(tags(merged), tags(expected)) << "round " << round;
    expect_ids_one_to_n(merged);
    ASSERT_EQ(tags(sink.seen), tags(merged)) << "round " << round;
  }
}

TEST(MergeLogs, TiesGoToTheLowerStreamIndex) {
  Streams streams(3);
  streams[2] = {tagged(2, 0, 5)};
  streams[1] = {tagged(1, 0, 4), tagged(1, 1, 5)};
  streams[0] = {tagged(0, 0, 5)};
  auto merged = merge_logs(std::move(streams));
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].size, 1000u);  // the only record at t=4
  EXPECT_EQ(merged[1].size, 0u);     // t=5: stream 0, then 1, then 2
  EXPECT_EQ(merged[2].size, 1001u);
  EXPECT_EQ(merged[3].size, 2000u);
  expect_ids_one_to_n(merged);
}

TEST(MergeLogs, EmptyInputsAndEmptyStreams) {
  EXPECT_TRUE(merge_logs({}).empty());
  Collect sink;
  EXPECT_TRUE(merge_logs(Streams(4), &sink).empty());
  EXPECT_TRUE(sink.seen.empty());

  Streams streams(3);
  streams[1] = {tagged(1, 0, 3), tagged(1, 1, 3), tagged(1, 2, 8)};
  auto merged = merge_logs(std::move(streams), &sink);
  ASSERT_EQ(merged.size(), 3u);
  expect_ids_one_to_n(merged);
  EXPECT_EQ(tags(sink.seen), tags(merged));
}

TEST(MergeLogs, SingleStreamIsMovedThroughAndRenumbered) {
  Streams streams(1);
  for (std::size_t i = 0; i < 5; ++i) streams[0].push_back(tagged(0, i, 10));
  const ResponseRecord* storage = streams[0].data();
  Collect sink;
  auto merged = merge_logs(std::move(streams), &sink);
  EXPECT_EQ(merged.data(), storage) << "a single stream must not be copied";
  expect_ids_one_to_n(merged);
  EXPECT_EQ(tags(sink.seen), tags(merged));
}

TEST(MergeLogs, UnorderedStreamThrows) {
  for (std::size_t bad : {0u, 1u}) {
    Streams streams(bad + 1);
    streams[bad] = {tagged(bad, 0, 7), tagged(bad, 1, 6)};
    Collect sink;
    EXPECT_THROW((void)merge_logs(std::move(streams), &sink), std::logic_error)
        << "unordered stream " << bad;
    EXPECT_TRUE(sink.seen.empty()) << "nothing may reach the sink";
  }
}

// ---------------------------------------------------------------------------
// Pinned merges. Each digest is the SHA-1 of the study's record log as
// analysis::write_csv renders it, recorded with the concatenate +
// stable_sort merge the studies used before merge_logs. The record sink
// must see exactly that log, in that order.
// ---------------------------------------------------------------------------

std::string csv_sha1(const std::vector<ResponseRecord>& records) {
  std::ostringstream out;
  analysis::write_csv(out, records);
  const std::string text = out.str();
  return files::hex(files::sha1(std::span(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size())));
}

template <typename Run>
void expect_pinned(Run&& run, std::size_t records, const char* digest) {
  Collect sink;
  core::StudyResult result = run(&sink);
  EXPECT_EQ(result.records.size(), records);
  expect_ids_one_to_n(result.records);
  EXPECT_EQ(csv_sha1(result.records), digest);
  EXPECT_EQ(sink.seen.size(), records);
  EXPECT_EQ(csv_sha1(sink.seen), digest) << "the sink saw another sequence";
}

core::LimewireStudyConfig three_vantage_limewire() {
  auto cfg = core::limewire_quick();
  cfg.population.ultrapeers = 6;
  cfg.population.leaves = 80;
  cfg.population.corpus.num_titles = 300;
  cfg.crawl.duration = util::SimDuration::hours(2);
  cfg.crawl.query_interval = util::SimDuration::seconds(120);
  cfg.crawler_count = 3;
  return cfg;
}

TEST(MergeLogs, PinnedLimewireThreeCrawlers) {
  expect_pinned(
      [](RecordSink* sink) {
        return core::run_limewire_study(three_vantage_limewire(), sink);
      },
      4418, "2987ca8198415481f62510cf4a15bbc7eae89e75");
}

TEST(MergeLogs, PinnedKadHoneypots) {
  expect_pinned(
      [](RecordSink* sink) {
        auto cfg = core::kad_quick();
        cfg.seed = 4242;
        cfg.population.users = 60;
        cfg.population.corpus.num_titles = 400;
        cfg.crawl.duration = util::SimDuration::hours(2);
        cfg.crawl.query_interval = util::SimDuration::seconds(120);
        cfg.workload_top_n = 40;
        return core::run_kad_study(cfg, sink);
      },
      9874, "42aa4ae8d69be6a476dd91ae139f43c0f7cbd8eb");
}

TEST(MergeLogs, PinnedSoaTwoCrawlersTwoShards) {
  expect_pinned(
      [](RecordSink* sink) {
        auto cfg = core::limewire_quick();
        cfg.shards = 2;
        cfg.soa_capacity = true;
        cfg.crawler_count = 2;
        return core::run_limewire_study(cfg, sink);
      },
      9179, "3b52373f562261a49f988c224fb4c08e04218645");
}

}  // namespace
}  // namespace p2p::crawler
