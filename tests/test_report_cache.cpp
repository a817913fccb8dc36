// Report emitters and the study trace files (core::save_study_trace /
// load_study_trace) that persist a finished study for later analysis.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/report.h"
#include "core/study.h"

namespace p2p {
namespace {

crawler::ResponseRecord sample_record(std::uint64_t id, bool infected) {
  crawler::ResponseRecord r;
  r.id = id;
  r.network = "limewire";
  r.at = util::SimTime::at_millis(static_cast<std::int64_t>(id) * 1000);
  r.query = "test query";
  r.query_category = "software";
  r.filename = "file " + std::to_string(id) + ".exe";
  r.type_by_name = files::FileType::kExecutable;
  r.size = 1000 + id;
  r.source_ip = util::Ipv4(10, 1, 2, 3);
  r.source_port = 6346;
  r.source_key = "10.1.2.3:6346/abcd";
  r.source_firewalled = true;
  r.content_key = "key" + std::to_string(id);
  r.download_attempted = true;
  r.downloaded = true;
  r.infected = infected;
  r.strain = infected ? 2 : malware::kCleanStrain;
  r.strain_name = infected ? "W32.Test.A" : "";
  r.type_by_magic = files::FileType::kExecutable;
  return r;
}

// Saves `result` as a trace whose header carries `config_hash` (0 = unset).
bool save_study(const std::string& path, const core::StudyResult& result,
                std::uint64_t config_hash = 0) {
  trace::TraceHeader header;
  header.network = "limewire";
  header.config_hash = config_hash;
  return core::save_study_trace(path, result, header);
}

TEST(Report, PrevalenceTableMentionsKeyNumbers) {
  std::vector<crawler::ResponseRecord> records = {sample_record(1, true),
                                                  sample_record(2, false)};
  std::ostringstream out;
  core::print_prevalence(out, "limewire", analysis::prevalence(records));
  std::string text = out.str();
  EXPECT_NE(text.find("limewire"), std::string::npos);
  EXPECT_NE(text.find("50.0%"), std::string::npos);
  EXPECT_NE(text.find("malicious"), std::string::npos);
}

TEST(Report, StrainRankingShowsTopkLines) {
  std::vector<crawler::ResponseRecord> records = {sample_record(1, true),
                                                  sample_record(2, true)};
  std::ostringstream out;
  core::print_strain_ranking(out, "limewire", analysis::strain_ranking(records));
  std::string text = out.str();
  EXPECT_NE(text.find("W32.Test.A"), std::string::npos);
  EXPECT_NE(text.find("top-1 share: 100.0%"), std::string::npos);
  EXPECT_NE(text.find("top-3 share: 100.0%"), std::string::npos);
}

TEST(Report, SourcesShowPrivateShare) {
  std::vector<crawler::ResponseRecord> records = {sample_record(1, true)};
  std::ostringstream out;
  core::print_sources(out, "limewire", analysis::sources(records),
                      analysis::strain_source_concentration(records));
  std::string text = out.str();
  EXPECT_NE(text.find("private"), std::string::npos);
  EXPECT_NE(text.find("100.0%"), std::string::npos);
}

TEST(Report, CategoryBreakdownRenders) {
  std::vector<crawler::ResponseRecord> records = {sample_record(1, true)};
  std::ostringstream out;
  core::print_category_breakdown(out, "limewire",
                                 analysis::category_breakdown(records));
  EXPECT_NE(out.str().find("software"), std::string::npos);
}

TEST(StudyCache, RoundTripsRecordsExactly) {
  core::StudyResult original;
  original.events_executed = 12345;
  original.messages_delivered = 678;
  original.bytes_delivered = 91011;
  original.churn_joins = 12;
  original.churn_leaves = 13;
  original.crawl_stats.queries_sent = 14;
  original.crawl_stats.responses = 15;
  for (std::uint64_t i = 1; i <= 50; ++i) {
    original.records.push_back(sample_record(i, i % 3 == 0));
  }

  std::string path = "test_study_trace_roundtrip.p2pt";
  ASSERT_TRUE(save_study(path, original));
  core::StudyResult loaded;
  ASSERT_TRUE(core::load_study_trace(path, loaded));
  std::remove(path.c_str());

  EXPECT_EQ(loaded.events_executed, original.events_executed);
  EXPECT_EQ(loaded.messages_delivered, original.messages_delivered);
  EXPECT_EQ(loaded.churn_joins, original.churn_joins);
  EXPECT_EQ(loaded.crawl_stats.queries_sent, original.crawl_stats.queries_sent);
  ASSERT_EQ(loaded.records.size(), original.records.size());
  for (std::size_t i = 0; i < loaded.records.size(); ++i) {
    const auto& a = original.records[i];
    const auto& b = loaded.records[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.network, b.network);
    EXPECT_EQ(a.at, b.at);
    EXPECT_EQ(a.query, b.query);
    EXPECT_EQ(a.filename, b.filename);
    EXPECT_EQ(a.size, b.size);
    EXPECT_EQ(a.source_ip, b.source_ip);
    EXPECT_EQ(a.source_key, b.source_key);
    EXPECT_EQ(a.source_firewalled, b.source_firewalled);
    EXPECT_EQ(a.content_key, b.content_key);
    EXPECT_EQ(a.downloaded, b.downloaded);
    EXPECT_EQ(a.infected, b.infected);
    EXPECT_EQ(a.strain, b.strain);
    EXPECT_EQ(a.strain_name, b.strain_name);
    EXPECT_EQ(a.type_by_name, b.type_by_name);
    EXPECT_EQ(a.type_by_magic, b.type_by_magic);
  }
}

TEST(StudyCache, RejectsMissingAndCorrupt) {
  core::StudyResult result;
  EXPECT_FALSE(core::load_study_trace("nonexistent_file.bin", result));

  // Corrupt: truncated file.
  core::StudyResult original;
  original.records.push_back(sample_record(1, true));
  std::string path = "test_study_trace_corrupt.p2pt";
  ASSERT_TRUE(save_study(path, original));
  {
    std::ifstream in(path, std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size() / 2));
  }
  EXPECT_FALSE(core::load_study_trace(path, result));
  std::remove(path.c_str());
}

TEST(StudyCache, MissesWhenConfigHashChanges) {
  core::StudyResult original;
  original.records.push_back(sample_record(1, true));
  std::string path = "test_study_trace_stale.p2pt";
  auto cfg = core::limewire_quick();
  std::uint64_t hash = core::config_hash(cfg);
  ASSERT_TRUE(save_study(path, original, hash));

  core::StudyResult loaded;
  EXPECT_TRUE(core::load_study_trace(path, loaded, hash));

  // Any config edit changes the hash, so the saved trace goes stale.
  cfg.crawl.duration = cfg.crawl.duration + util::SimDuration::hours(1);
  std::uint64_t changed = core::config_hash(cfg);
  ASSERT_NE(changed, hash);
  EXPECT_FALSE(core::load_study_trace(path, loaded, changed));

  // Hash 0 skips validation.
  EXPECT_TRUE(core::load_study_trace(path, loaded, 0));
  std::remove(path.c_str());
}

TEST(StudyCache, ConfigHashCoversSeedAndNestedFields) {
  auto cfg = core::limewire_quick();
  std::uint64_t base = core::config_hash(cfg);

  auto seed_changed = cfg;
  seed_changed.seed += 1;
  EXPECT_NE(core::config_hash(seed_changed), base);

  auto pop_changed = cfg;
  pop_changed.population.leaves += 1;
  EXPECT_NE(core::config_hash(pop_changed), base);

  auto corpus_changed = cfg;
  corpus_changed.population.corpus.zipf_exponent += 0.01;
  EXPECT_NE(core::config_hash(corpus_changed), base);

  // Networks never collide even at identical seeds.
  auto lw = core::limewire_quick();
  auto ft = core::openft_quick();
  ft.seed = lw.seed;
  EXPECT_NE(core::config_hash(lw), core::config_hash(ft));
}

// Digests of the quick presets as the retired serial model computed them
// (it folded no model marker). Caches and traces recorded by that model
// hold different bytes, so they must be rejected as stale.
constexpr std::uint64_t kSerialLimewireQuickHash = 0xc3de928567316c86ull;
constexpr std::uint64_t kSerialOpenFtQuickHash = 0x02b9db7523af5a85ull;

TEST(StudyCache, SerialModelLimewireCacheIsStale) {
  auto cfg = core::limewire_quick();
  EXPECT_NE(core::config_hash(cfg), kSerialLimewireQuickHash);
  // The marker does not depend on the shard count: 0 (meaning 1) too.
  cfg.shards = 0;
  EXPECT_NE(core::config_hash(cfg), kSerialLimewireQuickHash);
}

TEST(StudyCache, SerialModelOpenFtCacheIsStale) {
  auto cfg = core::openft_quick();
  EXPECT_NE(core::config_hash(cfg), kSerialOpenFtQuickHash);
  cfg.shards = 0;
  EXPECT_NE(core::config_hash(cfg), kSerialOpenFtQuickHash);
}

}  // namespace
}  // namespace p2p
