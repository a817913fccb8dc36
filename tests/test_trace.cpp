// The trace store: codec round-trips, block framing, corruption handling
// (truncation, bit flips, wrong version, empty file), and the headline
// guarantee — a replayed trace reproduces the live run's report
// byte-for-byte.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/report.h"
#include "core/study.h"
#include "trace/reader.h"
#include "trace/writer.h"

namespace p2p {
namespace {

crawler::ResponseRecord make_record(std::uint64_t id, bool infected) {
  crawler::ResponseRecord r;
  r.id = id;
  r.network = "limewire";
  r.at = util::SimTime::at_millis(static_cast<std::int64_t>(id) * 977);
  r.query = "query " + std::to_string(id % 7);
  r.query_category = id % 2 == 0 ? "software" : "music";
  r.filename = "payload " + std::to_string(id) + (id % 2 == 0 ? ".exe" : ".zip");
  r.type_by_name = files::classify_extension(r.filename);
  r.size = 100'000 + id * 13;
  r.source_ip = util::Ipv4(static_cast<std::uint32_t>(0x0A000000u + id));
  r.source_port = static_cast<std::uint16_t>(6346 + id);
  r.source_key = "10.0.0." + std::to_string(id) + ":6346";
  r.source_firewalled = id % 3 == 0;
  r.download_attempted = true;
  r.downloaded = id % 5 != 0;
  r.infected = infected;
  r.strain = infected ? static_cast<malware::StrainId>(1 + id % 4)
                      : malware::kCleanStrain;
  r.strain_name = infected ? "W32.Fuzz." + std::to_string(id % 4) : "";
  r.content_key = "sha1:" + std::to_string(id * 2654435761u);
  r.type_by_magic =
      id % 2 == 0 ? files::FileType::kExecutable : files::FileType::kArchive;
  return r;
}

trace::TraceHeader make_header() {
  trace::TraceHeader h;
  h.network = "limewire";
  h.config_hash = 0xDEADBEEFCAFEF00Dull;
  h.seed = 42;
  h.crawl_duration_ms = 86'400'000;
  h.meta = {{"tool", "test"}, {"preset", "quick"}};
  return h;
}

void expect_records_equal(const crawler::ResponseRecord& a,
                          const crawler::ResponseRecord& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.network, b.network);
  EXPECT_EQ(a.at, b.at);
  EXPECT_EQ(a.query, b.query);
  EXPECT_EQ(a.query_category, b.query_category);
  EXPECT_EQ(a.filename, b.filename);
  EXPECT_EQ(a.type_by_name, b.type_by_name);
  EXPECT_EQ(a.size, b.size);
  EXPECT_EQ(a.source_ip, b.source_ip);
  EXPECT_EQ(a.source_port, b.source_port);
  EXPECT_EQ(a.source_key, b.source_key);
  EXPECT_EQ(a.source_firewalled, b.source_firewalled);
  EXPECT_EQ(a.download_attempted, b.download_attempted);
  EXPECT_EQ(a.downloaded, b.downloaded);
  EXPECT_EQ(a.infected, b.infected);
  EXPECT_EQ(a.strain, b.strain);
  EXPECT_EQ(a.strain_name, b.strain_name);
  EXPECT_EQ(a.content_key, b.content_key);
  EXPECT_EQ(a.type_by_magic, b.type_by_magic);
}

// Writes `n` records + a summary into a string and returns the file bytes.
std::string write_trace_string(std::size_t n, std::size_t records_per_block) {
  std::ostringstream out(std::ios::binary);
  trace::TraceWriterOptions opts;
  opts.records_per_block = records_per_block;
  trace::TraceWriter writer(out, make_header(), opts);
  for (std::size_t i = 1; i <= n; ++i) {
    writer.on_record(make_record(i, i % 3 == 0));
  }
  trace::StudySummary summary;
  summary.events_executed = 1234;
  summary.crawl_stats.queries_sent = 55;
  summary.crawl_stats.bytes_downloaded = 987654;
  writer.write_summary(summary);
  writer.close();
  EXPECT_TRUE(writer.ok());
  EXPECT_EQ(writer.records_written(), n);
  return out.str();
}

// Frame-walks the file and returns the byte offset of the payload of the
// `index`-th block (0-based), so corruption tests can hit an exact block.
std::size_t block_payload_offset(const std::string& file, std::size_t index) {
  // Prologue: magic(4) version(2) reserved(2) header_len(4).
  std::size_t pos = 8;
  std::uint32_t header_len = 0;
  for (int i = 0; i < 4; ++i) {
    header_len |= static_cast<std::uint32_t>(
                      static_cast<std::uint8_t>(file[pos + static_cast<std::size_t>(i)]))
                  << (8 * i);
  }
  pos += 4 + header_len + 4;  // header body + crc
  for (std::size_t b = 0;; ++b) {
    pos += 1;  // kind
    std::uint64_t len = 0;
    int shift = 0;
    for (;;) {
      auto byte = static_cast<std::uint8_t>(file[pos++]);
      len |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      shift += 7;
      if ((byte & 0x80) == 0) break;
    }
    pos += 4;  // crc
    if (b == index) return pos;
    pos += len;
  }
}

// One records-block frame over `records` that declares `count` of them
// (which may be more than the payload holds), with a valid CRC.
std::string records_frame(const std::vector<crawler::ResponseRecord>& records,
                          std::uint64_t count) {
  util::ByteWriter payload;
  payload.varint(count);
  for (const auto& r : records) trace::encode_record(payload, r);
  util::ByteWriter frame;
  const auto kind = static_cast<std::uint8_t>(trace::BlockKind::kRecords);
  frame.u8(kind);
  frame.varint(payload.size());
  frame.u32le(util::crc32(payload.data(), util::crc32({&kind, 1})));
  frame.bytes(payload.data());
  return std::string(reinterpret_cast<const char*>(frame.data().data()), frame.size());
}

// A trace of just the header (no blocks), to append hand-made frames to.
std::string header_only_trace() {
  std::ostringstream out(std::ios::binary);
  trace::TraceWriter writer(out, make_header());
  writer.close();
  return out.str();
}

TEST(TraceCodec, RecordRoundTripsEveryField) {
  for (std::uint64_t id : {1ull, 2ull, 3ull, 1000ull}) {
    auto rec = make_record(id, id % 2 == 0);
    util::ByteWriter w;
    trace::encode_record(w, rec);
    util::ByteReader r(w.data());
    crawler::ResponseRecord back;
    trace::decode_record(r, back);
    EXPECT_TRUE(r.empty());
    expect_records_equal(rec, back);
    // type_by_name is not stored: it re-derives from the filename.
    EXPECT_EQ(back.type_by_name, files::classify_extension(back.filename));
  }
}

TEST(TraceCodec, HeaderRoundTripsWithMeta) {
  auto h = make_header();
  util::ByteWriter w;
  trace::encode_header_body(w, h);
  util::ByteReader r(w.data());
  auto back = trace::decode_header_body(r);
  EXPECT_EQ(back.network, h.network);
  EXPECT_EQ(back.config_hash, h.config_hash);
  EXPECT_EQ(back.seed, h.seed);
  EXPECT_EQ(back.crawl_duration_ms, h.crawl_duration_ms);
  EXPECT_EQ(back.meta, h.meta);
}

TEST(TraceCodec, HeaderRejectsTrailingGarbage) {
  util::ByteWriter w;
  trace::encode_header_body(w, make_header());
  w.u8(0x99);
  util::ByteReader r(w.data());
  EXPECT_THROW((void)trace::decode_header_body(r), util::BufferUnderflow);
}

TEST(TraceRoundTrip, MultiBlockFileSurvivesExactly) {
  std::string file = write_trace_string(10, 4);  // 3 record blocks + summary
  std::istringstream in(file, std::ios::binary);
  trace::TraceReader reader(in);
  ASSERT_TRUE(reader.ok()) << reader.error_message();
  EXPECT_EQ(reader.header().network, "limewire");
  EXPECT_EQ(reader.header().config_hash, 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(reader.header().meta, make_header().meta);

  crawler::ResponseRecord rec;
  std::uint64_t id = 0;
  while (reader.next(rec)) {
    ++id;
    expect_records_equal(make_record(id, id % 3 == 0), rec);
  }
  EXPECT_EQ(id, 10u);
  EXPECT_TRUE(reader.stats().clean());
  EXPECT_EQ(reader.stats().blocks_read, 4u);  // 3 record blocks + summary
  EXPECT_EQ(reader.stats().records_read, 10u);
  ASSERT_TRUE(reader.summary().has_value());
  EXPECT_EQ(reader.summary()->events_executed, 1234u);
  EXPECT_EQ(reader.summary()->crawl_stats.bytes_downloaded, 987654u);
}

TEST(TraceCorruption, EmptyFileIsCleanError) {
  std::istringstream in(std::string{}, std::ios::binary);
  trace::TraceReader reader(in);
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.error(), trace::TraceError::kEmpty);
  crawler::ResponseRecord rec;
  EXPECT_FALSE(reader.next(rec));
}

TEST(TraceCorruption, BadMagicIsRejected) {
  std::string file = write_trace_string(2, 4);
  file[0] = 'X';
  std::istringstream in(file, std::ios::binary);
  trace::TraceReader reader(in);
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.error(), trace::TraceError::kBadMagic);
}

TEST(TraceCorruption, WrongVersionNamesBothVersions) {
  std::string file = write_trace_string(2, 4);
  file[4] = 9;  // version u16le low byte
  std::istringstream in(file, std::ios::binary);
  trace::TraceReader reader(in);
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.error(), trace::TraceError::kBadVersion);
  EXPECT_NE(reader.error_message().find("version 9"), std::string::npos);
  EXPECT_NE(reader.error_message().find(std::to_string(trace::kTraceVersion)),
            std::string::npos);
}

TEST(TraceCorruption, FlippedHeaderByteIsRejected) {
  std::string file = write_trace_string(2, 4);
  file[14] = static_cast<char>(file[14] ^ 0x40);  // inside the header body
  std::istringstream in(file, std::ios::binary);
  trace::TraceReader reader(in);
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.error(), trace::TraceError::kCorruptHeader);
}

TEST(TraceCorruption, TruncatedTailYieldsPartialReadNotCrash) {
  std::string file = write_trace_string(10, 4);
  // Cut into the middle of the last records block (before the summary).
  std::size_t cut = block_payload_offset(file, 2) + 5;
  std::string truncated = file.substr(0, cut);
  std::istringstream in(truncated, std::ios::binary);
  trace::TraceReader reader(in);
  ASSERT_TRUE(reader.ok());
  crawler::ResponseRecord rec;
  std::uint64_t count = 0;
  while (reader.next(rec)) ++count;
  EXPECT_EQ(count, 8u);  // the two complete blocks
  EXPECT_TRUE(reader.stats().truncated_tail);
  EXPECT_FALSE(reader.stats().clean());
  EXPECT_FALSE(reader.summary().has_value());
}

TEST(TraceCorruption, BitFlippedBlockIsContained) {
  std::string file = write_trace_string(10, 4);
  // Flip one payload byte of the second records block (records 5..8).
  std::size_t offset = block_payload_offset(file, 1) + 3;
  file[offset] = static_cast<char>(file[offset] ^ 0x10);
  std::istringstream in(file, std::ios::binary);
  trace::TraceReader reader(in);
  ASSERT_TRUE(reader.ok());
  crawler::ResponseRecord rec;
  std::vector<std::uint64_t> ids;
  while (reader.next(rec)) ids.push_back(rec.id);
  // Blocks 1 (ids 1..4) and 3 (ids 9..10) survive; block 2 is dropped whole.
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 3, 4, 9, 10}));
  EXPECT_EQ(reader.stats().blocks_corrupt, 1u);
  EXPECT_FALSE(reader.stats().truncated_tail);
  // The summary block, after the damage, is still recovered.
  EXPECT_TRUE(reader.summary().has_value());
}

TEST(TraceCorruption, UnknownBlockKindIsSkipped) {
  std::string file = write_trace_string(4, 4);
  // Append a valid frame of an unknown kind (0x7F) with a correct CRC
  // (which covers the kind byte, then the payload).
  util::ByteWriter payload;
  payload.str("future data");
  util::ByteWriter frame;
  const std::uint8_t kind = 0x7F;
  frame.u8(kind);
  frame.varint(payload.size());
  frame.u32le(util::crc32(payload.data(), util::crc32({&kind, 1})));
  frame.bytes(payload.data());
  file.append(reinterpret_cast<const char*>(frame.data().data()), frame.size());

  std::istringstream in(file, std::ios::binary);
  trace::TraceReader reader(in);
  ASSERT_TRUE(reader.ok());
  crawler::ResponseRecord rec;
  std::uint64_t count = 0;
  while (reader.next(rec)) ++count;
  EXPECT_EQ(count, 4u);
  EXPECT_EQ(reader.stats().blocks_skipped, 1u);
  EXPECT_TRUE(reader.stats().clean());
}

// The reader decodes each block over the previous block's records and hands
// them out by swap. A block of long strings followed by blocks of short and
// empty ones (and a block larger than both) must read back exactly as a
// fresh decode would, with no byte of an earlier record left behind.
TEST(TraceReader, ReusedSlotsCarryNoStaleBytes) {
  std::vector<crawler::ResponseRecord> written;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    auto r = make_record(id, true);
    const std::string pad(200, static_cast<char>('a' + id));
    r.network += pad;
    r.query += pad;
    r.query_category += pad;
    r.filename = pad + r.filename;
    r.source_key += pad;
    r.content_key += pad;
    r.strain_name += pad;
    written.push_back(std::move(r));
  }
  for (std::uint64_t id = 5; id <= 7; ++id) {
    auto r = make_record(id, false);
    r.network = "kad";
    r.query = "";
    r.query_category = id % 2 == 0 ? "" : "x";
    r.filename = "a.exe";
    r.source_key = "";
    r.content_key = "";
    r.strain_name = "";
    written.push_back(std::move(r));
  }
  for (std::uint64_t id = 8; id <= 16; ++id) written.push_back(make_record(id, id % 2 == 0));
  for (auto& r : written) r.type_by_name = files::classify_extension(r.filename);

  std::string file = header_only_trace();
  file += records_frame({written.begin(), written.begin() + 4}, 4);
  file += records_frame({written.begin() + 4, written.begin() + 7}, 3);
  file += records_frame({written.begin() + 7, written.end()}, written.size() - 7);

  std::istringstream in(file, std::ios::binary);
  trace::TraceReader reader(in);
  ASSERT_TRUE(reader.ok());
  crawler::ResponseRecord rec;  // one record, reused for every next()
  std::size_t i = 0;
  while (reader.next(rec)) {
    ASSERT_LT(i, written.size());
    util::ByteWriter w;
    trace::encode_record(w, written[i]);
    util::ByteReader r(w.data());
    crawler::ResponseRecord fresh;
    trace::decode_record(r, fresh);
    SCOPED_TRACE("record " + std::to_string(i));
    expect_records_equal(rec, fresh);
    expect_records_equal(rec, written[i]);
    ++i;
  }
  EXPECT_EQ(i, written.size());
  EXPECT_TRUE(reader.stats().clean());
}

// A records block whose CRC is valid but whose count runs past its payload
// is dropped whole: none of the records it did decode reach the caller,
// whether more blocks follow it or it is the last one, and the stream stays
// ended once it has ended.
TEST(TraceCorruption, UndecodableBlockYieldsNoneOfItsRecords) {
  std::vector<crawler::ResponseRecord> records;
  for (std::uint64_t id = 1; id <= 7; ++id) records.push_back(make_record(id, id == 2));
  const std::string good = records_frame({records.begin(), records.begin() + 3}, 3);
  // Declares three records, holds two.
  const std::string bad = records_frame({records.begin() + 3, records.begin() + 5}, 3);
  const std::string tail = records_frame({records.begin() + 5, records.end()}, 2);

  struct Case {
    const char* name;
    std::string blocks;
    std::vector<std::uint64_t> ids;
  };
  const Case cases[] = {
      {"mid-stream", good + bad + tail, {1, 2, 3, 6, 7}},
      {"at end of stream", good + bad, {1, 2, 3}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    std::istringstream in(header_only_trace() + c.blocks, std::ios::binary);
    trace::TraceReader reader(in);
    ASSERT_TRUE(reader.ok());
    crawler::ResponseRecord rec;
    std::vector<std::uint64_t> ids;
    while (reader.next(rec)) ids.push_back(rec.id);
    EXPECT_FALSE(reader.next(rec)) << "the stream must stay ended";
    EXPECT_EQ(ids, c.ids);
    EXPECT_EQ(reader.stats().blocks_corrupt, 1u);
    EXPECT_EQ(reader.stats().records_read, c.ids.size());
    EXPECT_FALSE(reader.stats().truncated_tail);
  }
}

TEST(TraceStudyIo, SaveLoadRoundTripsStudyResult) {
  core::StudyResult original;
  original.events_executed = 777;
  original.messages_delivered = 888;
  original.bytes_delivered = 999;
  original.churn_joins = 11;
  original.churn_leaves = 12;
  original.crawl_stats.queries_sent = 21;
  original.crawl_stats.hits = 22;
  original.crawl_stats.downloads_ok = 23;
  original.crawl_stats.bytes_downloaded = 24;
  original.crawl_stats.distinct_contents = 25;
  for (std::uint64_t i = 1; i <= 20; ++i) {
    original.records.push_back(make_record(i, i % 4 == 0));
  }

  std::string path = "test_trace_roundtrip.p2pt";
  auto header = make_header();
  ASSERT_TRUE(core::save_study_trace(path, original, header));

  core::StudyResult loaded;
  EXPECT_FALSE(core::load_study_trace(path, loaded, header.config_hash + 1))
      << "stale config hash must miss";
  ASSERT_TRUE(core::load_study_trace(path, loaded, header.config_hash));
  std::remove(path.c_str());

  EXPECT_EQ(loaded.events_executed, original.events_executed);
  EXPECT_EQ(loaded.messages_delivered, original.messages_delivered);
  EXPECT_EQ(loaded.bytes_delivered, original.bytes_delivered);
  EXPECT_EQ(loaded.churn_joins, original.churn_joins);
  EXPECT_EQ(loaded.churn_leaves, original.churn_leaves);
  EXPECT_EQ(loaded.crawl_stats.queries_sent, original.crawl_stats.queries_sent);
  EXPECT_EQ(loaded.crawl_stats.hits, original.crawl_stats.hits);
  EXPECT_EQ(loaded.crawl_stats.downloads_ok, original.crawl_stats.downloads_ok);
  EXPECT_EQ(loaded.crawl_stats.bytes_downloaded,
            original.crawl_stats.bytes_downloaded);
  EXPECT_EQ(loaded.crawl_stats.distinct_contents,
            original.crawl_stats.distinct_contents);
  ASSERT_EQ(loaded.records.size(), original.records.size());
  for (std::size_t i = 0; i < loaded.records.size(); ++i) {
    expect_records_equal(original.records[i], loaded.records[i]);
  }
}

TEST(TraceStudyIo, LoadRejectsDamagedFile) {
  core::StudyResult original;
  for (std::uint64_t i = 1; i <= 8; ++i) {
    original.records.push_back(make_record(i, false));
  }
  std::string path = "test_trace_damaged.p2pt";
  ASSERT_TRUE(core::save_study_trace(path, original, make_header()));

  // Flip a byte in the middle of the file: load must refuse, not salvage.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    bytes = ss.str();
  }
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x20);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  core::StudyResult loaded;
  EXPECT_FALSE(core::load_study_trace(path, loaded));
  std::remove(path.c_str());
  EXPECT_FALSE(core::load_study_trace("no_such_trace_file.p2pt", loaded));
}

// The headline guarantee, in-process: a quick study recorded through the
// RecordSink hook replays into the byte-identical report.
TEST(TraceReplay, ReplayedReportIsByteIdenticalToLive) {
  auto cfg = core::openft_quick();
  cfg.population.users = 40;
  cfg.population.search_nodes = 4;
  cfg.crawl.duration = sim::SimDuration::hours(2);
  cfg.seed = 4242;

  trace::TraceHeader header;
  header.network = "openft";
  header.config_hash = core::config_hash(cfg);
  header.seed = cfg.seed;
  header.crawl_duration_ms = cfg.crawl.duration.count_ms();

  std::ostringstream file(std::ios::binary);
  trace::TraceWriter writer(file, header);
  auto live = core::run_openft_study(cfg, &writer);
  writer.write_summary(core::study_summary(live));
  writer.close();
  ASSERT_TRUE(writer.ok());
  ASSERT_EQ(writer.records_written(), live.records.size());
  ASSERT_GT(live.records.size(), 0u);

  std::istringstream in(file.str(), std::ios::binary);
  trace::TraceReader reader(in);
  ASSERT_TRUE(reader.ok()) << reader.error_message();
  std::vector<crawler::ResponseRecord> replayed;
  crawler::ResponseRecord rec;
  while (reader.next(rec)) replayed.push_back(rec);
  ASSERT_TRUE(reader.stats().clean());
  ASSERT_EQ(replayed.size(), live.records.size());

  std::ostringstream live_json, replay_json;
  core::write_report_json(live_json, core::build_report(live.records, "openft"));
  core::write_report_json(replay_json, core::build_report(replayed, "openft"));
  EXPECT_EQ(live_json.str(), replay_json.str());

  // The summary restores the run counters exactly.
  ASSERT_TRUE(reader.summary().has_value());
  core::StudyResult restored;
  core::apply_summary(*reader.summary(), restored);
  EXPECT_EQ(restored.events_executed, live.events_executed);
  EXPECT_EQ(restored.crawl_stats.downloads_ok, live.crawl_stats.downloads_ok);
  EXPECT_EQ(restored.metrics.counters.size(), live.metrics.counters.size());
}

}  // namespace
}  // namespace p2p
