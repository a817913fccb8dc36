// Trace-store robustness: randomized record/header round trips through the
// codec, and mutation fuzzing of whole trace files through TraceReader —
// bit flips, truncations, and pure garbage must never crash, throw past the
// reader, or report inconsistent stats.
//
// Lives in the fuzz binary (ctest label: fuzz) so the sanitizer tier can
// scale the loops up via P2P_FUZZ_ROUNDS (see ci/run_tiers.sh).
#include <gtest/gtest.h>

#include <sstream>

#include "tests/fuzz_rounds.h"
#include "trace/codec.h"
#include "trace/reader.h"
#include "trace/writer.h"
#include "util/rng.h"

namespace p2p {
namespace {

std::string random_text(util::Rng& rng, std::size_t max_len) {
  std::size_t len = rng.index(max_len + 1);
  std::string out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>(32 + rng.index(95)));
  }
  return out;
}

crawler::ResponseRecord random_record(util::Rng& rng, std::uint64_t id) {
  crawler::ResponseRecord r;
  r.id = id;
  r.network = rng.chance(0.5) ? "limewire" : "openft";
  r.at = util::SimTime::at_millis(static_cast<std::int64_t>(rng.bounded(1u << 30)));
  r.query = random_text(rng, 40);
  r.query_category = random_text(rng, 16);
  r.filename = random_text(rng, 80) + (rng.chance(0.5) ? ".exe" : ".mp3");
  r.size = rng.next();
  r.source_ip = util::Ipv4(static_cast<std::uint32_t>(rng.next()));
  r.source_port = static_cast<std::uint16_t>(rng.bounded(65536));
  r.source_key = random_text(rng, 30);
  r.source_firewalled = rng.chance(0.3);
  r.download_attempted = rng.chance(0.9);
  r.downloaded = r.download_attempted && rng.chance(0.8);
  r.infected = r.downloaded && rng.chance(0.2);
  r.strain = r.infected ? static_cast<malware::StrainId>(rng.bounded(64))
                        : malware::kCleanStrain;
  r.strain_name = r.infected ? random_text(rng, 24) : "";
  r.content_key = random_text(rng, 32);
  r.type_by_magic = r.infected ? files::FileType::kExecutable : files::FileType::kOther;
  return r;
}

// Drain a reader over arbitrary bytes. Must never throw; returns the record
// count so callers can sanity-check stats consistency.
std::uint64_t drain(const std::string& bytes, trace::ReadStats* stats_out = nullptr) {
  std::istringstream in(bytes, std::ios::binary);
  trace::TraceReader reader(in);
  std::uint64_t count = 0;
  crawler::ResponseRecord rec;
  while (reader.next(rec)) ++count;
  if (stats_out != nullptr) *stats_out = reader.stats();
  EXPECT_EQ(reader.stats().records_read, count);
  return count;
}

// ---------------------------------------------------------------------------
// Codec round trips over random records
// ---------------------------------------------------------------------------

class TraceRoundTripFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceRoundTripFuzz, RecordCodecSurvives) {
  util::Rng rng(GetParam() ^ 0x7ace);
  const int rounds = fuzz_rounds(200);
  for (int round = 0; round < rounds; ++round) {
    auto rec = random_record(rng, rng.next());
    util::ByteWriter w;
    trace::encode_record(w, rec);
    util::ByteReader r(w.data());
    crawler::ResponseRecord back;
    trace::decode_record(r, back);
    ASSERT_TRUE(r.empty());
    EXPECT_EQ(back.id, rec.id);
    EXPECT_EQ(back.network, rec.network);
    EXPECT_EQ(back.at, rec.at);
    EXPECT_EQ(back.query, rec.query);
    EXPECT_EQ(back.filename, rec.filename);
    EXPECT_EQ(back.type_by_name, files::classify_extension(rec.filename));
    EXPECT_EQ(back.size, rec.size);
    EXPECT_EQ(back.source_ip, rec.source_ip);
    EXPECT_EQ(back.source_port, rec.source_port);
    EXPECT_EQ(back.source_key, rec.source_key);
    EXPECT_EQ(back.source_firewalled, rec.source_firewalled);
    EXPECT_EQ(back.download_attempted, rec.download_attempted);
    EXPECT_EQ(back.downloaded, rec.downloaded);
    EXPECT_EQ(back.infected, rec.infected);
    EXPECT_EQ(back.strain, rec.strain);
    EXPECT_EQ(back.strain_name, rec.strain_name);
    EXPECT_EQ(back.content_key, rec.content_key);
    EXPECT_EQ(back.type_by_magic, rec.type_by_magic);
  }
}

TEST_P(TraceRoundTripFuzz, WholeFileSurvives) {
  util::Rng rng(GetParam() ^ 0xf11e);
  trace::TraceHeader header;
  header.network = "limewire";
  header.config_hash = rng.next();
  header.seed = rng.next();
  header.crawl_duration_ms = static_cast<std::int64_t>(rng.bounded(1u << 30));
  header.meta = {{"k", random_text(rng, 20)}};

  std::ostringstream out(std::ios::binary);
  trace::TraceWriterOptions opts;
  opts.records_per_block = rng.index(7) + 1;
  trace::TraceWriter writer(out, header, opts);
  std::size_t n = rng.index(40) + 1;
  std::vector<crawler::ResponseRecord> originals;
  for (std::size_t i = 0; i < n; ++i) {
    originals.push_back(random_record(rng, i + 1));
    writer.on_record(originals.back());
  }
  writer.close();
  ASSERT_TRUE(writer.ok());

  std::istringstream in(out.str(), std::ios::binary);
  trace::TraceReader reader(in);
  ASSERT_TRUE(reader.ok()) << reader.error_message();
  EXPECT_EQ(reader.header().config_hash, header.config_hash);
  EXPECT_EQ(reader.header().seed, header.seed);
  EXPECT_EQ(reader.header().meta, header.meta);
  crawler::ResponseRecord rec;
  std::size_t i = 0;
  while (reader.next(rec)) {
    ASSERT_LT(i, originals.size());
    EXPECT_EQ(rec.id, originals[i].id);
    EXPECT_EQ(rec.filename, originals[i].filename);
    EXPECT_EQ(rec.content_key, originals[i].content_key);
    ++i;
  }
  EXPECT_EQ(i, originals.size());
  EXPECT_TRUE(reader.stats().clean());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceRoundTripFuzz,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// Mutation fuzz: damaged trace files must degrade, never crash
// ---------------------------------------------------------------------------

class TraceMutationFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceMutationFuzz, ReaderNeverThrowsOnMutatedFiles) {
  util::Rng rng(GetParam() ^ 0xdead7ace);
  trace::TraceHeader header;
  header.network = "openft";
  header.config_hash = 0x1234;
  header.meta = {{"tool", "fuzz"}};
  std::ostringstream out(std::ios::binary);
  trace::TraceWriterOptions opts;
  opts.records_per_block = 3;
  trace::TraceWriter writer(out, header, opts);
  for (std::uint64_t i = 1; i <= 12; ++i) writer.on_record(random_record(rng, i));
  writer.write_summary(trace::StudySummary{});
  writer.close();
  ASSERT_TRUE(writer.ok());
  const std::string clean = out.str();
  ASSERT_EQ(drain(clean), 12u);

  const int rounds = fuzz_rounds(200);
  for (int round = 0; round < rounds; ++round) {
    std::string mutated = clean;
    std::size_t flips = rng.index(6) + 1;
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.index(mutated.size())] ^=
          static_cast<char>(rng.bounded(255) + 1);
    }
    if (rng.chance(0.3)) mutated.resize(rng.index(mutated.size() + 1));
    trace::ReadStats stats;
    std::uint64_t count = 0;
    EXPECT_NO_THROW(count = drain(mutated, &stats));
    // A damaged file can only lose records, and any loss must be accounted
    // for: fewer records than the clean file implies corrupt blocks or a
    // truncated tail (header failures read zero records and report no
    // blocks at all). Sole exception: a cut landing exactly on a block
    // boundary is indistinguishable from a file that recorded fewer blocks
    // — but then the reader must have consumed every remaining byte.
    EXPECT_LE(count, 12u);
    if (count < 12u && stats.blocks_read + stats.blocks_corrupt > 0 &&
        stats.clean()) {
      EXPECT_EQ(stats.bytes_read, mutated.size());
    }
  }
}

TEST_P(TraceMutationFuzz, PureGarbageNeverReadsRecords) {
  util::Rng rng(GetParam() ^ 0x9a7ba9e);
  const int rounds = fuzz_rounds(100);
  std::uint64_t total = 0;
  for (int round = 0; round < rounds; ++round) {
    util::Bytes junk(rng.index(400) + 1);
    rng.fill(junk);
    std::string bytes(reinterpret_cast<const char*>(junk.data()), junk.size());
    EXPECT_NO_THROW(total += drain(bytes));
  }
  // Random bytes essentially never carry the magic, a valid header CRC, and
  // a valid block CRC all at once.
  EXPECT_EQ(total, 0u);
}

TEST_P(TraceMutationFuzz, TruncationAtEveryLengthIsContained) {
  util::Rng rng(GetParam() ^ 0x7a11);
  trace::TraceHeader header;
  header.network = "limewire";
  std::ostringstream out(std::ios::binary);
  trace::TraceWriterOptions opts;
  opts.records_per_block = 2;
  trace::TraceWriter writer(out, header, opts);
  for (std::uint64_t i = 1; i <= 6; ++i) writer.on_record(random_record(rng, i));
  writer.close();
  ASSERT_TRUE(writer.ok());
  const std::string clean = out.str();

  for (std::size_t cut = 0; cut < clean.size(); ++cut) {
    trace::ReadStats stats;
    std::uint64_t count = 0;
    EXPECT_NO_THROW(count = drain(clean.substr(0, cut), &stats));
    EXPECT_LE(count, 6u);
    EXPECT_EQ(count % 2, 0u) << "blocks are atomic: partial blocks must not leak";
  }
  ASSERT_EQ(drain(clean), 6u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceMutationFuzz,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace p2p
