// Segment-store robustness fuzzing: randomized segment-index payloads
// through the codec, mutated kSegmentIndex blocks through TraceReader, and
// whole-directory mutation (MANIFEST bytes and segment files) through
// read_manifest / SegmentReader. Nothing here may crash, throw past the
// reader, or report stats that contradict each other — damage is either a
// hard manifest error or contained per segment/block.
//
// Lives in the fuzz binary (ctest label: fuzz) so the sanitizer tier can
// scale the loops up via P2P_FUZZ_ROUNDS (see ci/run_tiers.sh).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "tests/fuzz_rounds.h"
#include "trace/codec.h"
#include "trace/reader.h"
#include "trace/segment.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace p2p {
namespace {

namespace fs = std::filesystem;

trace::SegmentIndex random_index(util::Rng& rng) {
  trace::SegmentIndex index;
  index.window_index = rng.next();
  index.window_ms = static_cast<std::int64_t>(rng.bounded(1u << 30));
  index.records = rng.bounded(1u << 20);
  index.honeypot_records = rng.bounded(1u << 20);
  index.min_at_ms = static_cast<std::int64_t>(rng.bounded(1u << 30));
  index.max_at_ms = index.min_at_ms + static_cast<std::int64_t>(rng.bounded(1u << 20));
  std::size_t kinds = rng.index(4);
  for (std::size_t i = 0; i < kinds; ++i) {
    index.kind_counts.emplace_back(static_cast<std::uint8_t>(i),
                                   rng.bounded(1u << 16));
  }
  std::size_t offsets = rng.index(16);
  std::uint64_t offset = 32;
  for (std::size_t i = 0; i < offsets; ++i) {
    offset += rng.bounded(1u << 16);
    index.block_offsets.push_back(offset);
  }
  return index;
}

TEST(SegmentFuzz, IndexCodecRoundTrip) {
  util::Rng rng(0x5e9f00d1u);
  const int rounds = fuzz_rounds(200);
  for (int round = 0; round < rounds; ++round) {
    trace::SegmentIndex index = random_index(rng);
    util::ByteWriter w;
    trace::encode_segment_index(w, index);
    util::ByteReader r(w.data());
    trace::SegmentIndex back = trace::decode_segment_index(r);
    EXPECT_EQ(back.window_index, index.window_index);
    EXPECT_EQ(back.window_ms, index.window_ms);
    EXPECT_EQ(back.records, index.records);
    EXPECT_EQ(back.honeypot_records, index.honeypot_records);
    EXPECT_EQ(back.kind_counts, index.kind_counts);
    EXPECT_EQ(back.block_offsets, index.block_offsets);
  }
}

TEST(SegmentFuzz, MutatedIndexPayloadNeverCrashes) {
  util::Rng rng(0xfacade02u);
  const int rounds = fuzz_rounds(300);
  for (int round = 0; round < rounds; ++round) {
    util::ByteWriter w;
    trace::encode_segment_index(w, random_index(rng));
    std::vector<std::uint8_t> bytes(w.data().begin(), w.data().end());
    std::size_t flips = 1 + rng.index(8);
    for (std::size_t i = 0; i < flips && !bytes.empty(); ++i) {
      bytes[rng.index(bytes.size())] ^= static_cast<std::uint8_t>(1 + rng.index(255));
    }
    if (rng.chance(0.3) && !bytes.empty()) bytes.resize(rng.index(bytes.size()));
    try {
      util::ByteReader r(bytes);
      (void)trace::decode_segment_index(r);
    } catch (const util::BufferUnderflow&) {
      // Malformed input maps to the codec's one failure mode; anything
      // else (crash, other throw) fails the test.
    }
  }
}

/// Build a small capture directory to mutate.
std::string build_capture(util::Rng& rng, const std::string& name) {
  std::string dir = (fs::path(::testing::TempDir()) / name).string();
  fs::remove_all(dir);
  trace::TraceHeader header;
  header.network = "limewire";
  header.config_hash = 0x1badd00dull;
  header.seed = 7;
  trace::SegmentWriterOptions options;
  options.window_ms = 3'600'000;
  options.records_per_block = 8;
  trace::SegmentWriter writer(dir, header, options);
  for (std::uint64_t i = 0; i < 120; ++i) {
    crawler::ResponseRecord r;
    r.id = i + 1;
    r.network = "limewire";
    r.at = util::SimTime::at_millis(
        static_cast<std::int64_t>(i) * 120'000 +
        static_cast<std::int64_t>(rng.index(120'000)));
    r.query = 'q';
    r.filename = "f.exe";
    r.size = 1000 + i;
    r.content_key = 'c' + std::to_string(i % 9);
    r.source_key = 's' + std::to_string(i % 5);
    writer.on_record(r);
  }
  writer.close();
  EXPECT_TRUE(writer.ok());
  return dir;
}

void mutate_file(util::Rng& rng, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  if (bytes.empty()) return;
  std::size_t flips = 1 + rng.index(6);
  for (std::size_t i = 0; i < flips; ++i) {
    bytes[rng.index(bytes.size())] ^= static_cast<char>(1 + rng.index(255));
  }
  if (rng.chance(0.25)) bytes.resize(rng.index(bytes.size()));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(SegmentFuzz, MutatedManifestNeverCrashes) {
  util::Rng rng(0xabad1deau);
  const int rounds = fuzz_rounds(100);
  std::string pristine = build_capture(rng, "fuzz_manifest_src.p2ps");
  for (int round = 0; round < rounds; ++round) {
    std::string dir =
        (fs::path(::testing::TempDir()) / "fuzz_manifest.p2ps").string();
    fs::remove_all(dir);
    fs::copy(pristine, dir, fs::copy_options::recursive);
    mutate_file(rng, trace::manifest_path(dir));
    trace::ManifestData manifest = trace::read_manifest(dir);
    if (manifest.ok()) {
      // A surviving manifest must still drive a non-crashing read.
      trace::SegmentReader reader(dir);
      crawler::ResponseRecord rec;
      while (reader.next(rec)) {
      }
    } else {
      EXPECT_FALSE(manifest.error_message.empty());
      trace::SegmentReader reader(dir);
      EXPECT_FALSE(reader.ok());
    }
  }
}

TEST(SegmentFuzz, MutatedSegmentsAreContained) {
  util::Rng rng(0xc0ffee03u);
  const int rounds = fuzz_rounds(100);
  std::string pristine = build_capture(rng, "fuzz_segment_src.p2ps");
  trace::ManifestData manifest = trace::read_manifest(pristine);
  ASSERT_TRUE(manifest.ok());
  ASSERT_FALSE(manifest.manifest.segments.empty());
  for (int round = 0; round < rounds; ++round) {
    std::string dir =
        (fs::path(::testing::TempDir()) / "fuzz_segment.p2ps").string();
    fs::remove_all(dir);
    fs::copy(pristine, dir, fs::copy_options::recursive);
    std::size_t victim = rng.index(manifest.manifest.segments.size());
    mutate_file(
        rng, trace::segment_path(dir, manifest.manifest.segments[victim]));

    trace::SegmentReader reader(dir);
    ASSERT_TRUE(reader.ok());  // manifest untouched
    crawler::ResponseRecord rec;
    std::uint64_t streamed = 0;
    while (reader.next(rec)) ++streamed;
    const auto& stats = reader.stats();
    EXPECT_EQ(stats.records_read, streamed);
    EXPECT_LE(stats.segments_read + stats.segments_corrupt,
              manifest.manifest.segments.size());
    // Whatever was dropped must be accounted for somewhere.
    if (streamed < 120) {
      EXPECT_TRUE(stats.blocks_corrupt > 0 || stats.segments_corrupt > 0 ||
                  stats.truncated_tail);
    }
  }
}

}  // namespace
}  // namespace p2p
