// Segmented trace storage (`ctest -L trace`): segment-directory round trips
// against the single-file backend, zero drift of the single-file format
// through the storage interface, parallel-replay byte-identity at any jobs
// count, MANIFEST damage and staleness as hard failures, and the
// per-segment corruption containment matrix (bit flip / truncation /
// missing file — the report must still come out, with the damage counted),
// and replay's report equal to build_report over the surviving records with
// the filter split on either side of a segment edge.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/replay.h"
#include "core/report.h"
#include "trace/reader.h"
#include "trace/segment.h"
#include "trace/storage.h"
#include "trace/writer.h"
#include "util/rng.h"

namespace p2p {
namespace {

namespace fs = std::filesystem;

constexpr std::int64_t kHourMs = 3'600'000;

std::string temp_path(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

/// Deterministic synthetic stream: non-decreasing timestamps spanning
/// `hours` simulated hours, ~8% infected over four strains, a mix of study
/// and non-study types. Everything derives from splitmix64(i).
std::vector<crawler::ResponseRecord> make_stream(std::size_t count,
                                                 std::int64_t hours,
                                                 std::uint64_t salt = 0) {
  std::vector<crawler::ResponseRecord> out;
  out.reserve(count);
  std::int64_t stride = hours * kHourMs / static_cast<std::int64_t>(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t state = i ^ salt ^ 0x5e97ull;
    std::uint64_t h = util::splitmix64(state);
    std::uint64_t h2 = util::splitmix64(state);
    crawler::ResponseRecord r;
    r.id = i + 1;
    r.network = "limewire";
    r.at = util::SimTime::at_millis(
        static_cast<std::int64_t>(i) * stride +
        static_cast<std::int64_t>(h % static_cast<std::uint64_t>(stride)));
    r.query = "q" + std::to_string(h % 12);
    r.query_category = (h % 4 == 0) ? "software" : "music";
    r.type_by_name =
        h2 % 3 == 0 ? files::FileType::kExecutable
                    : (h2 % 3 == 1 ? files::FileType::kArchive
                                   : files::FileType::kAudio);
    r.type_by_magic = r.type_by_name;
    r.filename = r.type_by_name == files::FileType::kExecutable
                     ? "f" + std::to_string(h2 % 40) + ".exe"
                     : "f" + std::to_string(h2 % 40) + ".mp3";
    r.source_ip = util::Ipv4(static_cast<std::uint32_t>(0x08000000u + h2 % 50));
    r.source_port = static_cast<std::uint16_t>(1024 + h % 1000);
    r.source_key = "s" + std::to_string(h2 % 50);
    r.download_attempted = r.is_study_type();
    r.downloaded = r.is_study_type() && h % 10 < 7;
    if (r.downloaded && h2 % 100 < 8) {
      r.infected = true;
      r.strain = static_cast<malware::StrainId>(1 + h2 % 4);
      r.strain_name = "seg.worm-" + std::to_string(h2 % 4);
      r.size = 80'000 + (h2 % 4) * 8'192 + (h % 3) * 512;
      r.content_key = "inf-" + std::to_string(h2 % 4) + "-" + std::to_string(h % 9);
    } else {
      r.size = 50'000 + h2 % 5'000'000;
      r.content_key = "c-" + std::to_string(h % 3'000);
    }
    out.push_back(std::move(r));
  }
  return out;
}

trace::TraceHeader make_header(const std::string& network = "limewire") {
  trace::TraceHeader header;
  header.network = network;
  header.config_hash = 0xabcdef0123456789ull;
  header.seed = 42;
  header.crawl_duration_ms = 72 * kHourMs;
  header.meta = {{"tool", "test_trace_segments"}};
  return header;
}

trace::StudySummary make_summary() {
  trace::StudySummary summary;
  summary.events_executed = 1234;
  summary.messages_delivered = 567;
  summary.crawl_stats.responses = 89;
  return summary;
}

/// Record `records` into a segment directory at `dir` and return it.
void record_dir(const std::string& dir,
                const std::vector<crawler::ResponseRecord>& records,
                std::int64_t window_ms, bool with_summary = true,
                const std::string& network = "limewire") {
  fs::remove_all(dir);
  trace::SegmentWriterOptions options;
  options.window_ms = window_ms;
  options.records_per_block = 16;  // small blocks: more corruption targets
  trace::SegmentWriter writer(dir, make_header(network), options);
  ASSERT_TRUE(writer.ok());
  for (const auto& r : records) writer.on_record(r);
  if (with_summary) writer.write_summary(make_summary());
  writer.close();
  ASSERT_TRUE(writer.ok());
}

std::vector<crawler::ResponseRecord> read_all(trace::StorageReader& reader) {
  std::vector<crawler::ResponseRecord> out;
  crawler::ResponseRecord rec;
  while (reader.next(rec)) out.push_back(rec);
  return out;
}

std::string report_json(const core::Report& report) {
  std::ostringstream out;
  core::write_report_json(out, report);
  return std::move(out).str();
}

// ---------------------------------------------------------------------------
// Round trips and zero drift
// ---------------------------------------------------------------------------

TEST(TraceSegments, SegmentRoundTripMatchesSingleFile) {
  auto records = make_stream(600, 72);
  std::string file = temp_path("roundtrip.p2pt");
  {
    trace::TraceWriter writer(file, make_header());
    ASSERT_TRUE(writer.ok());
    for (const auto& r : records) writer.on_record(r);
    writer.write_summary(make_summary());
    writer.close();
    ASSERT_TRUE(writer.ok());
  }
  std::string dir = temp_path("roundtrip.p2ps");
  record_dir(dir, records, 24 * kHourMs);

  trace::TraceReader file_reader(file);
  trace::SegmentReader dir_reader(dir);
  ASSERT_TRUE(file_reader.ok());
  ASSERT_TRUE(dir_reader.ok());
  EXPECT_EQ(dir_reader.header().config_hash, file_reader.header().config_hash);
  EXPECT_EQ(dir_reader.manifest().segments.size(), 3u);  // 72h / 24h windows

  auto from_file = read_all(file_reader);
  auto from_dir = read_all(dir_reader);
  ASSERT_EQ(from_file.size(), records.size());
  ASSERT_EQ(from_dir.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(from_dir[i].id, from_file[i].id);
    EXPECT_EQ(from_dir[i].at.millis(), from_file[i].at.millis());
    EXPECT_EQ(from_dir[i].content_key, from_file[i].content_key);
    EXPECT_EQ(from_dir[i].infected, from_file[i].infected);
  }
  EXPECT_TRUE(dir_reader.stats().clean());
  EXPECT_EQ(dir_reader.stats().segments_read, 3u);
  ASSERT_TRUE(dir_reader.summary().has_value());
  EXPECT_EQ(dir_reader.summary()->events_executed, 1234u);
}

TEST(TraceSegments, EverySegmentIsAValidTraceWithIndexFooter) {
  auto records = make_stream(400, 48);
  std::string dir = temp_path("footers.p2ps");
  record_dir(dir, records, 12 * kHourMs);
  trace::ManifestData manifest = trace::read_manifest(dir);
  ASSERT_TRUE(manifest.ok());
  ASSERT_EQ(manifest.manifest.segments.size(), 4u);
  std::uint64_t total = 0;
  for (const auto& entry : manifest.manifest.segments) {
    trace::TraceReader reader(trace::segment_path(dir, entry));
    ASSERT_TRUE(reader.ok()) << entry.file;
    auto segment_records = read_all(reader);
    EXPECT_EQ(segment_records.size(), entry.records) << entry.file;
    ASSERT_TRUE(reader.segment_index().has_value()) << entry.file;
    EXPECT_EQ(reader.segment_index()->records, entry.records);
    EXPECT_EQ(reader.segment_index()->window_index, entry.window_index);
    total += entry.records;
  }
  EXPECT_EQ(total, records.size());
}

TEST(TraceSegments, StorageFactorySingleFileHasZeroDrift) {
  auto records = make_stream(200, 8);
  std::string direct = temp_path("drift_direct.p2pt");
  std::string routed = temp_path("drift_routed.p2pt");
  {
    trace::TraceWriter writer(direct, make_header());
    for (const auto& r : records) writer.on_record(r);
    writer.write_summary(make_summary());
    writer.close();
    ASSERT_TRUE(writer.ok());
  }
  {
    auto writer = trace::open_storage_writer(routed, make_header());
    for (const auto& r : records) writer->on_record(r);
    writer->write_summary(make_summary());
    writer->close();
    ASSERT_TRUE(writer->ok());
    EXPECT_EQ(writer->segments_written(), 1u);
  }
  std::ifstream a(direct, std::ios::binary), b(routed, std::ios::binary);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
}

TEST(TraceSegments, StorageFactoryRoutesByPathShape) {
  EXPECT_TRUE(trace::is_segment_path("capture.p2ps"));
  EXPECT_TRUE(trace::is_segment_path("/tmp/x/capture.p2ps"));
  EXPECT_FALSE(trace::is_segment_path("capture.p2pt"));
  EXPECT_TRUE(trace::is_segment_path(::testing::TempDir()));  // existing dir

  std::string dir = temp_path("routed.p2ps");
  record_dir(dir, make_stream(50, 4), 2 * kHourMs);
  auto reader = trace::open_storage_reader(dir);
  ASSERT_TRUE(reader->ok());
  EXPECT_EQ(read_all(*reader).size(), 50u);
  EXPECT_GT(reader->stats().segments_read, 0u);
}

// ---------------------------------------------------------------------------
// Parallel replay determinism
// ---------------------------------------------------------------------------

TEST(TraceSegments, ReplayIsJobsInvariant) {
  std::string dir = temp_path("jobs.p2ps");
  record_dir(dir, make_stream(1200, 96), 12 * kHourMs);  // 8 segments

  core::ReplayResult results[3];
  std::size_t jobs[3] = {1, 3, 8};
  for (int i = 0; i < 3; ++i) {
    core::ReplayOptions options;
    options.jobs = jobs[i];
    results[i] = core::replay_segment_dir(dir, options);
    ASSERT_TRUE(results[i].ok) << results[i].error;
    EXPECT_TRUE(results[i].stats.clean());
    EXPECT_EQ(results[i].stats.records_read, 1200u);
  }
  std::string serial = report_json(results[0].report);
  EXPECT_EQ(report_json(results[1].report), serial);
  EXPECT_EQ(report_json(results[2].report), serial);
  // Windowed analytics merge identically too.
  ASSERT_EQ(results[1].windows.size(), results[0].windows.size());
  for (std::size_t i = 0; i < results[0].windows.size(); ++i) {
    EXPECT_EQ(results[1].windows[i].responses, results[0].windows[i].responses);
    EXPECT_EQ(results[1].windows[i].distinct_strains,
              results[0].windows[i].distinct_strains);
    EXPECT_EQ(results[1].windows[i].new_strains, results[0].windows[i].new_strains);
  }
  // Summary plumbed through: the synthetic summary's counters surface.
  EXPECT_EQ(results[0].report.records, 1200u);
}

TEST(TraceSegments, ReplayIsRunToRunDeterministic) {
  std::string dir = temp_path("rerun.p2ps");
  record_dir(dir, make_stream(600, 48), 6 * kHourMs);
  core::ReplayOptions options;
  options.jobs = 4;
  auto first = core::replay_segment_dir(dir, options);
  auto second = core::replay_segment_dir(dir, options);
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(report_json(first.report), report_json(second.report));
}

// ---------------------------------------------------------------------------
// Manifest damage and staleness: hard failures
// ---------------------------------------------------------------------------

TEST(TraceSegments, DamagedManifestIsHardError) {
  std::string dir = temp_path("badmanifest.p2ps");
  record_dir(dir, make_stream(100, 8), 4 * kHourMs);
  std::string mpath = trace::manifest_path(dir);
  {
    std::fstream f(mpath, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(30);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(30);
    byte = static_cast<char>(byte ^ 0xff);
    f.write(&byte, 1);
  }
  trace::ManifestData manifest = trace::read_manifest(dir);
  EXPECT_FALSE(manifest.ok());

  trace::SegmentReader reader(dir);
  EXPECT_FALSE(reader.ok());

  auto replay = core::replay_segment_dir(dir, {});
  EXPECT_FALSE(replay.ok);
  EXPECT_FALSE(replay.error.empty());
}

TEST(TraceSegments, MissingManifestIsHardError) {
  std::string dir = temp_path("nomanifest.p2ps");
  record_dir(dir, make_stream(100, 8), 4 * kHourMs);
  fs::remove(trace::manifest_path(dir));
  trace::SegmentReader reader(dir);
  EXPECT_FALSE(reader.ok());
  auto replay = core::replay_segment_dir(dir, {});
  EXPECT_FALSE(replay.ok);
}

TEST(TraceSegments, StaleManifestDropsMismatchedSegments) {
  // A MANIFEST rewritten for a different config must not blend foreign
  // segments into an analysis: every segment whose header contradicts it is
  // dropped whole and the damage is visible in the stats.
  std::string dir = temp_path("stale.p2ps");
  record_dir(dir, make_stream(200, 16), 8 * kHourMs);
  trace::ManifestData manifest = trace::read_manifest(dir);
  ASSERT_TRUE(manifest.ok());
  manifest.manifest.header.config_hash ^= 0x1;  // stale: different capture
  ASSERT_TRUE(trace::write_manifest(dir, manifest.manifest));

  trace::SegmentReader reader(dir);
  ASSERT_TRUE(reader.ok());  // manifest itself is well-formed
  EXPECT_TRUE(read_all(reader).empty());
  EXPECT_EQ(reader.stats().segments_read, 0u);
  EXPECT_EQ(reader.stats().segments_corrupt,
            manifest.manifest.segments.size());
  EXPECT_FALSE(reader.stats().clean());
}

// ---------------------------------------------------------------------------
// Per-segment corruption containment
// ---------------------------------------------------------------------------

struct Damage {
  const char* name;
  void (*apply)(const std::string& segment_file);
};

void bit_flip(const std::string& path) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(0, std::ios::end);
  auto size = static_cast<std::int64_t>(f.tellg());
  f.seekp(size / 2);
  char byte = 0;
  f.seekg(size / 2);
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(size / 2);
  f.write(&byte, 1);
}

void truncate_half(const std::string& path) {
  auto size = fs::file_size(path);
  fs::resize_file(path, size / 2);
}

void remove_file(const std::string& path) { fs::remove(path); }

TEST(TraceSegments, CorruptionIsContainedPerSegment) {
  const Damage kMatrix[] = {
      {"bit-flip", bit_flip},
      {"truncation", truncate_half},
      {"missing-file", remove_file},
  };
  auto records = make_stream(800, 64);
  for (const Damage& damage : kMatrix) {
    SCOPED_TRACE(damage.name);
    std::string dir = temp_path(std::string("contain-") + damage.name + ".p2ps");
    record_dir(dir, records, 8 * kHourMs);  // 8 segments
    trace::ManifestData manifest = trace::read_manifest(dir);
    ASSERT_TRUE(manifest.ok());
    ASSERT_EQ(manifest.manifest.segments.size(), 8u);
    damage.apply(trace::segment_path(dir, manifest.manifest.segments[3]));

    core::ReplayOptions options;
    options.jobs = 4;
    auto replay = core::replay_segment_dir(dir, options);
    // The report still comes out; the damage is counted, not fatal.
    ASSERT_TRUE(replay.ok) << replay.error;
    EXPECT_FALSE(replay.stats.clean());
    EXPECT_GT(replay.stats.records_read, 0u);
    EXPECT_LT(replay.stats.records_read, records.size());
    EXPECT_TRUE(replay.stats.blocks_corrupt > 0 ||
                replay.stats.segments_corrupt > 0 ||
                replay.stats.truncated_tail);
    EXPECT_EQ(replay.segments_total, 8u);
    EXPECT_GT(replay.report.records, 0u);
    // Jobs invariance holds on damaged input too.
    auto serial = core::replay_segment_dir(dir, {});
    ASSERT_TRUE(serial.ok);
    EXPECT_EQ(report_json(replay.report), report_json(serial.report));
  }
}

TEST(TraceSegments, DamageInOneSegmentLeavesOthersExact) {
  auto records = make_stream(400, 32);
  std::string dir = temp_path("exact.p2ps");
  record_dir(dir, records, 8 * kHourMs);  // 4 segments
  trace::ManifestData manifest = trace::read_manifest(dir);
  ASSERT_TRUE(manifest.ok());
  std::uint64_t dropped = manifest.manifest.segments[1].records;
  fs::remove(trace::segment_path(dir, manifest.manifest.segments[1]));

  trace::SegmentReader reader(dir);
  ASSERT_TRUE(reader.ok());
  auto survived = read_all(reader);
  EXPECT_EQ(survived.size(), records.size() - dropped);
  EXPECT_EQ(reader.stats().segments_corrupt, 1u);
  EXPECT_EQ(reader.stats().segments_read, 3u);
  // Survivors stream in order and untouched.
  for (std::size_t i = 1; i < survived.size(); ++i) {
    EXPECT_LT(survived[i - 1].id, survived[i].id);
  }
}

// ---------------------------------------------------------------------------
// Replay equals the in-memory report at the filter split
// ---------------------------------------------------------------------------

enum class SplitAt { kMidSegment, kInSegmentZero, kSegmentEnd };

/// Overwrite `r` as an infected download of a vendor-known strain (so the
/// builtin filter learns its content key) with the given key and size.
void plant(crawler::ResponseRecord& r, bool study_type, const std::string& key,
           std::uint64_t size) {
  r.filename = study_type ? "planted.exe" : "planted.mp3";
  r.type_by_name = study_type ? files::FileType::kExecutable
                              : files::FileType::kAudio;
  r.type_by_magic = r.type_by_name;
  r.download_attempted = true;
  r.downloaded = true;
  r.infected = true;
  r.strain = 1;
  r.strain_name = "Troj.Dropper.D";
  r.content_key = key;
  r.size = size;
}

struct SplitStream {
  std::vector<crawler::ResponseRecord> records;
  std::int64_t window_ms = 0;
  std::uint64_t boundary_window = 0;  // window holding active ordinal split
};

/// A stream whose E5 split (the first quarter of its active records) lands
/// where `at` says, with records planted on both sides of it. Let s be the
/// split's active ordinal. Twelve infected downloads of one strain before
/// s - 3 make that strain the size filter's first; s - 3 is an infected
/// non-study download (training only: the evaluation skips non-study
/// types); s - 1 and s are infected downloads; s + 1, s + 2 and s + 3 repeat
/// the size and content key of s - 3, s - 1 and s, so each of them is
/// blocked exactly when its twin was trained on. Training one record too
/// many or too few, or dropping the non-study one, changes the tallies.
SplitStream make_split_stream(const std::string& network, bool honeypots,
                              SplitAt at) {
  constexpr std::size_t kCount = 1200;
  constexpr std::int64_t kHours = 96;
  SplitStream out;
  out.records = make_stream(kCount, kHours, 0x51ull);
  std::vector<std::size_t> active;  // stream index of each active record
  for (std::size_t i = 0; i < kCount; ++i) {
    out.records[i].network = network;
    if (honeypots && i % 3 != 0) {
      out.records[i].query_category = "honeypot";
    } else {
      active.push_back(i);
    }
  }
  const auto s = static_cast<std::size_t>(static_cast<double>(active.size()) * 0.25);
  for (std::size_t k = 0; k < 12; ++k) {
    plant(out.records[active[s - 5 - 2 * k]], true, "planted-train", 9'000'000);
  }
  plant(out.records[active[s - 3]], false, "planted-nonstudy", 9'000'003);
  plant(out.records[active[s - 1]], true, "planted-before", 9'000'001);
  plant(out.records[active[s]], true, "planted-at", 9'000'002);
  plant(out.records[active[s + 1]], true, "planted-nonstudy", 9'000'003);
  plant(out.records[active[s + 2]], true, "planted-before", 9'000'001);
  plant(out.records[active[s + 3]], true, "planted-at", 9'000'002);

  // make_stream puts record i in [i * stride, (i + 1) * stride), so a window
  // edge at p * stride starts a segment exactly at stream index p.
  const std::int64_t stride = kHours * kHourMs / static_cast<std::int64_t>(kCount);
  const auto p = static_cast<std::int64_t>(active[s]);
  switch (at) {
    case SplitAt::kMidSegment:  // s at 1.5 windows: inside segment 1
      out.window_ms = p * stride * 2 / 3;
      break;
    case SplitAt::kInSegmentZero:  // s at 0.75 windows
      out.window_ms = p * stride * 4 / 3;
      break;
    case SplitAt::kSegmentEnd:  // s - 1 ends segment 0, s starts segment 1
      out.window_ms = p * stride;
      break;
  }
  auto window_of = [&](std::size_t ordinal) {
    return static_cast<std::uint64_t>(out.records[active[ordinal]].at.millis() /
                                      out.window_ms);
  };
  out.boundary_window = window_of(s);
  switch (at) {
    case SplitAt::kMidSegment:
      EXPECT_EQ(out.boundary_window, 1u);
      EXPECT_EQ(window_of(s - 25), 1u);
      EXPECT_EQ(window_of(s + 3), 1u);
      break;
    case SplitAt::kInSegmentZero:
      EXPECT_EQ(out.boundary_window, 0u);
      EXPECT_EQ(window_of(s + 3), 0u);
      break;
    case SplitAt::kSegmentEnd:
      EXPECT_EQ(window_of(s - 1), 0u);
      EXPECT_EQ(out.boundary_window, 1u);
      break;
  }
  return out;
}

TEST(TraceSegments, ReplayMatchesInMemoryReport) {
  struct Variant {
    const char* network;
    bool honeypots;
  };
  const Variant kVariants[] = {{"limewire", false}, {"kad", true}};
  const std::pair<const char*, SplitAt> kSplits[] = {
      {"mid-segment", SplitAt::kMidSegment},
      {"segment-0", SplitAt::kInSegmentZero},
      {"segment-end", SplitAt::kSegmentEnd},
  };
  for (const Variant& variant : kVariants) {
    for (const auto& [split_name, at] : kSplits) {
      for (bool damaged : {false, true}) {
        std::string name = std::string(variant.network) + "-" + split_name +
                           (damaged ? "-bit-flip" : "");
        SCOPED_TRACE(name);
        SplitStream stream = make_split_stream(variant.network, variant.honeypots, at);
        std::string dir = temp_path("split-" + name + ".p2ps");
        record_dir(dir, stream.records, stream.window_ms, /*with_summary=*/false,
                   variant.network);
        if (damaged) {
          trace::ManifestData manifest = trace::read_manifest(dir);
          ASSERT_TRUE(manifest.ok());
          bool flipped = false;
          for (const auto& entry : manifest.manifest.segments) {
            if (entry.window_index != stream.boundary_window) continue;
            bit_flip(trace::segment_path(dir, entry));
            flipped = true;
          }
          ASSERT_TRUE(flipped);
        }

        trace::SegmentReader reader(dir);
        ASSERT_TRUE(reader.ok());
        auto survivors = read_all(reader);
        EXPECT_EQ(reader.stats().clean(), !damaged);
        std::string expected =
            report_json(core::build_report(survivors, variant.network));
        for (std::size_t jobs : {1u, 3u, 8u}) {
          SCOPED_TRACE(jobs);
          core::ReplayOptions options;
          options.jobs = jobs;
          auto replay = core::replay_segment_dir(dir, options);
          ASSERT_TRUE(replay.ok) << replay.error;
          EXPECT_EQ(replay.stats.records_read, survivors.size());
          EXPECT_EQ(report_json(replay.report), expected);
        }
      }
    }
  }
}

}  // namespace
}  // namespace p2p
