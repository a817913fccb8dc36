// Out-of-core trace-store bench: records a deterministic twelve-week
// (84-simulated-day) response stream straight into a segment directory —
// the full record set is never materialized — then replays it through
// core::replay_segment_dir at 1 and 4 jobs. The two replayed reports must
// serialize byte-identically (that part is the determinism contract and is
// always asserted, like bench_shard's executed counts); --check additionally
// pins the replay-throughput floor and the peak-RSS ceiling that make the
// "out of core" claim falsifiable. The committed BENCH_trace.json at the
// repo root records the baseline.
//
// The stream is synthesized from splitmix64 (no simulation): ~1.26M records
// with the mix the analysis pipeline cares about — study-type responses
// (every filename carries its drawn type's extension, since decoding
// re-derives the type from the name; the bench fails if they disagree),
// an ~8% infection rate over six strains with characteristic sizes (so the
// size filter trains), rotating categories, and a few hundred distinct
// sources.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "core/replay.h"
#include "core/report.h"
#include "crawler/records.h"
#include "files/file_types.h"
#include "trace/segment.h"
#include "util/rng.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kRecords = 1'260'000;
constexpr std::int64_t kDays = 84;  // twelve simulated weeks
constexpr std::int64_t kSpanMs = kDays * 86'400'000ll;
constexpr std::int64_t kStrideMs = kSpanMs / static_cast<std::int64_t>(kRecords);

// Conservative floors for a 1-2 core CI runner; the committed baseline is
// far above both.
constexpr double kReplayRecordsPerSecFloor = 100'000.0;
constexpr double kPeakRssMibCeiling = 512.0;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Peak resident set in MiB (VmHWM), or 0 where /proc is unavailable.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Deterministic record i of the synthetic stream. Timestamps are
/// non-decreasing in i (monotone segment windows), everything else is a
/// pure function of splitmix64(i).
p2p::crawler::ResponseRecord make_record(std::uint64_t i) {
  using p2p::util::splitmix64;
  std::uint64_t state = i ^ 0x7261636b6e657463ull;
  std::uint64_t h = splitmix64(state);
  std::uint64_t h2 = splitmix64(state);
  std::uint64_t h3 = splitmix64(state);

  p2p::crawler::ResponseRecord r;
  r.id = i + 1;
  r.network = "limewire";
  r.at = p2p::util::SimTime::at_millis(
      static_cast<std::int64_t>(i) * kStrideMs +
      static_cast<std::int64_t>(h % static_cast<std::uint64_t>(kStrideMs)));

  static const char* kCategories[5] = {"music", "movies", "software", "images",
                                       "documents"};
  r.query_category = kCategories[h % 5];
  r.query = 'q' + std::to_string(h % 40);

  std::uint64_t type_roll = h2 % 10;
  const char* extension = ".mp3";
  if (type_roll < 3) {
    r.type_by_name = p2p::files::FileType::kExecutable;
    extension = ".exe";
  } else if (type_roll < 5) {
    r.type_by_name = p2p::files::FileType::kArchive;
    extension = ".zip";
  } else {
    r.type_by_name = p2p::files::FileType::kAudio;
  }
  r.type_by_magic = r.type_by_name;

  std::uint64_t source = h3 % 300;
  r.source_ip = p2p::util::Ipv4(static_cast<std::uint32_t>(
      0x08'00'00'00u + source * 7919));  // public 8.x.x.x spread
  r.source_port = static_cast<std::uint16_t>(1024 + (h3 >> 32) % 50'000);
  r.source_key = r.source_ip.str() + ":" + std::to_string(r.source_port);
  r.source_firewalled = (h3 >> 16) % 5 == 0;

  bool study = r.is_study_type();
  std::uint64_t dl_roll = splitmix64(state) % 100;
  r.download_attempted = study && dl_roll < 80;
  r.downloaded = study && dl_roll < 70;
  bool infected = r.downloaded && splitmix64(state) % 100 < 8;
  if (infected) {
    std::uint64_t strain = splitmix64(state) % 6;
    r.infected = true;
    r.strain = static_cast<p2p::malware::StrainId>(1 + strain);
    r.strain_name = "bench.worm-" + std::to_string(strain);
    // Characteristic per-strain sizes so the size filter has something to
    // learn: four variants per strain.
    r.size = 90'000 + strain * 16'384 + (splitmix64(state) % 4) * 1'024;
    r.content_key = "inf-" + std::to_string(strain) + "-" +
                    std::to_string(splitmix64(state) % 50);
    r.filename = r.strain_name + extension;
  } else {
    r.size = 100'000 + h2 % 40'000'000;
    r.content_key = "c-" + std::to_string(h2 % 200'000);
    r.filename = "file-" + std::to_string(h2 % 5'000) + extension;
  }
  return r;
}

// fsync every file of the capture just written (its segments and MANIFEST),
// so the kernel's writeback of them does not compete with the timed replay.
bool sync_capture(const std::string& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    int fd = ::open(entry.path().c_str(), O_RDONLY);
    if (fd < 0) return false;
    bool synced = ::fsync(fd) == 0;
    ::close(fd);
    if (!synced) return false;
  }
  return true;
}

int usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--check] [--json <path>] [--dir <path>]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  std::string json_path;
  std::string dir = "bench_trace_capture.p2ps";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--dir") == 0 && i + 1 < argc) {
      dir = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }

  std::filesystem::remove_all(dir);

  // -- Record: synthesize straight into the segment writer ------------------
  p2p::trace::TraceHeader header;
  header.network = "limewire";
  header.config_hash = 0xbe7c47ace0ull;
  header.seed = 1;
  header.crawl_duration_ms = kSpanMs;
  header.meta = {{"tool", "bench_trace"}, {"preset", "synthetic-12w"}};
  Clock::time_point start = Clock::now();
  std::uint64_t segments = 0;
  std::uint64_t bytes = 0;
  {
    p2p::trace::SegmentWriter writer(dir, header);
    if (!writer.ok()) {
      std::fprintf(stderr, "FAIL: cannot create %s\n", dir.c_str());
      return 1;
    }
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      const p2p::crawler::ResponseRecord record = make_record(i);
      if (p2p::files::classify_extension(record.filename) != record.type_by_name) {
        std::fprintf(stderr, "FAIL: record %llu named %s is not its drawn type\n",
                     static_cast<unsigned long long>(i), record.filename.c_str());
        return 1;
      }
      writer.on_record(record);
    }
    writer.close();
    if (!writer.ok()) {
      std::fprintf(stderr, "FAIL: write error in %s\n", dir.c_str());
      return 1;
    }
    segments = writer.segments_written();
    bytes = writer.bytes_written();
  }
  double record_wall = seconds_since(start);
  double record_rps = static_cast<double>(kRecords) / record_wall;
  std::printf("record: %llu records, %llu segments, %.1f MiB, %.1fs (%.0f records/s)\n",
              static_cast<unsigned long long>(kRecords),
              static_cast<unsigned long long>(segments),
              static_cast<double>(bytes) / (1024.0 * 1024.0), record_wall,
              record_rps);
  if (!sync_capture(dir)) {
    std::fprintf(stderr, "FAIL: cannot fsync %s\n", dir.c_str());
    return 1;
  }

  // -- Replay out of core at 1 and 4 jobs -----------------------------------
  bool ok = true;
  double replay_rps[2] = {0.0, 0.0};
  std::string reports[2];
  std::size_t windows = 0;
  p2p::analysis::PrevalenceSummary prevalence;
  for (int pass = 0; pass < 2; ++pass) {
    p2p::core::ReplayOptions options;
    options.jobs = pass == 0 ? 1 : 4;
    start = Clock::now();
    auto result = p2p::core::replay_segment_dir(dir, options);
    double wall = seconds_since(start);
    if (!result.ok) {
      std::fprintf(stderr, "FAIL: replay (%zu jobs): %s\n", options.jobs,
                   result.error.c_str());
      return 1;
    }
    if (result.stats.records_read != kRecords || !result.stats.clean()) {
      std::fprintf(stderr, "FAIL: replay (%zu jobs) read %llu/%llu records clean=%d\n",
                   options.jobs,
                   static_cast<unsigned long long>(result.stats.records_read),
                   static_cast<unsigned long long>(kRecords),
                   result.stats.clean() ? 1 : 0);
      ok = false;
    }
    replay_rps[pass] = static_cast<double>(result.stats.records_read) / wall;
    std::ostringstream json;
    p2p::core::write_report_json(json, result.report);
    reports[pass] = std::move(json).str();
    windows = result.windows.size();
    prevalence = result.report.prevalence;
    std::printf("replay: jobs=%zu  %.1fs  %.0f records/s  %zu windows  "
                "%llu study responses, %llu labeled\n",
                options.jobs, wall, replay_rps[pass], windows,
                static_cast<unsigned long long>(prevalence.study_responses),
                static_cast<unsigned long long>(prevalence.labeled));
  }
  double rss = peak_rss_mib();
  std::printf("peak rss: %.0f MiB\n", rss);

  // Determinism contract, asserted unconditionally.
  bool identical = reports[0] == reports[1];
  if (!identical) {
    std::fprintf(stderr, "FAIL: replayed reports differ between 1 and 4 jobs\n");
    ok = false;
  }
  if (windows != static_cast<std::size_t>(kDays)) {
    std::fprintf(stderr, "FAIL: expected %lld windows, got %zu\n",
                 static_cast<long long>(kDays), windows);
    ok = false;
  }

  if (check) {
    if (replay_rps[0] < kReplayRecordsPerSecFloor) {
      std::fprintf(stderr, "FAIL: serial replay %.0f records/s < %.0f floor\n",
                   replay_rps[0], kReplayRecordsPerSecFloor);
      ok = false;
    }
    if (rss > kPeakRssMibCeiling) {
      std::fprintf(stderr, "FAIL: peak rss %.0f MiB > %.0f MiB ceiling\n", rss,
                   kPeakRssMibCeiling);
      ok = false;
    }
  }

  char buf[1024];
  int n = std::snprintf(
      buf, sizeof(buf),
      "{\"format\":\"p2p-bench-trace-1\",\"cores\":%u,\"records\":%llu,"
      "\"simulated_days\":%lld,\"segments\":%llu,\"bytes\":%llu,"
      "\"record_records_per_sec\":%.0f,"
      "\"replay\":[{\"jobs\":1,\"records_per_sec\":%.0f},"
      "{\"jobs\":4,\"records_per_sec\":%.0f}],"
      "\"reports_identical\":%s,\"windows\":%zu,\"study_responses\":%llu,"
      "\"labeled\":%llu,\"peak_rss_mib\":%.0f,"
      "\"floors\":{\"replay_records_per_sec\":%.0f,\"peak_rss_mib\":%.0f}}\n",
      std::thread::hardware_concurrency(), static_cast<unsigned long long>(kRecords),
      static_cast<long long>(kDays),
      static_cast<unsigned long long>(segments),
      static_cast<unsigned long long>(bytes), record_rps, replay_rps[0],
      replay_rps[1], identical ? "true" : "false", windows,
      static_cast<unsigned long long>(prevalence.study_responses),
      static_cast<unsigned long long>(prevalence.labeled), rss,
      kReplayRecordsPerSecFloor, kPeakRssMibCeiling);
  if (n < 0 || static_cast<std::size_t>(n) >= sizeof(buf)) {
    std::fprintf(stderr, "json overflow\n");
    return 1;
  }
  if (json_path.empty()) {
    std::fputs(buf, stdout);
  } else {
    std::ofstream out(json_path, std::ios::binary);
    out << buf;
    std::printf("wrote %s\n", json_path.c_str());
  }
  std::filesystem::remove_all(dir);
  return ok ? 0 : 1;
}
