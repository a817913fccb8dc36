// Legacy-study engine bench: the full-fidelity LimeWire study's events/sec
// on the sharded engine at 1 and 4 shards, plus the query
// hot-path before/after — the interned-token SharedFileIndex against a
// reference re-tokenizing scan (util::keyword_match per file per query,
// exactly what the index replaced).
//
// Emits a JSON report (stdout or --json <path>); the committed
// BENCH_legacy_engine.json at the repo root pins the baseline. --check
// enforces:
//   * interned-vs-reference query throughput ratio >= 1.3x (pure CPU ratio,
//     machine-independent — the hot-path overhaul must pay for itself),
//   * 1-shard study events/sec above an absolute sanity floor,
//   * identical record streams at 1 and 4 shards (the determinism
//     contract, asserted unconditionally),
//   * >= 2x study events/sec at 4 shards vs 1 — only on hosts with >= 4
//     hardware threads; a smaller host prints the skip line and the report
//     records the core count so a reader can tell which regime produced it.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/study.h"
#include "files/file.h"
#include "gnutella/shared_index.h"
#include "util/rng.h"
#include "util/strings.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Query hot path: shared corpus of multi-word names, two-word queries drawn
// from the same pool (so a realistic fraction match). The reference scan is
// what Servent::match used before interning: util::keyword_match against
// every shared name, re-tokenizing both sides per call.
// ---------------------------------------------------------------------------

std::vector<std::string> word_pool() {
  std::vector<std::string> words;
  static const char* kStems[] = {"atlas",  "motel", "light", "house", "summer",
                                 "winter", "acoustic", "remix", "deluxe",
                                 "live",   "radio", "ghost", "river", "stone",
                                 "echo",   "velvet", "neon", "paper", "crown",
                                 "ember"};
  for (const char* stem : kStems) {
    for (int i = 0; i < 20; ++i) {
      words.push_back(std::string(stem) + std::to_string(i));
    }
  }
  return words;
}

struct QueryBench {
  double ref_queries_per_sec = 0.0;
  double interned_queries_per_sec = 0.0;
  double ratio = 0.0;
  std::uint64_t ref_hits = 0;
  std::uint64_t interned_hits = 0;
};

QueryBench run_query_bench(std::size_t files, std::size_t queries) {
  std::vector<std::string> words = word_pool();
  p2p::util::Rng rng(0x9e37);
  std::vector<std::string> names;
  names.reserve(files);
  for (std::size_t i = 0; i < files; ++i) {
    std::string name = words[rng.bounded(words.size())];
    for (int w = 0; w < 3; ++w) {
      name += " " + words[rng.bounded(words.size())];
    }
    name += ".mp3";
    names.push_back(std::move(name));
  }
  std::vector<std::string> qs;
  qs.reserve(queries);
  for (std::size_t i = 0; i < queries; ++i) {
    // Two-word queries biased toward words that occur in the corpus.
    std::string q = words[rng.bounded(words.size())];
    q += " " + words[rng.bounded(words.size())];
    qs.push_back(std::move(q));
  }

  auto interner = std::make_shared<p2p::gnutella::TokenInterner>();
  p2p::gnutella::SharedFileIndex index(interner);
  for (const std::string& name : names) {
    index.add(std::make_shared<p2p::files::FileContent>(name,
                                                        p2p::util::Bytes{}));
  }

  QueryBench out;
  Clock::time_point start = Clock::now();
  for (const std::string& q : qs) {
    for (const std::string& name : names) {
      if (p2p::util::keyword_match(q, name)) ++out.ref_hits;
    }
  }
  double ref_wall = seconds_since(start);

  start = Clock::now();
  for (const std::string& q : qs) {
    out.interned_hits += index.match(q).size();
  }
  double interned_wall = seconds_since(start);

  out.ref_queries_per_sec =
      ref_wall > 0.0 ? static_cast<double>(queries) / ref_wall : 0.0;
  out.interned_queries_per_sec =
      interned_wall > 0.0 ? static_cast<double>(queries) / interned_wall : 0.0;
  out.ratio = ref_wall > 0.0 && interned_wall > 0.0
                  ? ref_wall / interned_wall
                  : 0.0;
  return out;
}

// ---------------------------------------------------------------------------
// Study throughput: the --quick LimeWire study at 1 and 4 shards.
// ---------------------------------------------------------------------------

struct StudyRun {
  std::size_t shards = 1;
  std::uint64_t events = 0;
  std::size_t responses = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
};

StudyRun run_study(std::size_t shards) {
  p2p::core::LimewireStudyConfig cfg = p2p::core::limewire_quick();
  cfg.seed = 2006;
  cfg.shards = shards;
  Clock::time_point start = Clock::now();
  p2p::core::StudyResult result = p2p::core::run_limewire_study(cfg);
  StudyRun run;
  run.shards = shards;
  run.wall_seconds = seconds_since(start);
  run.events = result.events_executed;
  run.responses = result.records.size();
  run.events_per_sec =
      run.wall_seconds > 0.0
          ? static_cast<double>(run.events) / run.wall_seconds
          : 0.0;
  return run;
}

int usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--check] [--json <path>]\n", argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }

  unsigned cores = std::thread::hardware_concurrency();
  constexpr std::size_t kFiles = 2000;
  constexpr std::size_t kQueries = 2000;
  // Absolute sanity floor for the 1-shard study: a debug build or an
  // accidental O(n^2) regression lands an order of magnitude below this; CI
  // runners and dev machines sit comfortably above it.
  constexpr double kShard1FloorEventsPerSec = 20'000.0;

  QueryBench qb = run_query_bench(kFiles, kQueries);
  std::printf(
      "query: reference %.0f q/s, interned %.0f q/s — %.1fx (%llu vs %llu hits)\n",
      qb.ref_queries_per_sec, qb.interned_queries_per_sec, qb.ratio,
      static_cast<unsigned long long>(qb.ref_hits),
      static_cast<unsigned long long>(qb.interned_hits));

  std::vector<StudyRun> runs;
  for (std::size_t shards : {1u, 4u}) {
    StudyRun run = run_study(shards);
    std::printf(
        "study: shards=%zu  events=%llu  responses=%zu  wall=%.2fs  "
        "%.0f events/s\n",
        run.shards, static_cast<unsigned long long>(run.events), run.responses,
        run.wall_seconds, run.events_per_sec);
    runs.push_back(run);
  }
  double speedup4 = runs[0].events_per_sec > 0.0
                        ? runs[1].events_per_sec / runs[0].events_per_sec
                        : 0.0;
  std::printf("study: 4-shard speedup %.2fx on %u hardware thread(s)\n",
              speedup4, cores);

  bool ok = true;
  if (qb.ref_hits != qb.interned_hits) {
    std::fprintf(stderr,
                 "FAIL: interned index disagrees with reference scan "
                 "(%llu vs %llu hits)\n",
                 static_cast<unsigned long long>(qb.interned_hits),
                 static_cast<unsigned long long>(qb.ref_hits));
    ok = false;
  }
  if (runs[0].events != runs[1].events ||
      runs[0].responses != runs[1].responses) {
    std::fprintf(stderr,
                 "FAIL: sharded runs diverged between 1 and 4 shards\n");
    ok = false;
  }
  for (const StudyRun& run : runs) {
    if (run.responses == 0) {
      std::fprintf(stderr, "FAIL: study at shards=%zu produced no responses\n",
                   run.shards);
      ok = false;
    }
  }

  if (check) {
    if (qb.ratio < 1.3) {
      std::fprintf(stderr,
                   "FAIL: interned query path only %.2fx over the reference "
                   "scan (floor 1.3x)\n",
                   qb.ratio);
      ok = false;
    }
    if (runs[0].events_per_sec < kShard1FloorEventsPerSec) {
      std::fprintf(stderr,
                   "FAIL: 1-shard study %.0f events/s below the %.0f floor\n",
                   runs[0].events_per_sec, kShard1FloorEventsPerSec);
      ok = false;
    }
    if (cores >= 4) {
      if (speedup4 < 2.0) {
        std::fprintf(stderr,
                     "FAIL: 4-shard study speedup %.2fx < 2.0x floor "
                     "(%u cores)\n",
                     speedup4, cores);
        ok = false;
      }
    } else {
      std::printf("1-core host: parallel speedup floor skipped\n");
    }
  }

  char buf[1024];
  int n = std::snprintf(
      buf, sizeof(buf),
      "{\"format\":\"p2p-bench-legacy-engine-2\",\"cores\":%u,"
      "\"query\":{\"files\":%zu,\"queries\":%zu,"
      "\"reference_qps\":%.0f,\"interned_qps\":%.0f,\"ratio\":%.2f},"
      "\"study\":{\"shard1_events_per_sec\":%.0f,"
      "\"shard4_events_per_sec\":%.0f,"
      "\"speedup_4_shards\":%.2f,\"events\":%llu,\"responses\":%zu}}\n",
      cores, kFiles, kQueries, qb.ref_queries_per_sec,
      qb.interned_queries_per_sec, qb.ratio, runs[0].events_per_sec,
      runs[1].events_per_sec, speedup4,
      static_cast<unsigned long long>(runs[0].events), runs[0].responses);
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
  return ok ? 0 : 1;
}
