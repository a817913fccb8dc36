// Sharded-engine scaling bench: events/sec of a cross-shard message storm
// at 1/2/4/8 shards, plus the wall time of a million-peer LimeWire --quick
// study — the capacity claim the struct-of-arrays peer table and per-shard
// arenas exist to back.
//
// Emits a JSON report (stdout or --json <path>); the committed
// BENCH_shard.json at the repo root pins the baseline. --check enforces the
// acceptance floor (>= 2x events/sec at 4 shards vs 1) only when the
// machine actually has >= 4 hardware threads — the ratio is meaningless on
// a 1-2 core runner, and the report records the core count so a reader can
// tell which regime produced it. The executed-event counts must match
// across shard counts unconditionally: that part is the determinism
// contract, not a perf number, and --check always asserts it.
// The million-peer step always runs under a deadline and an RSS ceiling
// (kMillionWallLimitS, kMillionRssLimitMib): a breach prints a FAIL line
// and exits 1, so a runaway cannot hold the bench tier.
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/study.h"
#include "sim/sharded_engine.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Engine workload: a fixed population of entities relaying messages to
// hashed destinations at lookahead-plus-jitter delays. Every event posts
// exactly one successor, so the in-flight population stays constant and the
// executed count is a pure function of (entities, horizon) — identical at
// every shard count.
// ---------------------------------------------------------------------------

p2p::sim::ShardedEngine* g_engine = nullptr;
std::int64_t g_horizon_ms = 0;
std::size_t g_entities = 0;

void pump(std::uint32_t id, std::uint32_t step) {
  std::uint64_t state = (std::uint64_t{id} << 32) | step;
  std::uint64_t h = p2p::util::splitmix64(state);
  auto dst = static_cast<p2p::sim::ShardedEngine::EntityId>(h % g_entities);
  std::int64_t delay = 20 + static_cast<std::int64_t>((h >> 32) % 200);
  p2p::sim::SimTime at =
      g_engine->now() + p2p::sim::SimDuration::millis(delay);
  if (at.millis() > g_horizon_ms) return;
  g_engine->post(dst, at, [dst, step] { pump(dst, step + 1); });
}

struct EngineRun {
  std::size_t shards = 0;
  std::uint64_t executed = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
};

EngineRun run_engine_workload(std::size_t shards, std::size_t entities,
                              std::int64_t horizon_ms) {
  p2p::sim::ShardedEngine::Config cfg;
  cfg.shards = shards;
  cfg.lookahead = p2p::sim::SimDuration::millis(20);
  p2p::sim::ShardedEngine engine(cfg);
  for (std::size_t i = 0; i < entities; ++i) {
    engine.add_entity(/*stable_key=*/0x9e3779b97f4a7c15ull ^ i);
  }
  g_engine = &engine;
  g_entities = entities;
  g_horizon_ms = horizon_ms;
  for (std::size_t i = 0; i < entities; ++i) {
    auto id = static_cast<std::uint32_t>(i);
    engine.post(id, p2p::sim::SimTime::at_millis(static_cast<std::int64_t>(i % 20)),
                [id] { pump(id, 0); });
  }
  Clock::time_point start = Clock::now();
  engine.run_until(p2p::sim::SimTime::at_millis(horizon_ms));
  EngineRun run;
  run.shards = shards;
  run.wall_seconds = seconds_since(start);
  run.executed = engine.executed();
  run.events_per_sec =
      run.wall_seconds > 0.0 ? static_cast<double>(run.executed) / run.wall_seconds
                             : 0.0;
  g_engine = nullptr;
  return run;
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

// Limits on the million-peer step, so one runaway cannot hold the bench
// tier: about 13x the wall time and 4.6x the peak RSS of a measured run
// (9.4 s, 449 MiB on 4 cores).
constexpr double kMillionWallLimitS = 120.0;
constexpr double kMillionRssLimitMib = 2048.0;

// Watches the million-peer step from a side thread for as long as it lives;
// the moment the step passes its deadline or its RSS ceiling, prints a FAIL
// line with the measured value and exits 1 (the study cannot be stopped
// part-way, so the process ends with it).
class MillionStepWatchdog {
 public:
  MillionStepWatchdog() : thread_([this] { watch(); }) {}
  ~MillionStepWatchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  MillionStepWatchdog(const MillionStepWatchdog&) = delete;
  MillionStepWatchdog& operator=(const MillionStepWatchdog&) = delete;

 private:
  void watch() {
    const Clock::time_point start = Clock::now();
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(100),
                         [this] { return done_; })) {
      double wall = seconds_since(start);
      double rss = peak_rss_mib();
      if (wall > kMillionWallLimitS) {
        std::fprintf(stderr,
                     "FAIL: million-peer step still running after %.1fs > "
                     "%.0fs deadline\n",
                     wall, kMillionWallLimitS);
        std::fflush(nullptr);
        std::_Exit(1);
      }
      if (rss > kMillionRssLimitMib) {
        std::fprintf(stderr,
                     "FAIL: million-peer step peak rss %.0f MiB > %.0f MiB "
                     "ceiling after %.1fs\n",
                     rss, kMillionRssLimitMib, wall);
        std::fflush(nullptr);
        std::_Exit(1);
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts once the members above exist
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--check] [--json <path>] [--skip-million]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  bool skip_million = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--skip-million") == 0) {
      skip_million = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }

  unsigned cores = std::thread::hardware_concurrency();
  constexpr std::size_t kEntities = 4096;
  constexpr std::int64_t kHorizonMs = 60'000;

  std::vector<EngineRun> runs;
  for (std::size_t shards : {1u, 2u, 4u, 8u}) {
    EngineRun run = run_engine_workload(shards, kEntities, kHorizonMs);
    std::printf("engine: shards=%zu  events=%llu  wall=%.3fs  %.0f events/s\n",
                run.shards, static_cast<unsigned long long>(run.executed),
                run.wall_seconds, run.events_per_sec);
    runs.push_back(run);
  }
  double speedup4 = runs[2].events_per_sec / runs[0].events_per_sec;
  std::printf("engine: 4-shard speedup %.2fx on %u hardware thread(s)\n",
              speedup4, cores);

  bool ok = true;
  for (const EngineRun& run : runs) {
    if (run.executed != runs[0].executed) {
      std::fprintf(stderr,
                   "FAIL: executed count diverged at %zu shards (%llu vs %llu)\n",
                   run.shards, static_cast<unsigned long long>(run.executed),
                   static_cast<unsigned long long>(runs[0].executed));
      ok = false;
    }
  }

  double million_wall = 0.0;
  double million_rss = 0.0;
  std::uint64_t million_events = 0;
  std::size_t million_responses = 0;
  if (!skip_million) {
    p2p::core::LimewireStudyConfig cfg = p2p::core::limewire_quick();
    cfg.population.leaves = 1'000'000;
    cfg.shards = 4;
    // The struct-of-arrays capacity model: the full servent model would put
    // a million leaves on the quick preset's ultrapeers.
    cfg.soa_capacity = true;
    Clock::time_point start = Clock::now();
    p2p::core::StudyResult result = [&] {
      MillionStepWatchdog watchdog;
      return p2p::core::run_limewire_study(cfg);
    }();
    million_wall = seconds_since(start);
    million_events = result.events_executed;
    million_responses = result.records.size();
    million_rss = peak_rss_mib();
    std::printf(
        "million-peer --quick: wall=%.1fs  events=%llu  responses=%zu  "
        "peak_rss=%.0f MiB\n",
        million_wall, static_cast<unsigned long long>(million_events),
        million_responses, million_rss);
  }

  if (check) {
    if (cores >= 4 && speedup4 < 2.0) {
      std::fprintf(stderr,
                   "FAIL: 4-shard speedup %.2fx < 2.0x floor (%u cores)\n",
                   speedup4, cores);
      ok = false;
    } else if (cores < 4) {
      std::printf(
          "check: %u hardware thread(s) < 4 — speedup floor not enforced\n",
          cores);
    }
    if (!skip_million && million_responses == 0) {
      std::fprintf(stderr, "FAIL: million-peer study produced no responses\n");
      ok = false;
    }
  }

  char buf[2048];
  int n = std::snprintf(
      buf, sizeof(buf),
      "{\"format\":\"p2p-bench-shard-1\",\"cores\":%u,"
      "\"engine\":{\"entities\":%zu,\"horizon_ms\":%lld,\"events\":%llu,"
      "\"per_shards\":["
      "{\"shards\":1,\"events_per_sec\":%.0f},"
      "{\"shards\":2,\"events_per_sec\":%.0f},"
      "{\"shards\":4,\"events_per_sec\":%.0f},"
      "{\"shards\":8,\"events_per_sec\":%.0f}],"
      "\"speedup_4_shards\":%.2f},"
      "\"million_peer\":{\"peers\":1000000,\"shards\":4,"
      "\"wall_seconds\":%.1f,\"events\":%llu,\"responses\":%zu,"
      "\"peak_rss_mib\":%.0f}}\n",
      cores, kEntities, static_cast<long long>(kHorizonMs),
      static_cast<unsigned long long>(runs[0].executed),
      runs[0].events_per_sec, runs[1].events_per_sec, runs[2].events_per_sec,
      runs[3].events_per_sec, speedup4, million_wall,
      static_cast<unsigned long long>(million_events), million_responses,
      million_rss);
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
