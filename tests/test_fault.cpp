// Fault-injection determinism and crawler-resilience suite (ctest label:
// fault).
//
// The contract under test, in order of importance:
//   1. Same (spec, seed) ⇒ the same fault schedule, decision by decision.
//   2. Per-category streams are independent: message-layer draws never shift
//      the crawler- or crash-layer schedules.
//   3. Faults disabled ⇒ study output is byte-identical to a run with no
//      fault subsystem at all (pinned by tests/data/fault_off_*.json).
//   4. A faulted study is reproducible end to end, and its degradation
//      counters obey the accounting invariants.
//   5. Retry/backoff/circuit-breaker behave as configured.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/kad_study.h"
#include "core/report.h"
#include "core/study.h"
#include "fault/fault.h"

namespace p2p {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string report_json(const core::StudyResult& result,
                        const std::string& network) {
  auto report = core::build_report(result.records, network);
  core::attach_fault_report(report, result.faults_enabled,
                            result.fault_counters, result.crawl_stats);
  std::ostringstream out;
  core::write_report_json(out, report);
  return out.str();
}

// KAD reports also carry the honeypot coverage section, so the fixture pins
// the labeled and merged honeypot stream as well as the active client's.
std::string kad_report_json(const core::StudyResult& result) {
  auto report = core::build_report(result.records, "kad");
  core::attach_fault_report(report, result.faults_enabled,
                            result.fault_counters, result.crawl_stats);
  core::attach_kad_coverage(report, result.records, result.metrics);
  std::ostringstream out;
  core::write_report_json(out, report);
  return out.str();
}

// Keep in sync with the generator that produced tests/data/fault_off_*.json:
// exactly these configs, run fault-free on the default one-shard engine
// and rendered by report_json above.
core::LimewireStudyConfig tiny_limewire() {
  auto cfg = core::limewire_quick();
  cfg.seed = 4242;
  cfg.population.ultrapeers = 6;
  cfg.population.leaves = 60;
  cfg.population.corpus.num_titles = 400;
  cfg.crawl.duration = sim::SimDuration::hours(2);
  cfg.crawl.query_interval = sim::SimDuration::seconds(120);
  cfg.workload_top_n = 40;
  return cfg;
}

core::OpenFtStudyConfig tiny_openft() {
  auto cfg = core::openft_quick();
  cfg.seed = 4242;
  cfg.population.search_nodes = 4;
  cfg.population.users = 50;
  cfg.population.corpus.num_titles = 400;
  cfg.crawl.duration = sim::SimDuration::hours(2);
  cfg.crawl.query_interval = sim::SimDuration::seconds(120);
  cfg.workload_top_n = 40;
  return cfg;
}

// Rendered by kad_report_json above.
core::KadStudyConfig tiny_kad() {
  auto cfg = core::kad_quick();
  cfg.seed = 4242;
  cfg.population.users = 60;
  cfg.population.corpus.num_titles = 400;
  cfg.crawl.duration = sim::SimDuration::hours(2);
  cfg.crawl.query_interval = sim::SimDuration::seconds(120);
  cfg.workload_top_n = 40;
  return cfg;
}

// ---------------------------------------------------------------------------
// 1. Schedule determinism
// ---------------------------------------------------------------------------

// Message-layer decisions come from the injector's keyed hook: a private
// stream per (plan seed, message key), so equal keys give equal decisions.
bool same_faults(const sim::SendFaults& a, const sim::SendFaults& b) {
  return a.drop == b.drop && a.duplicate == b.duplicate &&
         a.extra_delay.count_ms() == b.extra_delay.count_ms();
}

TEST(FaultPlan, SameSeedSameSchedule) {
  auto spec = fault::preset_moderate();
  fault::FaultInjector a(spec, 99);
  fault::FaultInjector b(spec, 99);
  for (std::uint64_t i = 0; i < 2000; ++i) {
    util::Payload pa{util::Bytes(64, 0x5a)};
    util::Payload pb{util::Bytes(64, 0x5a)};
    EXPECT_TRUE(same_faults(a.on_send_keyed(pa, i), b.on_send_keyed(pb, i)))
        << "at key " << i;
    EXPECT_EQ(pa.to_bytes(), pb.to_bytes());
    EXPECT_EQ(a.plan().download_stalls(), b.plan().download_stalls());
    EXPECT_EQ(a.plan().scan_times_out(), b.plan().scan_times_out());
    EXPECT_EQ(a.plan().next_crash_delay().count_ms(),
              b.plan().next_crash_delay().count_ms());
    EXPECT_EQ(a.plan().pick_victim(97), b.plan().pick_victim(97));
  }
}

TEST(FaultPlan, DifferentSeedsDiverge) {
  auto spec = fault::preset_moderate();
  fault::FaultInjector a(spec, 1);
  fault::FaultInjector b(spec, 2);
  bool diverged = false;
  for (std::uint64_t i = 0; i < 2000 && !diverged; ++i) {
    util::Payload pa{util::Bytes(8, 0)};
    util::Payload pb{util::Bytes(8, 0)};
    diverged = !same_faults(a.on_send_keyed(pa, i), b.on_send_keyed(pb, i)) ||
               a.plan().next_crash_delay().count_ms() !=
                   b.plan().next_crash_delay().count_ms();
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultPlan, CategoryStreamsAreIndependent) {
  auto spec = fault::preset_severe();
  fault::FaultInjector quiet(spec, 7);
  fault::FaultInjector noisy(spec, 7);
  // Burn through message-layer decisions (drop, delay, duplicate, corrupt)
  // on one injector only; the crawler and crash schedules must not move.
  for (std::uint64_t i = 0; i < 500; ++i) {
    util::Payload p{util::Bytes(32, 0xff)};
    (void)noisy.on_send_keyed(p, i);
  }
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(quiet.plan().download_stalls(), noisy.plan().download_stalls())
        << "at " << i;
    EXPECT_EQ(quiet.plan().scan_times_out(), noisy.plan().scan_times_out());
    EXPECT_EQ(quiet.plan().next_crash_delay().count_ms(),
              noisy.plan().next_crash_delay().count_ms());
    EXPECT_EQ(quiet.plan().pick_victim(31), noisy.plan().pick_victim(31));
  }
}

// ---------------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------------

TEST(FaultSpec, ParsePresetsAndKeyValues) {
  auto none = fault::parse_spec("none");
  ASSERT_TRUE(none.has_value());
  EXPECT_FALSE(none->enabled());

  for (const char* name : {"mild", "moderate", "severe"}) {
    auto p = fault::parse_spec(name);
    ASSERT_TRUE(p.has_value()) << name;
    EXPECT_TRUE(p->enabled()) << name;
  }

  auto kv = fault::parse_spec("loss=0.1,delay=0.2,delay_max_ms=1500,stall=0.05");
  ASSERT_TRUE(kv.has_value());
  EXPECT_DOUBLE_EQ(kv->message_loss, 0.1);
  EXPECT_DOUBLE_EQ(kv->message_delay, 0.2);
  EXPECT_EQ(kv->message_delay_max.count_ms(), 1500);
  EXPECT_DOUBLE_EQ(kv->download_stall, 0.05);
  EXPECT_TRUE(kv->enabled());
}

TEST(FaultSpec, ParseRejectsMalformedInput) {
  EXPECT_FALSE(fault::parse_spec("hurricane").has_value());
  EXPECT_FALSE(fault::parse_spec("loss").has_value());
  EXPECT_FALSE(fault::parse_spec("loss=abc").has_value());
  EXPECT_FALSE(fault::parse_spec("loss=-0.1").has_value());
  EXPECT_FALSE(fault::parse_spec("unknown_key=1").has_value());
}

// ---------------------------------------------------------------------------
// 3. Faults off ⇒ byte-identical to the pinned fault-free fixtures
// ---------------------------------------------------------------------------

TEST(FaultOff, LimewireReportMatchesPreFaultFixture) {
  std::string expected =
      read_file(std::string(P2P_SOURCE_DIR) + "/tests/data/fault_off_limewire.json");
  ASSERT_FALSE(expected.empty()) << "fixture missing";
  auto result = core::run_limewire_study(tiny_limewire());
  EXPECT_FALSE(result.faults_enabled);
  EXPECT_EQ(report_json(result, "limewire"), expected);
}

TEST(FaultOff, OpenFtReportMatchesPreFaultFixture) {
  std::string expected =
      read_file(std::string(P2P_SOURCE_DIR) + "/tests/data/fault_off_openft.json");
  ASSERT_FALSE(expected.empty()) << "fixture missing";
  auto result = core::run_openft_study(tiny_openft());
  EXPECT_FALSE(result.faults_enabled);
  EXPECT_EQ(report_json(result, "openft"), expected);
}

TEST(FaultOff, KadReportMatchesPreFaultFixture) {
  std::string expected =
      read_file(std::string(P2P_SOURCE_DIR) + "/tests/data/fault_off_kad.json");
  ASSERT_FALSE(expected.empty()) << "fixture missing";
  auto result = core::run_kad_study(tiny_kad());
  EXPECT_FALSE(result.faults_enabled);
  EXPECT_EQ(kad_report_json(result), expected);
}

TEST(FaultOff, NoneSpecIsIdenticalToNoSpec) {
  auto plain = tiny_limewire();
  auto none = tiny_limewire();
  core::apply_faults(none, *fault::parse_spec("none"));
  EXPECT_EQ(core::config_hash(plain), core::config_hash(none));
  EXPECT_FALSE(none.faults.enabled());
  EXPECT_FALSE(none.crawl.fetch.active());
}

TEST(FaultOff, FaultPlanChangesConfigHash) {
  auto plain = tiny_limewire();
  auto faulted = tiny_limewire();
  core::apply_faults(faulted, fault::preset_mild());
  EXPECT_NE(core::config_hash(plain), core::config_hash(faulted));
  auto reseeded = tiny_limewire();
  core::apply_faults(reseeded, fault::preset_mild(), 77);
  EXPECT_NE(core::config_hash(faulted), core::config_hash(reseeded));
}

// ---------------------------------------------------------------------------
// 4. Faulted runs: reproducibility + degradation accounting
// ---------------------------------------------------------------------------

TEST(FaultedStudy, SameSeedSameFaultedRun) {
  auto cfg = tiny_limewire();
  core::apply_faults(cfg, fault::preset_moderate());
  auto a = core::run_limewire_study(cfg);
  auto b = core::run_limewire_study(cfg);
  EXPECT_TRUE(a.faults_enabled);
  EXPECT_EQ(a.fault_counters.messages_dropped, b.fault_counters.messages_dropped);
  EXPECT_EQ(a.fault_counters.peer_crashes, b.fault_counters.peer_crashes);
  EXPECT_EQ(a.records.size(), b.records.size());
  EXPECT_EQ(report_json(a, "limewire"), report_json(b, "limewire"));
}

TEST(FaultedStudy, FaultSeedSelectsTheSchedule) {
  auto cfg = tiny_limewire();
  core::apply_faults(cfg, fault::preset_moderate(), 11);
  auto a = core::run_limewire_study(cfg);
  cfg.fault_seed = 12;
  auto b = core::run_limewire_study(cfg);
  // A different fault schedule over the same study seed must not produce the
  // same injection record.
  EXPECT_NE(report_json(a, "limewire"), report_json(b, "limewire"));
}

TEST(FaultedStudy, DegradationAccountingHolds) {
  auto cfg = tiny_limewire();
  core::apply_faults(cfg, fault::preset_severe());
  auto result = core::run_limewire_study(cfg);
  const auto& s = result.crawl_stats;
  const auto& f = result.fault_counters;
  EXPECT_GT(f.messages_dropped, 0u);
  EXPECT_GT(f.peer_crashes, 0u);
  // Every resolution is a started download; in-flight fetches at end-of-study
  // account for the remainder.
  EXPECT_GE(s.downloads_started,
            s.downloads_ok + s.downloads_failed + s.downloads_abandoned);
  // Stalls are a subset of started downloads.
  EXPECT_LE(f.downloads_stalled, s.downloads_started);
  // The run still produces a study (graceful degradation, not collapse).
  EXPECT_GT(result.records.size(), 0u);
  EXPECT_GT(s.downloads_ok, 0u);
}

TEST(FaultedStudy, OpenFtFaultedRunIsReproducible) {
  auto cfg = tiny_openft();
  core::apply_faults(cfg, fault::preset_moderate());
  auto a = core::run_openft_study(cfg);
  auto b = core::run_openft_study(cfg);
  EXPECT_TRUE(a.faults_enabled);
  EXPECT_EQ(report_json(a, "openft"), report_json(b, "openft"));
  EXPECT_GT(a.fault_counters.messages_dropped, 0u);
}

TEST(FaultedStudy, SummaryRoundTripsFaultRecord) {
  auto cfg = tiny_openft();
  core::apply_faults(cfg, fault::preset_mild());
  auto result = core::run_openft_study(cfg);
  auto summary = core::study_summary(result);
  core::StudyResult restored;
  restored.records = result.records;
  core::apply_summary(summary, restored);
  EXPECT_EQ(restored.faults_enabled, result.faults_enabled);
  EXPECT_EQ(restored.fault_counters.messages_dropped,
            result.fault_counters.messages_dropped);
  EXPECT_EQ(restored.fault_counters.scan_timeouts,
            result.fault_counters.scan_timeouts);
  EXPECT_EQ(report_json(restored, "openft"), report_json(result, "openft"));
}

// ---------------------------------------------------------------------------
// 5. Resilience mechanics: retries, backoff bounds, circuit breaker
// ---------------------------------------------------------------------------

// The resilience tests want download volume, not byte-identity, so they use
// each network's quick preset as-is (an order of magnitude more fetches than
// the tiny fixture configs above). All three crawlers share one fetch
// pipeline, and every test runs it behind each of them.
struct BusyNetwork {
  const char* name;
  /// Runs the network's quick preset at seed 4242 under `spec`; a non-zero
  /// `breaker_threshold` overrides the resilient policy's.
  std::function<core::StudyResult(const std::string& spec,
                                  std::size_t breaker_threshold)>
      run;
};

template <typename Config, typename Run>
core::StudyResult run_busy(Config cfg, const std::string& spec,
                           std::size_t breaker_threshold, Run run) {
  cfg.seed = 4242;
  core::apply_faults(cfg, *fault::parse_spec(spec));
  if (breaker_threshold > 0) cfg.crawl.fetch.breaker_threshold = breaker_threshold;
  return run(cfg);
}

std::vector<BusyNetwork> busy_networks() {
  return {
      {"limewire",
       [](const std::string& spec, std::size_t breaker) {
         return run_busy(core::limewire_quick(), spec, breaker,
                         [](const auto& c) { return core::run_limewire_study(c); });
       }},
      {"openft",
       [](const std::string& spec, std::size_t breaker) {
         return run_busy(core::openft_quick(), spec, breaker,
                         [](const auto& c) { return core::run_openft_study(c); });
       }},
      {"kad",
       [](const std::string& spec, std::size_t breaker) {
         return run_busy(core::kad_quick(), spec, breaker,
                         [](const auto& c) { return core::run_kad_study(c); });
       }},
  };
}

TEST(Resilience, RetriesSpendAlternateSources) {
  for (const auto& net : busy_networks()) {
    SCOPED_TRACE(net.name);
    // Heavy payload corruption: corrupted transfers fail, and failed
    // downloads get retried from recorded alternate sources.
    auto result = net.run("corrupt=0.4", 0);
    EXPECT_GT(result.crawl_stats.downloads_failed, 0u);
    EXPECT_GT(result.crawl_stats.retries_spent, 0u);
  }
}

TEST(Resilience, WatchdogAbandonsStalledDownloads) {
  for (const auto& net : busy_networks()) {
    SCOPED_TRACE(net.name);
    auto result = net.run("stall=0.5", 0);
    EXPECT_GT(result.fault_counters.downloads_stalled, 0u);
    // Every stall resolves through the watchdog, never through an outcome.
    EXPECT_EQ(result.crawl_stats.downloads_abandoned,
              result.fault_counters.downloads_stalled);
  }
}

TEST(Resilience, BreakerQuarantinesRepeatOffenders) {
  for (const auto& net : busy_networks()) {
    SCOPED_TRACE(net.name);
    // Hosts serving corrupted bytes count against their breaker; with a
    // hair-trigger threshold one bad payload quarantines the host.
    auto result = net.run("corrupt=0.25", 1);
    EXPECT_GT(result.crawl_stats.hosts_quarantined, 0u);
    // Each quarantine consumes at least one failure event (transfer
    // failure, watchdog abandonment, or a content-hash mismatch on an
    // otherwise successful transfer), and every failure event maps to a
    // started fetch.
    EXPECT_LE(result.crawl_stats.hosts_quarantined,
              result.crawl_stats.downloads_started);
  }
}

TEST(Resilience, ScanTimeoutsAreCountedAndRetried) {
  for (const auto& net : busy_networks()) {
    SCOPED_TRACE(net.name);
    auto result = net.run("scan_timeout=0.5", 0);
    EXPECT_GT(result.crawl_stats.scan_timeouts, 0u);
    EXPECT_EQ(result.crawl_stats.scan_timeouts,
              result.fault_counters.scan_timeouts);
  }
}

TEST(Resilience, ResilientPolicyIsBoundedAndActive) {
  auto p = crawler::resilient_fetch_policy();
  EXPECT_TRUE(p.active());
  EXPECT_GT(p.fetch_timeout.count_ms(), 0);
  EXPECT_GT(p.retry_backoff.count_ms(), 0);
  EXPECT_GE(p.retry_backoff_max.count_ms(), p.retry_backoff.count_ms());
  EXPECT_GT(p.breaker_threshold, 0u);
  // Default-constructed policy is the legacy crawler: everything off.
  crawler::FetchPolicy off;
  EXPECT_FALSE(off.active());
}

}  // namespace
}  // namespace p2p
