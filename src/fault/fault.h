// Deterministic fault injection (see DESIGN.md "Fault injection &
// resilience").
//
// The paper's numbers come from a month of crawling two *live* networks,
// where unreachable hosts, stalled transfers and malformed traffic are the
// norm. This subsystem lets a study opt into exactly those failure modes —
// message loss/delay/duplication, payload corruption at the framing layer,
// abrupt peer crashes, stalled downloads and scanner timeouts — while
// keeping the simulation reproducible: every fault decision is drawn from a
// FaultPlan whose per-category splitmix64-derived streams are a pure
// function of (spec, fault seed). Same seed, same plan ⇒ the same fault
// schedule, byte for byte.
//
// A default-constructed FaultSpec is all-zero and means "no faults": no
// hook is installed, no fault metrics are registered, and study output is
// byte-identical to a build without this subsystem.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "obs/metrics.h"
#include "sim/network.h"
#include "util/bytes.h"
#include "util/payload.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace p2p::fault {

/// Fault intensities. All probabilities are per-event in [0, 1]; rates are
/// per simulated hour. Zero disables the corresponding fault class.
struct FaultSpec {
  /// Probability a sent overlay/transfer message is silently lost.
  double message_loss = 0.0;
  /// Probability a delivered message is held up by an extra queueing delay,
  /// drawn uniformly from (0, message_delay_max].
  double message_delay = 0.0;
  sim::SimDuration message_delay_max = sim::SimDuration::seconds(3);
  /// Probability a message is delivered twice (retransmit glitch).
  double message_duplicate = 0.0;
  /// Probability a message's payload has 1-4 bytes flipped in transit —
  /// exercised against the Gnutella/OpenFT framing parsers.
  double payload_corrupt = 0.0;
  /// Abrupt peer crashes per simulated hour across the churnable
  /// population (no graceful BYE; the peer vanishes mid-session).
  double crashes_per_hour = 0.0;
  /// Mean downtime before a crashed peer restarts.
  sim::SimDuration crash_downtime = sim::SimDuration::minutes(10);
  /// Probability a started download stalls: the transfer hangs and its
  /// outcome never arrives (only a crawler fetch timeout reclaims it).
  double download_stall = 0.0;
  /// Probability scanning a fetched payload times out, leaving the content
  /// unlabeled until a retry re-fetches it.
  double scan_timeout = 0.0;

  [[nodiscard]] bool enabled() const {
    return message_loss > 0.0 || message_delay > 0.0 || message_duplicate > 0.0 ||
           payload_corrupt > 0.0 || crashes_per_hour > 0.0 ||
           download_stall > 0.0 || scan_timeout > 0.0;
  }
};

/// Parse a `--faults` argument: a preset name (`none`, `mild`, `moderate`,
/// `severe`) or a comma-separated key=value spec, e.g.
/// `loss=0.05,delay=0.1,delay_max_ms=3000,dup=0.005,corrupt=0.002,`
/// `crash=6,downtime_ms=600000,stall=0.03,scan_timeout=0.01`.
/// Returns nullopt on an unknown preset, unknown key, or malformed value.
[[nodiscard]] std::optional<FaultSpec> parse_spec(const std::string& text);

/// Named presets (the same table parse_spec accepts).
[[nodiscard]] FaultSpec preset_mild();
[[nodiscard]] FaultSpec preset_moderate();
[[nodiscard]] FaultSpec preset_severe();

/// One-line echo of a spec (stable order, for logs and CLI banners).
[[nodiscard]] std::string describe(const FaultSpec& spec);

/// The deterministic fault schedule. Each fault category consumes its own
/// xoshiro stream seeded from a splitmix64 expansion of the fault seed, so
/// decisions in one category never shift another category's schedule, and
/// two plans with equal (spec, seed) make identical decisions call by call.
class FaultPlan {
 public:
  FaultPlan(FaultSpec spec, std::uint64_t seed);

  [[nodiscard]] const FaultSpec& spec() const { return spec_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Base of the per-message decision streams: FaultInjector derives each
  /// message's private stream from this and the message's key.
  [[nodiscard]] std::uint64_t message_seed() const { return message_seed_; }

  // Crawler-layer decisions.
  bool download_stalls();
  bool scan_times_out();

  // Crash schedule (valid only when spec().crashes_per_hour > 0).
  [[nodiscard]] sim::SimDuration next_crash_delay();
  [[nodiscard]] sim::SimDuration next_restart_delay();
  /// Pick a crash victim index in [0, bound).
  [[nodiscard]] std::size_t pick_victim(std::size_t bound);

  /// Flip 1-4 bytes, guaranteeing a net change, consuming draws from `rng`
  /// (a message's private stream).
  static void apply_corruption(util::Rng& rng, std::span<std::uint8_t> payload);

 private:
  FaultSpec spec_;
  std::uint64_t seed_;
  std::uint64_t message_seed_;
  util::Rng crawler_rng_;
  util::Rng crash_rng_;
};

/// Everything the injector did to a run — persisted in the study summary so
/// a replayed trace reports the identical fault section.
struct FaultCounters {
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_delayed = 0;
  std::uint64_t messages_duplicated = 0;
  std::uint64_t payloads_corrupted = 0;
  std::uint64_t peer_crashes = 0;
  std::uint64_t peer_restarts = 0;
  std::uint64_t downloads_stalled = 0;
  std::uint64_t scan_timeouts = 0;
};

/// Obs mirror of FaultCounters (`fault.*`). Registered lazily, only when a
/// run actually injects faults — fault-free runs keep a pre-fault metrics
/// snapshot.
struct FaultMetrics {
  obs::MetricsRegistry& r = obs::MetricsRegistry::global();
  obs::Counter& messages_dropped = r.counter("fault.messages_dropped");
  obs::Counter& messages_delayed = r.counter("fault.messages_delayed");
  obs::Counter& messages_duplicated = r.counter("fault.messages_duplicated");
  obs::Counter& payloads_corrupted = r.counter("fault.payloads_corrupted");
  obs::Counter& peer_crashes = r.counter("fault.peer_crashes");
  obs::Counter& peer_restarts = r.counter("fault.peer_restarts");
  obs::Counter& downloads_stalled = r.counter("fault.downloads_stalled");
  obs::Counter& scan_timeouts = r.counter("fault.scan_timeouts");

  static FaultMetrics& get() { return obs::bound_metrics<FaultMetrics>(); }
};

/// Plan + counting, wired into sim::Network as its message-fault hook and
/// handed to the crawlers for transfer/scan faults. One injector per study
/// run. The plan's streams used here (the crawler hooks, the crash
/// schedule) are single-consumer; the counters are atomic, so the keyed
/// send path — which derives a private per-message stream and touches no
/// plan state — may run concurrently from sharded-engine workers.
class FaultInjector final : public sim::MessageFaultHook {
 public:
  FaultInjector(FaultSpec spec, std::uint64_t seed) : plan_(spec, seed) {}

  /// sim::MessageFaultHook: one call per sim::Network::send of a live
  /// connection; may corrupt the payload via its copy-on-write path. All
  /// decisions come from a stream derived from (plan seed, key) — the same
  /// decision for the same message whatever thread or order the sends
  /// execute in. Draw order within a message: drop, delay, duplicate,
  /// corrupt.
  sim::SendFaults on_send_keyed(util::Payload& payload,
                                std::uint64_t key) override;

  /// Crawler hook: decide whether this fetch will hang. Counted here.
  bool download_stalls();
  /// Crawler hook: decide whether scanning this content times out.
  bool scan_times_out();

  void count_crash() {
    counters_.peer_crashes.fetch_add(1, std::memory_order_relaxed);
    FaultMetrics::get().peer_crashes.add(1);
  }
  void count_restart() {
    counters_.peer_restarts.fetch_add(1, std::memory_order_relaxed);
    FaultMetrics::get().peer_restarts.add(1);
  }

  [[nodiscard]] FaultPlan& plan() { return plan_; }
  [[nodiscard]] const FaultSpec& spec() const { return plan_.spec(); }
  [[nodiscard]] FaultCounters counters() const {
    auto ld = [](const std::atomic<std::uint64_t>& a) {
      return a.load(std::memory_order_relaxed);
    };
    FaultCounters c;
    c.messages_dropped = ld(counters_.messages_dropped);
    c.messages_delayed = ld(counters_.messages_delayed);
    c.messages_duplicated = ld(counters_.messages_duplicated);
    c.payloads_corrupted = ld(counters_.payloads_corrupted);
    c.peer_crashes = ld(counters_.peer_crashes);
    c.peer_restarts = ld(counters_.peer_restarts);
    c.downloads_stalled = ld(counters_.downloads_stalled);
    c.scan_timeouts = ld(counters_.scan_timeouts);
    return c;
  }

 private:
  struct AtomicCounters {
    std::atomic<std::uint64_t> messages_dropped{0};
    std::atomic<std::uint64_t> messages_delayed{0};
    std::atomic<std::uint64_t> messages_duplicated{0};
    std::atomic<std::uint64_t> payloads_corrupted{0};
    std::atomic<std::uint64_t> peer_crashes{0};
    std::atomic<std::uint64_t> peer_restarts{0};
    std::atomic<std::uint64_t> downloads_stalled{0};
    std::atomic<std::uint64_t> scan_timeouts{0};
  };

  FaultPlan plan_;
  AtomicCounters counters_;
};

}  // namespace p2p::fault
