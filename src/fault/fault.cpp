#include "fault/fault.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>

namespace p2p::fault {

namespace {

/// Per-category stream seeds: one splitmix64 walk over the fault seed, in a
/// fixed order. Adding a category appends to the walk so existing streams
/// keep their values.
struct StreamSeeds {
  std::uint64_t message, crawler, crash;
  explicit StreamSeeds(std::uint64_t seed) {
    std::uint64_t state = seed ^ 0xfa17'5eed'c0deull;
    message = util::splitmix64(state);
    (void)util::splitmix64(state);  // a retired stream; keeps the next two
    crawler = util::splitmix64(state);
    crash = util::splitmix64(state);
  }
};

}  // namespace

FaultSpec preset_mild() {
  FaultSpec s;
  s.message_loss = 0.01;
  s.message_delay = 0.05;
  s.message_delay_max = sim::SimDuration::seconds(2);
  s.message_duplicate = 0.002;
  s.payload_corrupt = 0.001;
  s.crashes_per_hour = 2.0;
  s.download_stall = 0.01;
  s.scan_timeout = 0.005;
  return s;
}

FaultSpec preset_moderate() {
  FaultSpec s;
  s.message_loss = 0.05;
  s.message_delay = 0.10;
  s.message_delay_max = sim::SimDuration::seconds(3);
  s.message_duplicate = 0.005;
  s.payload_corrupt = 0.005;
  s.crashes_per_hour = 6.0;
  s.download_stall = 0.03;
  s.scan_timeout = 0.01;
  return s;
}

FaultSpec preset_severe() {
  FaultSpec s;
  s.message_loss = 0.15;
  s.message_delay = 0.20;
  s.message_delay_max = sim::SimDuration::seconds(5);
  s.message_duplicate = 0.01;
  s.payload_corrupt = 0.02;
  s.crashes_per_hour = 15.0;
  s.crash_downtime = sim::SimDuration::minutes(5);
  s.download_stall = 0.08;
  s.scan_timeout = 0.03;
  return s;
}

std::optional<FaultSpec> parse_spec(const std::string& text) {
  if (text == "none") return FaultSpec{};
  if (text == "mild") return preset_mild();
  if (text == "moderate") return preset_moderate();
  if (text == "severe") return preset_severe();

  FaultSpec spec;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    std::string item = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    std::size_t eq = item.find('=');
    if (eq == std::string::npos) return std::nullopt;
    std::string key = item.substr(0, eq);
    std::string val = item.substr(eq + 1);
    char* end = nullptr;
    double num = std::strtod(val.c_str(), &end);
    if (end == val.c_str() || *end != '\0' || num < 0.0) return std::nullopt;
    if (key == "loss") {
      spec.message_loss = num;
    } else if (key == "delay") {
      spec.message_delay = num;
    } else if (key == "delay_max_ms") {
      spec.message_delay_max = sim::SimDuration::millis(static_cast<std::int64_t>(num));
    } else if (key == "dup") {
      spec.message_duplicate = num;
    } else if (key == "corrupt") {
      spec.payload_corrupt = num;
    } else if (key == "crash") {
      spec.crashes_per_hour = num;
    } else if (key == "downtime_ms") {
      spec.crash_downtime = sim::SimDuration::millis(static_cast<std::int64_t>(num));
    } else if (key == "stall") {
      spec.download_stall = num;
    } else if (key == "scan_timeout") {
      spec.scan_timeout = num;
    } else {
      return std::nullopt;
    }
  }
  return spec;
}

std::string describe(const FaultSpec& spec) {
  if (!spec.enabled()) return "none";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "loss=%g delay=%g dup=%g corrupt=%g crash/h=%g stall=%g "
                "scan_timeout=%g",
                spec.message_loss, spec.message_delay, spec.message_duplicate,
                spec.payload_corrupt, spec.crashes_per_hour, spec.download_stall,
                spec.scan_timeout);
  return buf;
}

FaultPlan::FaultPlan(FaultSpec spec, std::uint64_t seed)
    : spec_(spec),
      seed_(seed),
      message_seed_(StreamSeeds(seed).message),
      crawler_rng_(StreamSeeds(seed).crawler),
      crash_rng_(StreamSeeds(seed).crash) {}

void FaultPlan::apply_corruption(util::Rng& rng, std::span<std::uint8_t> payload) {
  std::size_t flips = 1 + static_cast<std::size_t>(rng.bounded(4));
  std::array<std::size_t, 4> at{};
  std::array<std::uint8_t, 4> before{};
  for (std::size_t i = 0; i < flips; ++i) {
    at[i] = rng.index(payload.size());
    before[i] = payload[at[i]];
  }
  for (std::size_t i = 0; i < flips; ++i) {
    payload[at[i]] ^= static_cast<std::uint8_t>(1 + rng.bounded(255));
  }
  // Two flips on the same byte can cancel; a "corrupted" frame that is
  // byte-identical to the original would make the injected/observed
  // counters lie, so force a net change when that happens.
  bool changed = false;
  for (std::size_t i = 0; i < flips; ++i) {
    if (payload[at[i]] != before[i]) {
      changed = true;
      break;
    }
  }
  if (!changed) {
    payload[at[0]] ^= static_cast<std::uint8_t>(1 + rng.bounded(255));
  }
}

bool FaultPlan::download_stalls() {
  return spec_.download_stall > 0.0 && crawler_rng_.chance(spec_.download_stall);
}

bool FaultPlan::scan_times_out() {
  return spec_.scan_timeout > 0.0 && crawler_rng_.chance(spec_.scan_timeout);
}

sim::SimDuration FaultPlan::next_crash_delay() {
  double mean_s = 3600.0 / std::max(1e-9, spec_.crashes_per_hour);
  return sim::SimDuration::millis(
      std::max<std::int64_t>(1, static_cast<std::int64_t>(1000.0 * crash_rng_.exponential(mean_s))));
}

sim::SimDuration FaultPlan::next_restart_delay() {
  double mean_s = std::max(1.0, spec_.crash_downtime.as_seconds());
  return sim::SimDuration::millis(
      std::max<std::int64_t>(1, static_cast<std::int64_t>(1000.0 * crash_rng_.exponential(mean_s))));
}

std::size_t FaultPlan::pick_victim(std::size_t bound) {
  return crash_rng_.index(bound);
}

sim::SendFaults FaultInjector::on_send_keyed(util::Payload& payload,
                                             std::uint64_t key) {
  // One private stream per message, derived from (plan seed, message key):
  // touching no shared plan state makes the decision independent of which
  // worker executes the send, and the key is intrinsic to the simulation,
  // so the whole fault schedule is byte-stable across shard counts.
  util::Rng rng(plan_.message_seed() ^ key);
  const FaultSpec& spec = plan_.spec();

  sim::SendFaults f;
  if (spec.message_loss > 0.0 && rng.chance(spec.message_loss)) {
    f.drop = true;
    counters_.messages_dropped.fetch_add(1, std::memory_order_relaxed);
    FaultMetrics::get().messages_dropped.add(1);
  }
  if (spec.message_delay > 0.0 && rng.chance(spec.message_delay)) {
    std::int64_t max_ms =
        std::max<std::int64_t>(1, spec.message_delay_max.count_ms());
    f.extra_delay = sim::SimDuration::millis(
        static_cast<std::int64_t>(rng.bounded(static_cast<std::uint64_t>(max_ms))) + 1);
    if (!f.drop) {
      counters_.messages_delayed.fetch_add(1, std::memory_order_relaxed);
      FaultMetrics::get().messages_delayed.add(1);
    }
  }
  if (spec.message_duplicate > 0.0 && rng.chance(spec.message_duplicate)) {
    f.duplicate = true;
    if (!f.drop) {
      counters_.messages_duplicated.fetch_add(1, std::memory_order_relaxed);
      FaultMetrics::get().messages_duplicated.add(1);
    }
  }
  if (!f.drop && spec.payload_corrupt > 0.0 && !payload.empty() &&
      rng.chance(spec.payload_corrupt)) {
    FaultPlan::apply_corruption(rng, payload.mutate());
    counters_.payloads_corrupted.fetch_add(1, std::memory_order_relaxed);
    FaultMetrics::get().payloads_corrupted.add(1);
  }
  return f;
}

bool FaultInjector::download_stalls() {
  if (!plan_.download_stalls()) return false;
  counters_.downloads_stalled.fetch_add(1, std::memory_order_relaxed);
  FaultMetrics::get().downloads_stalled.add(1);
  return true;
}

bool FaultInjector::scan_times_out() {
  if (!plan_.scan_times_out()) return false;
  counters_.scan_timeouts.fetch_add(1, std::memory_order_relaxed);
  FaultMetrics::get().scan_timeouts.add(1);
  return true;
}

}  // namespace p2p::fault
