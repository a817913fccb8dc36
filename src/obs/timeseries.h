// Sim-time-windowed metric sampling: the time-resolved complement of the
// end-of-run MetricsSnapshot.
//
// A TimeSeriesRecorder closes a window every `window` of simulated time and
// records, per window, the delta of every registered counter since the
// previous window plus the current value of every gauge. Sampling happens
// *between* events (the study loop tiles ShardedEngine::run_until at window
// boundaries, which is exactly behavior-neutral — run_until executes every
// event with at <= until either way), so a recorded run produces the same
// records, report, and metrics as an unrecorded one.
//
// Determinism contract: windows are keyed by sim time and contain only
// sim-driven counters/gauges, so the series is byte-identical across runs
// with the same seed and across sweep --jobs counts (each sweep task
// records against its own ScopedMetricsRegistry). Wall-clock never enters
// the series.
//
// Memory is bounded: at most `max_windows` windows are kept; when the ring
// is full the oldest window is dropped (and counted in windows_dropped),
// keeping the most recent max_windows windows of a long run.
//
// Under P2P_OBS_DISABLED, sample() compiles to a no-op and take() returns
// an empty series, so no timeseries block is ever emitted.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/sim_time.h"

namespace p2p::obs {

/// Behavior-affecting knobs of the recorder; folded into core::config_hash
/// when enabled (an enabled series changes what a study result — and its
/// persisted trace — contains, so caches must not serve across the change).
struct TimeSeriesConfig {
  /// Sampling interval in sim time; zero disables recording entirely.
  util::SimDuration window{};
  /// Ring bound on retained windows (oldest dropped first).
  std::size_t max_windows = 4096;

  [[nodiscard]] bool enabled() const { return window.count_ms() > 0; }
};

/// The recorded series: one entry per closed window, oldest first.
struct TimeSeries {
  struct Window {
    /// Sim time at which the window closed (its exclusive end).
    std::int64_t end_ms = 0;
    /// Per-counter increment over this window, sorted by name; zero deltas
    /// are omitted (a counter absent from a window did not move).
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    /// Gauge values at the window close, sorted by name.
    std::vector<std::pair<std::string, std::int64_t>> gauges;
  };

  std::int64_t window_ms = 0;
  std::vector<Window> windows;
  /// Windows evicted by the ring bound (the series starts this many
  /// windows into the run).
  std::uint64_t windows_dropped = 0;

  [[nodiscard]] bool empty() const { return windows.empty(); }
};

/// Samples a MetricsRegistry at sim-time window boundaries. The baseline
/// for the first window's deltas is the registry state at construction, so
/// create the recorder after setup and before the event loop starts.
class TimeSeriesRecorder {
 public:
  TimeSeriesRecorder(const MetricsRegistry& registry, TimeSeriesConfig config);

  /// Close the window ending at `end`. Call at monotonically increasing
  /// sim times (the study loop's window boundaries).
  void sample(util::SimTime end);

  [[nodiscard]] const TimeSeriesConfig& config() const { return config_; }

  /// The finished series (moves it out; the recorder is done after this).
  [[nodiscard]] TimeSeries take();

 private:
  const MetricsRegistry* registry_;
  TimeSeriesConfig config_;
  std::deque<TimeSeries::Window> windows_;
  std::uint64_t dropped_ = 0;
  std::map<std::string, std::uint64_t> last_counters_;
};

/// `{"window_ms":..,"dropped":..,"windows":[...]}` — the deterministic
/// embedded block shared by the study report and sweep JSON (no trailing
/// newline; callers place it inside an enclosing object).
void write_timeseries_json(std::ostream& out, const TimeSeries& series);

/// One JSON object per line per window:
/// `{"end_ms":..,"counters":{..},"gauges":{..}}`.
void write_timeseries_jsonl(std::ostream& out, const TimeSeries& series);

/// Long-format CSV: `end_ms,kind,name,value` with a header row.
void write_timeseries_csv(std::ostream& out, const TimeSeries& series);

}  // namespace p2p::obs
