// Shared observability flag set for the example CLIs. Every example accepts
// the same eight flags (and rejects malformed ones with exit 2 via its own
// usage()), so the walkthroughs in README work against any binary:
//
//   --metrics <path>            metrics snapshot JSON (enables per-event
//                               wall timing)
//   --trace <path>              structured event trace JSONL
//   --trace-components <list>   comma list or "all" (default)
//   --timeseries <path>         windowed counter/gauge series; .csv extension
//                               selects CSV, anything else JSONL
//   --window <dur>              sim-time sampling window, e.g. 30s, 15m, 2h,
//                               1d, 500ms, or a plain millisecond count
//                               (default 1h when --timeseries is given)
//   --profile <path>            span profile as Chrome trace-event JSON
//                               (load in chrome://tracing or Perfetto)
//   --progress                  live human status lines on stderr
//   --progress-json <path>      live status as JSONL
//
// Progress and profile are wall-clock observability and never touch the
// deterministic outputs; --timeseries/--window change only what extra data
// a run records (and its config_hash), never its behavior.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>

#include "obs/profile.h"
#include "obs/progress.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "util/sim_time.h"

namespace p2p::examples {

/// Parse a whole unsigned decimal in [lo, hi] into `out`: digits only (no
/// sign, whitespace or trailing characters) and no overflow. Every numeric
/// flag of the example CLIs goes through here, so `--seed abc`, `--seed -1`
/// or `--seed 7x` is a usage error instead of a silent seed 0, 2^64-1 or 7.
template <typename T>
[[nodiscard]] bool parse_uint(const char* text, T& out, std::uint64_t lo = 0,
                              std::uint64_t hi = std::numeric_limits<T>::max()) {
  const char* end = text + std::strlen(text);
  std::uint64_t value = 0;
  auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || value < lo || value > hi) return false;
  out = static_cast<T>(value);
  return true;
}

/// Parse a sim-duration spec: integer + optional unit suffix (ms, s, m, h,
/// d); a bare integer means milliseconds. Returns false on anything else.
inline bool parse_sim_duration(const char* text, util::SimDuration& out) {
  char* end = nullptr;
  long long value = std::strtoll(text, &end, 10);
  if (end == text || value < 0) return false;
  if (std::strcmp(end, "ms") == 0 || *end == '\0') {
    out = util::SimDuration::millis(value);
  } else if (std::strcmp(end, "s") == 0) {
    out = util::SimDuration::seconds(value);
  } else if (std::strcmp(end, "m") == 0) {
    out = util::SimDuration::minutes(value);
  } else if (std::strcmp(end, "h") == 0) {
    out = util::SimDuration::hours(value);
  } else if (std::strcmp(end, "d") == 0) {
    out = util::SimDuration::days(value);
  } else {
    return false;
  }
  return true;
}

struct ObsCli {
  std::string metrics_path;
  std::string trace_path;
  std::string trace_spec = "all";
  std::string timeseries_path;
  std::string profile_path;
  std::string progress_jsonl;
  util::SimDuration window{};
  bool progress = false;

  /// Appended to every example's usage line.
  static constexpr const char* kUsage =
      " [--metrics <path>] [--trace <path>] [--trace-components <list|all>]"
      " [--timeseries <path>] [--window <dur>] [--profile <path>]"
      " [--progress] [--progress-json <path>]";

  /// Consume argv[i] (and its value) when it is an obs flag. Returns true
  /// when consumed; a consumed-but-malformed flag (missing value, bad
  /// duration) also sets *err so the caller exits via its usage().
  bool parse(int argc, char** argv, int& i, bool* err) {
    auto value = [&](std::string& into) {
      if (i + 1 >= argc) {
        *err = true;
        return false;
      }
      into = argv[++i];
      return true;
    };
    if (std::strcmp(argv[i], "--metrics") == 0) return value(metrics_path);
    if (std::strcmp(argv[i], "--trace") == 0) return value(trace_path);
    if (std::strcmp(argv[i], "--trace-components") == 0) return value(trace_spec);
    if (std::strcmp(argv[i], "--timeseries") == 0) return value(timeseries_path);
    if (std::strcmp(argv[i], "--profile") == 0) return value(profile_path);
    if (std::strcmp(argv[i], "--progress-json") == 0) return value(progress_jsonl);
    if (std::strcmp(argv[i], "--progress") == 0) {
      progress = true;
      return true;
    }
    if (std::strcmp(argv[i], "--window") == 0) {
      std::string spec;
      if (!value(spec)) return true;
      if (!parse_sim_duration(spec.c_str(), window) || window.count_ms() <= 0) {
        std::cerr << "bad --window duration: " << spec << "\n";
        *err = true;
      }
      return true;
    }
    return false;
  }

  /// The recorder config this command line asks for (disabled unless
  /// --timeseries was given; --window alone changes nothing).
  [[nodiscard]] obs::TimeSeriesConfig timeseries_config() const {
    obs::TimeSeriesConfig cfg;
    if (!timeseries_path.empty()) {
      cfg.window =
          window.count_ms() > 0 ? window : util::SimDuration::hours(1);
    }
    return cfg;
  }

  /// Turn on the run-time layers this command line asks for. Call before
  /// the run. Returns false (with a message on stderr) on a bad
  /// --trace-components spec.
  [[nodiscard]] bool activate() const {
    if (!trace_path.empty() &&
        !obs::TraceBuffer::global().enable_from_spec(trace_spec)) {
      std::cerr << "unknown trace component in: " << trace_spec << "\n";
      return false;
    }
    if (!profile_path.empty()) obs::SpanProfiler::global().enable();
    return true;
  }

  /// The progress reporter this command line asks for (nullptr when none).
  /// The caller keeps it alive and installs a ProgressReporter::Scope (or
  /// passes it to SweepOptions).
  [[nodiscard]] std::unique_ptr<obs::ProgressReporter> make_progress() const {
    if (!progress && progress_jsonl.empty()) return nullptr;
    obs::ProgressConfig cfg;
    cfg.human = progress;
    cfg.jsonl_path = progress_jsonl;
    return std::make_unique<obs::ProgressReporter>(cfg);
  }

  /// Write the standalone timeseries export (JSONL, or CSV for a .csv
  /// path). Call with the run's series; no-op without --timeseries.
  [[nodiscard]] bool write_timeseries(const obs::TimeSeries& series) const {
    if (timeseries_path.empty()) return true;
    std::ofstream out(timeseries_path, std::ios::binary);
    if (!out) {
      std::cerr << "cannot write " << timeseries_path << "\n";
      return false;
    }
    bool csv = timeseries_path.size() > 4 &&
               timeseries_path.compare(timeseries_path.size() - 4, 4, ".csv") == 0;
    if (csv) {
      obs::write_timeseries_csv(out, series);
    } else {
      obs::write_timeseries_jsonl(out, series);
    }
    std::cout << "wrote " << series.windows.size() << " timeseries windows to "
              << timeseries_path << "\n";
    return true;
  }

  /// Write the Chrome trace-event profile. Call after the run (spans still
  /// open are not exported); no-op without --profile.
  [[nodiscard]] bool write_profile() const {
    if (profile_path.empty()) return true;
    std::ofstream out(profile_path, std::ios::binary);
    if (!out) {
      std::cerr << "cannot write " << profile_path << "\n";
      return false;
    }
    const auto& profiler = obs::SpanProfiler::global();
    profiler.write_chrome_trace(out);
    std::cout << "wrote " << profiler.total_spans() << " profile spans ("
              << profiler.total_dropped() << " dropped) to " << profile_path
              << "\n";
    return true;
  }

  /// Write the structured-event trace JSONL. No-op without --trace.
  [[nodiscard]] bool write_trace() const {
    if (trace_path.empty()) return true;
    std::ofstream out(trace_path, std::ios::binary);
    if (!out) {
      std::cerr << "cannot write " << trace_path << "\n";
      return false;
    }
    const auto& buf = obs::TraceBuffer::global();
    buf.write_jsonl(out);
    std::cout << "wrote " << buf.size() << " trace events (" << buf.dropped()
              << " dropped) to " << trace_path << "\n";
    return true;
  }
};

}  // namespace p2p::examples
