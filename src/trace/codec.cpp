#include "trace/codec.h"

#include <algorithm>
#include <bit>

namespace p2p::trace {

namespace {

void encode_i64(util::ByteWriter& w, std::int64_t v) {
  w.u64le(static_cast<std::uint64_t>(v));
}

std::int64_t decode_i64(util::ByteReader& r) {
  return static_cast<std::int64_t>(r.u64le());
}

void encode_double(util::ByteWriter& w, double v) {
  w.u64le(std::bit_cast<std::uint64_t>(v));
}

double decode_double(util::ByteReader& r) {
  return std::bit_cast<double>(r.u64le());
}

// Record flags, bit-packed.
constexpr std::uint8_t kFirewalled = 1u << 0;
constexpr std::uint8_t kDownloadAttempted = 1u << 1;
constexpr std::uint8_t kDownloaded = 1u << 2;
constexpr std::uint8_t kInfected = 1u << 3;

}  // namespace

std::string_view to_string(TraceError e) {
  switch (e) {
    case TraceError::kNone: return "ok";
    case TraceError::kIoError: return "cannot read file";
    case TraceError::kEmpty: return "empty file";
    case TraceError::kBadMagic: return "not a trace file (bad magic)";
    case TraceError::kBadVersion: return "unsupported trace version";
    case TraceError::kCorruptHeader: return "corrupt trace header";
    case TraceError::kCorruptManifest: return "corrupt segment manifest";
  }
  return "unknown error";
}

void encode_header_body(util::ByteWriter& w, const TraceHeader& header) {
  w.lp_str(header.network);
  w.u64le(header.config_hash);
  w.u64le(header.seed);
  encode_i64(w, header.crawl_duration_ms);
  w.varint(header.meta.size());
  for (const auto& [key, value] : header.meta) {
    w.lp_str(key);
    w.lp_str(value);
  }
}

TraceHeader decode_header_body(util::ByteReader& r) {
  TraceHeader h;
  h.network = r.lp_str();
  h.config_hash = r.u64le();
  h.seed = r.u64le();
  h.crawl_duration_ms = decode_i64(r);
  std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string key = r.lp_str();
    std::string value = r.lp_str();
    h.meta.emplace_back(std::move(key), std::move(value));
  }
  if (!r.empty()) throw util::BufferUnderflow{};  // trailing header garbage
  return h;
}

void encode_record(util::ByteWriter& w, const crawler::ResponseRecord& rec) {
  w.varint(rec.id);
  w.lp_str(rec.network);
  w.varint(static_cast<std::uint64_t>(rec.at.millis()));
  w.lp_str(rec.query);
  w.lp_str(rec.query_category);
  w.lp_str(rec.filename);
  w.varint(rec.size);
  w.u32le(rec.source_ip.value());
  w.u16le(rec.source_port);
  w.lp_str(rec.source_key);
  std::uint8_t flags = 0;
  if (rec.source_firewalled) flags |= kFirewalled;
  if (rec.download_attempted) flags |= kDownloadAttempted;
  if (rec.downloaded) flags |= kDownloaded;
  if (rec.infected) flags |= kInfected;
  w.u8(flags);
  w.lp_str(rec.content_key);
  w.u32le(rec.strain);
  w.lp_str(rec.strain_name);
  w.u8(static_cast<std::uint8_t>(rec.type_by_magic));
}

void decode_record(util::ByteReader& r, crawler::ResponseRecord& rec) {
  rec.id = r.varint();
  rec.network = r.lp_view();
  rec.at = util::SimTime::at_millis(static_cast<std::int64_t>(r.varint()));
  rec.query = r.lp_view();
  rec.query_category = r.lp_view();
  rec.filename = r.lp_view();
  rec.type_by_name = files::classify_extension(rec.filename);
  rec.size = r.varint();
  rec.source_ip = util::Ipv4{r.u32le()};
  rec.source_port = r.u16le();
  rec.source_key = r.lp_view();
  std::uint8_t flags = r.u8();
  rec.source_firewalled = (flags & kFirewalled) != 0;
  rec.download_attempted = (flags & kDownloadAttempted) != 0;
  rec.downloaded = (flags & kDownloaded) != 0;
  rec.infected = (flags & kInfected) != 0;
  rec.content_key = r.lp_view();
  rec.strain = r.u32le();
  rec.strain_name = r.lp_view();
  rec.type_by_magic = static_cast<files::FileType>(r.u8());
}

void encode_summary(util::ByteWriter& w, const StudySummary& summary) {
  w.u64le(summary.events_executed);
  w.u64le(summary.messages_delivered);
  w.u64le(summary.bytes_delivered);
  w.u64le(summary.churn_joins);
  w.u64le(summary.churn_leaves);
  const auto& s = summary.crawl_stats;
  w.u64le(s.queries_sent);
  w.u64le(s.hits);
  w.u64le(s.responses);
  w.u64le(s.study_responses);
  w.u64le(s.downloads_started);
  w.u64le(s.downloads_ok);
  w.u64le(s.downloads_failed);
  w.u64le(s.bytes_downloaded);
  w.u64le(s.distinct_contents);
  w.u64le(s.downloads_abandoned);
  w.u64le(s.retries_spent);
  w.u64le(s.hosts_quarantined);
  w.u64le(s.scan_timeouts);

  w.u8(summary.faults_enabled ? 1 : 0);
  const auto& f = summary.fault_counters;
  w.u64le(f.messages_dropped);
  w.u64le(f.messages_delayed);
  w.u64le(f.messages_duplicated);
  w.u64le(f.payloads_corrupted);
  w.u64le(f.peer_crashes);
  w.u64le(f.peer_restarts);
  w.u64le(f.downloads_stalled);
  w.u64le(f.scan_timeouts);

  const auto& m = summary.metrics;
  w.varint(m.counters.size());
  for (const auto& c : m.counters) {
    w.lp_str(c.name);
    w.u64le(c.value);
  }
  w.varint(m.gauges.size());
  for (const auto& g : m.gauges) {
    w.lp_str(g.name);
    encode_i64(w, g.value);
    encode_i64(w, g.max);
  }
  w.varint(m.histograms.size());
  for (const auto& h : m.histograms) {
    w.lp_str(h.name);
    w.u8(static_cast<std::uint8_t>(h.unit));
    w.u8(h.wall_clock ? 1 : 0);
    w.u64le(h.count);
    encode_i64(w, h.sum);
    encode_i64(w, h.min);
    encode_i64(w, h.max);
    encode_double(w, h.p50);
    encode_double(w, h.p90);
    encode_double(w, h.p99);
    w.varint(h.buckets.size());
    for (const auto& [lower, count] : h.buckets) {
      encode_i64(w, lower);
      w.u64le(count);
    }
  }

  // Optional timeseries tail. Absent on runs that recorded none, so those
  // summaries stay byte-identical to pre-timeseries traces; decode detects
  // it by the buffer not being exhausted after the histograms.
  const auto& ts = summary.timeseries;
  if (ts.window_ms <= 0) return;
  encode_i64(w, ts.window_ms);
  w.u64le(ts.windows_dropped);
  w.varint(ts.windows.size());
  for (const auto& win : ts.windows) {
    encode_i64(w, win.end_ms);
    w.varint(win.counters.size());
    for (const auto& [name, delta] : win.counters) {
      w.lp_str(name);
      w.u64le(delta);
    }
    w.varint(win.gauges.size());
    for (const auto& [name, value] : win.gauges) {
      w.lp_str(name);
      encode_i64(w, value);
    }
  }
}

StudySummary decode_summary(util::ByteReader& r) {
  StudySummary summary;
  summary.events_executed = r.u64le();
  summary.messages_delivered = r.u64le();
  summary.bytes_delivered = r.u64le();
  summary.churn_joins = r.u64le();
  summary.churn_leaves = r.u64le();
  auto& s = summary.crawl_stats;
  s.queries_sent = r.u64le();
  s.hits = r.u64le();
  s.responses = r.u64le();
  s.study_responses = r.u64le();
  s.downloads_started = r.u64le();
  s.downloads_ok = r.u64le();
  s.downloads_failed = r.u64le();
  s.bytes_downloaded = r.u64le();
  s.distinct_contents = r.u64le();
  s.downloads_abandoned = r.u64le();
  s.retries_spent = r.u64le();
  s.hosts_quarantined = r.u64le();
  s.scan_timeouts = r.u64le();

  summary.faults_enabled = r.u8() != 0;
  auto& f = summary.fault_counters;
  f.messages_dropped = r.u64le();
  f.messages_delayed = r.u64le();
  f.messages_duplicated = r.u64le();
  f.payloads_corrupted = r.u64le();
  f.peer_crashes = r.u64le();
  f.peer_restarts = r.u64le();
  f.downloads_stalled = r.u64le();
  f.scan_timeouts = r.u64le();

  auto& m = summary.metrics;
  // Reservations are clamped: a count field large enough to matter would
  // only survive the block CRC by collision, and must not drive an
  // allocation before the per-element reads run out of buffer.
  constexpr std::uint64_t kReserveCap = 4096;
  std::uint64_t nc = r.varint();
  m.counters.reserve(std::min(nc, kReserveCap));
  for (std::uint64_t i = 0; i < nc; ++i) {
    obs::MetricsSnapshot::CounterSample c;
    c.name = r.lp_str();
    c.value = r.u64le();
    m.counters.push_back(std::move(c));
  }
  std::uint64_t ng = r.varint();
  m.gauges.reserve(std::min(ng, kReserveCap));
  for (std::uint64_t i = 0; i < ng; ++i) {
    obs::MetricsSnapshot::GaugeSample g;
    g.name = r.lp_str();
    g.value = decode_i64(r);
    g.max = decode_i64(r);
    m.gauges.push_back(std::move(g));
  }
  std::uint64_t nh = r.varint();
  m.histograms.reserve(std::min(nh, kReserveCap));
  for (std::uint64_t i = 0; i < nh; ++i) {
    obs::MetricsSnapshot::HistogramSample h;
    h.name = r.lp_str();
    h.unit = static_cast<obs::Unit>(r.u8());
    h.wall_clock = r.u8() != 0;
    h.count = r.u64le();
    h.sum = decode_i64(r);
    h.min = decode_i64(r);
    h.max = decode_i64(r);
    h.p50 = decode_double(r);
    h.p90 = decode_double(r);
    h.p99 = decode_double(r);
    std::uint64_t nb = r.varint();
    h.buckets.reserve(std::min(nb, kReserveCap));
    for (std::uint64_t j = 0; j < nb; ++j) {
      std::int64_t lower = decode_i64(r);
      std::uint64_t count = r.u64le();
      h.buckets.emplace_back(lower, count);
    }
    m.histograms.push_back(std::move(h));
  }

  if (!r.empty()) {
    auto& ts = summary.timeseries;
    ts.window_ms = decode_i64(r);
    ts.windows_dropped = r.u64le();
    std::uint64_t nw = r.varint();
    ts.windows.reserve(std::min(nw, kReserveCap));
    for (std::uint64_t i = 0; i < nw; ++i) {
      obs::TimeSeries::Window win;
      win.end_ms = decode_i64(r);
      std::uint64_t ncnt = r.varint();
      win.counters.reserve(std::min(ncnt, kReserveCap));
      for (std::uint64_t j = 0; j < ncnt; ++j) {
        std::string name = r.lp_str();
        std::uint64_t delta = r.u64le();
        win.counters.emplace_back(std::move(name), delta);
      }
      std::uint64_t ngg = r.varint();
      win.gauges.reserve(std::min(ngg, kReserveCap));
      for (std::uint64_t j = 0; j < ngg; ++j) {
        std::string name = r.lp_str();
        std::int64_t value = decode_i64(r);
        win.gauges.emplace_back(std::move(name), value);
      }
      ts.windows.push_back(std::move(win));
    }
  }
  return summary;
}

void encode_segment_index(util::ByteWriter& w, const SegmentIndex& index) {
  w.varint(index.window_index);
  encode_i64(w, index.window_ms);
  w.varint(index.records);
  w.varint(index.honeypot_records);
  encode_i64(w, index.min_at_ms);
  encode_i64(w, index.max_at_ms);
  w.varint(index.kind_counts.size());
  for (const auto& [kind, count] : index.kind_counts) {
    w.u8(kind);
    w.varint(count);
  }
  w.varint(index.block_offsets.size());
  for (std::uint64_t offset : index.block_offsets) w.varint(offset);
}

SegmentIndex decode_segment_index(util::ByteReader& r) {
  SegmentIndex index;
  index.window_index = r.varint();
  index.window_ms = decode_i64(r);
  index.records = r.varint();
  index.honeypot_records = r.varint();
  index.min_at_ms = decode_i64(r);
  index.max_at_ms = decode_i64(r);
  std::uint64_t kinds = r.varint();
  index.kind_counts.reserve(std::min<std::uint64_t>(kinds, 256));
  for (std::uint64_t i = 0; i < kinds; ++i) {
    std::uint8_t kind = r.u8();
    std::uint64_t count = r.varint();
    index.kind_counts.emplace_back(kind, count);
  }
  std::uint64_t offsets = r.varint();
  index.block_offsets.reserve(std::min<std::uint64_t>(offsets, 4096));
  for (std::uint64_t i = 0; i < offsets; ++i) {
    index.block_offsets.push_back(r.varint());
  }
  return index;
}

}  // namespace p2p::trace
