// Study-wide crawler metrics, fed by the fetch pipeline the LimeWire, OpenFT
// and KAD crawlers share (every network feeds the same `crawler.*` family;
// per-instance numbers stay in CrawlStats). See DESIGN.md "Observability"
// for the naming convention.
#pragma once

#include "obs/metrics.h"

namespace p2p::crawler {

struct CrawlerMetrics {
  obs::MetricsRegistry& r = obs::MetricsRegistry::global();
  obs::Counter& queries_sent = r.counter("crawler.queries_sent");
  obs::Counter& hits = r.counter("crawler.hits");
  obs::Counter& responses_logged = r.counter("crawler.responses_logged");
  obs::Counter& study_responses = r.counter("crawler.study_responses");
  obs::Counter& downloads_started = r.counter("crawler.downloads_started");
  obs::Counter& downloads_ok = r.counter("crawler.downloads_ok");
  obs::Counter& downloads_failed = r.counter("crawler.downloads_failed");
  obs::Counter& download_retries = r.counter("crawler.download_retries");
  obs::Counter& downloads_abandoned = r.counter("crawler.downloads_abandoned");
  obs::Counter& hosts_quarantined = r.counter("crawler.hosts_quarantined");
  obs::Counter& scan_timeouts = r.counter("crawler.scan_timeouts");
  /// Infected contents found at scan time (download-complete), so windowed
  /// series see infections when they happen, not at finalize().
  obs::Counter& infected_detected = r.counter("crawler.infected_detected");
  obs::Counter& bytes_downloaded = r.counter("crawler.bytes_downloaded");
  obs::Counter& distinct_contents = r.counter("crawler.distinct_contents");
  /// Sim-time gap between a query leaving the vantage point and each hit
  /// arriving — deterministic under a fixed seed (no wall clock involved).
  obs::Histogram& hit_latency_ms = r.histogram(
      "crawler.hit_latency_ms", obs::HistogramSpec::exponential(obs::Unit::kMillisSim));

  static CrawlerMetrics& get() { return obs::bound_metrics<CrawlerMetrics>(); }
};

}  // namespace p2p::crawler
