// The measurement pipeline every instrumented client runs (the paper's
// apparatus, and the KAD honeypot follow-up's active client): replay the
// query workload, log every response, download each distinct advertised
// content once, verify its hash, scan it, and label the response log.
//
// FetchPipeline owns all of it, including the resilience policy a lossy
// network calls for (stall watchdog, bounded-backoff retries over alternate
// sources, per-host circuit breaker; see DESIGN.md "Fault injection &
// resilience"). A crawler supplies only its protocol glue: how to send a
// query, how to download from a source, the source's host, and how its
// network keys content.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "crawler/crawler_metrics.h"
#include "crawler/label_store.h"
#include "crawler/records.h"
#include "crawler/workload.h"
#include "fault/fault.h"
#include "malware/scanner.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "sim/network.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace p2p::crawler {

/// Crawler-side resilience against lossy networks. Every knob's zero
/// default reproduces the pre-fault-layer crawler exactly — enabling any of
/// them is what a chaos study does via core::apply_faults.
struct FetchPolicy {
  /// Give up on a fetch whose outcome never arrives (stalled transfer).
  /// Zero disables the watchdog.
  sim::SimDuration fetch_timeout{};
  /// Base delay of the bounded exponential backoff between a failed fetch
  /// and its retry from an alternate source. Zero retries immediately
  /// within the failure callback (the original crawler behaviour).
  sim::SimDuration retry_backoff{};
  sim::SimDuration retry_backoff_max = sim::SimDuration::minutes(5);
  /// Consecutive failures from one host before it is quarantined (circuit
  /// breaker). Zero disables the breaker.
  std::size_t breaker_threshold = 0;
  sim::SimDuration breaker_cooldown = sim::SimDuration::minutes(30);

  [[nodiscard]] bool active() const {
    return fetch_timeout.count_ms() > 0 || retry_backoff.count_ms() > 0 ||
           breaker_threshold > 0;
  }
};

/// The resilience defaults a fault-injected study runs with (applied by
/// core::apply_faults alongside the fault spec).
[[nodiscard]] FetchPolicy resilient_fetch_policy();

struct CrawlConfig {
  /// How long the crawl runs (the paper: "over a month of data").
  sim::SimDuration duration = sim::SimDuration::days(30);
  /// One workload query per interval.
  sim::SimDuration query_interval = sim::SimDuration::seconds(600);
  /// Let the overlay form before the first query.
  sim::SimDuration warmup = sim::SimDuration::minutes(3);
  int max_download_attempts = 3;
  /// TTL stamped on the crawler's queries (Gnutella only; A2 sweeps this).
  std::uint8_t query_ttl = 4;
  /// Use leaf-side dynamic querying instead of flooding all ultrapeers at
  /// once (Gnutella only; A4 compares the two).
  bool dynamic_querying = false;
  std::size_t dynamic_target_results = 60;
  sim::SimDuration dynamic_probe_interval = sim::SimDuration::seconds(8);
  /// Address of the measurement host (multi-vantage studies run several
  /// crawlers on distinct addresses).
  util::Ipv4 vantage_ip = util::Ipv4(156, 56, 1, 10);
  std::uint64_t seed = 99;
  /// Resilience knobs; the all-zero default is the legacy crawler.
  FetchPolicy fetch{};
};

struct CrawlStats {
  std::uint64_t queries_sent = 0;
  std::uint64_t hits = 0;
  std::uint64_t responses = 0;
  std::uint64_t study_responses = 0;  // exe/archive by advertised name
  std::uint64_t downloads_started = 0;
  std::uint64_t downloads_ok = 0;
  std::uint64_t downloads_failed = 0;
  std::uint64_t bytes_downloaded = 0;
  std::uint64_t distinct_contents = 0;
  // Graceful-degradation counters (all zero in a fault-free run).
  std::uint64_t downloads_abandoned = 0;  // fetch watchdog fired
  std::uint64_t retries_spent = 0;        // re-fetches from alternate sources
  std::uint64_t hosts_quarantined = 0;    // circuit-breaker trips
  std::uint64_t scan_timeouts = 0;        // injected scanner timeouts

  /// Field-wise sum (multi-vantage studies add up their crawlers).
  CrawlStats& operator+=(const CrawlStats& other);
};

/// Scan downloaded bytes into the label every response advertising them
/// gets.
[[nodiscard]] ContentLabel scan_content(const malware::Scanner& scanner,
                                        const util::Bytes& content);

/// Join every study-type record with its content's label: the paper's last
/// step, run once the crawl is over.
void label_records(std::vector<ResponseRecord>& records, const LabelStore& labels);

/// One crawler's query schedule, response log and download pipeline.
/// `Source` is whatever the protocol downloads from (a query hit, a search
/// result); `QueryKey` is the id the network's hits carry back to their
/// query.
template <typename Source, typename QueryKey = std::uint64_t,
          typename QueryHash = std::hash<QueryKey>>
class FetchPipeline {
 public:
  struct Glue {
    /// Sends one workload query from the vantage; returns the id its hits
    /// will carry.
    std::function<QueryKey(const std::string& text)> send_query;
    /// Starts a download from `source`; returns its request id.
    std::function<std::uint64_t(const Source&)> download;
    /// The source's host: the circuit breaker's key, and the identity that
    /// keeps one alternate per host.
    std::string (*host)(const Source& source) = nullptr;
    /// Content key of downloaded bytes, in the form responses advertise.
    std::string (*content_key)(util::ByteView content) = nullptr;
  };

  /// `network` names the records and trace events ("limewire", ...). Attach
  /// the vantage node before start().
  FetchPipeline(sim::Network& net, QueryWorkload workload,
                std::shared_ptr<const malware::Scanner> scanner, const CrawlConfig& config,
                std::string network, Glue glue)
      : net_(net),
        workload_(std::move(workload)),
        scanner_(std::move(scanner)),
        config_(config),
        network_(std::move(network)),
        glue_(std::move(glue)),
        rng_(config.seed),
        labels_(config.max_download_attempts) {}
  // Scheduled timers hold `this`.
  FetchPipeline(const FetchPipeline&) = delete;
  FetchPipeline& operator=(const FetchPipeline&) = delete;

  /// The crawl's random stream; crawlers seed their nodes from it before
  /// the first query.
  [[nodiscard]] util::Rng& rng() { return rng_; }
  [[nodiscard]] const CrawlConfig& config() const { return config_; }
  /// The node whose timers drive queries, retries and watchdogs.
  void attach(sim::NodeId node) { node_ = node; }

  void set_fault_injector(fault::FaultInjector* injector) { faults_ = injector; }

  /// Begin the query schedule; after `config.duration` no more queries go
  /// out.
  void start() {
    end_time_ = net_.now() + config_.warmup + config_.duration;
    net_.schedule_node(node_, config_.warmup, [this] { issue_next_query(); });
  }

  /// The query a hit answers, or null for a hit to someone else's query.
  /// Counts the hit and its latency.
  const QueryItem* on_hit(const QueryKey& query, sim::SimTime at) {
    auto it = queries_.find(query);
    if (it == queries_.end()) return nullptr;
    ++stats_.hits;
    auto& m = CrawlerMetrics::get();
    m.hits.add(1);
    m.hit_latency_ms.record(at - it->second.at);
    return &it->second.item;
  }

  /// A record for one response to `query`, numbered in arrival order; the
  /// crawler fills in what the response advertised.
  ResponseRecord new_record(const QueryItem& query, sim::SimTime at) {
    ResponseRecord rec;
    rec.id = next_record_id_++;
    rec.network = network_;
    rec.at = at;
    rec.query = query.text;
    rec.query_category = query.category;
    return rec;
  }

  /// Log a response. A study-type response from a `fetchable` source starts
  /// the download of its content if none has started, or else is kept as an
  /// alternate source for a retry.
  void on_response(ResponseRecord rec, const Source& source, bool fetchable = true) {
    auto& m = CrawlerMetrics::get();
    ++stats_.responses;
    m.responses_logged.add(1);
    if (rec.is_study_type()) {
      ++stats_.study_responses;
      m.study_responses.add(1);
      if (fetchable) {
        // A quarantined responder is neither fetched from nor remembered as
        // an alternate (always false with the circuit breaker off).
        std::string host = glue_.host(source);
        bool skip = quarantined(host);
        if (!skip && labels_.want_download(rec.content_key)) {
          start_fetch(source, std::move(host), rec.content_key, /*is_retry=*/false);
        } else if (!skip && !labels_.has(rec.content_key)) {
          // At most five alternates per content, one per host.
          auto& alts = alternates_[rec.content_key];
          bool same_host = std::any_of(alts.begin(), alts.end(),
                                       [&](const Alternate& a) { return a.host == host; });
          if (!same_host && alts.size() < 5) alts.push_back(Alternate{std::move(host), source});
        }
      }
    }
    records_.push_back(std::move(rec));
  }

  /// A download resolved. `Outcome` carries `request_id`, `success` and
  /// `content`.
  template <typename Outcome>
  void on_download(const Outcome& outcome) {
    auto fetch_it = fetches_.find(outcome.request_id);
    if (fetch_it == fetches_.end()) return;  // abandoned by the watchdog
    if (auto st = stalled_.find(outcome.request_id); st != stalled_.end()) {
      // Injected stall: suppress the real outcome; the fetches_ entry stays
      // so the watchdog still resolves (abandons) this fetch.
      stalled_.erase(st);
      return;
    }
    std::string key = std::move(fetch_it->second.key);
    std::string host = std::move(fetch_it->second.host);
    fetches_.erase(fetch_it);

    auto& m = CrawlerMetrics::get();
    if (!outcome.success) {
      ++stats_.downloads_failed;
      m.downloads_failed.add(1);
      trace("download_failed", key);
      labels_.mark_failed(key);
      note_failure(host);
      maybe_retry(key);
      return;
    }
    alternates_.erase(key);
    backoff_level_.erase(key);
    ++stats_.downloads_ok;
    stats_.bytes_downloaded += outcome.content.size();
    m.downloads_ok.add(1);
    m.bytes_downloaded.add(outcome.content.size());
    P2P_TRACE(obs::Component::kCrawler, "download_ok", net_.now(),
              obs::tf("network", network_), obs::tf("key", key),
              obs::tf("bytes", static_cast<std::uint64_t>(outcome.content.size())));
    labels_.mark_succeeded(key);

    // Integrity check, then scan — exactly the paper's pipeline.
    if (glue_.content_key(outcome.content) != key) {
      // Content did not match its advertised hash: a failed fetch. A host
      // serving corrupted bytes counts against its circuit breaker.
      labels_.mark_failed(key);
      if (config_.fetch.active()) {
        note_failure(host);
        maybe_retry(key);
      }
      return;
    }
    note_success(host);
    if (faults_ != nullptr && faults_->scan_times_out()) {
      // Injected scanner timeout: verdict unavailable; retry from another
      // responder as the paper's apparatus would re-queue the content.
      ++stats_.scan_timeouts;
      m.scan_timeouts.add(1);
      trace("scan_timeout", key);
      labels_.mark_failed(key);
      maybe_retry(key);
      return;
    }
    ContentLabel label = scan_content(*scanner_, outcome.content);
    if (label.infected) m.infected_detected.add(1);
    labels_.put(key, std::move(label));
    ++stats_.distinct_contents;
    m.distinct_contents.add(1);
  }

  /// Label every study record. Call once the event loop has drained past
  /// the crawl end.
  void finalize() { label_records(records_, labels_); }

  [[nodiscard]] std::vector<ResponseRecord>& records() { return records_; }
  [[nodiscard]] const std::vector<ResponseRecord>& records() const { return records_; }
  [[nodiscard]] const CrawlStats& stats() const { return stats_; }
  [[nodiscard]] const LabelStore& labels() const { return labels_; }

 private:
  struct Issued {
    QueryItem item;
    sim::SimTime at;
  };
  /// An in-flight fetch: its content key and the host it went to.
  struct Fetch {
    std::string key;
    std::string host;
  };
  struct Alternate {
    std::string host;
    Source source;
  };

  void issue_next_query() {
    OBS_SPAN("crawler.query_cycle");
    if (net_.now() >= end_time_) return;
    const QueryItem& item = workload_.sample(rng_);
    QueryKey query = glue_.send_query(item.text);
    queries_[query] = Issued{item, net_.now()};
    ++stats_.queries_sent;
    CrawlerMetrics::get().queries_sent.add(1);
    P2P_TRACE(obs::Component::kCrawler, "query_issued", net_.now(),
              obs::tf("network", network_), obs::tf("query", item.text));
    net_.schedule_node(node_, config_.query_interval, [this] { issue_next_query(); });
  }

  void start_fetch(const Source& source, std::string host, const std::string& key,
                   bool is_retry) {
    auto& m = CrawlerMetrics::get();
    labels_.mark_pending(key);
    std::uint64_t request = glue_.download(source);
    fetches_[request] = Fetch{key, std::move(host)};
    ++stats_.downloads_started;
    m.downloads_started.add(1);
    if (is_retry) {
      ++stats_.retries_spent;
      m.download_retries.add(1);
      trace("download_retry", key);
    }
    // Injected stall: the transfer's outcome will be suppressed; only the
    // watchdog (if armed) resolves this fetch.
    if (faults_ != nullptr && faults_->download_stalls()) stalled_.insert(request);
    if (config_.fetch.fetch_timeout.count_ms() > 0) {
      net_.schedule_node(node_, config_.fetch.fetch_timeout,
                         [this, request] { on_fetch_timeout(request); });
    }
  }

  void maybe_retry(const std::string& key) {
    if (!labels_.want_download(key)) return;
    if (config_.fetch.retry_backoff.count_ms() <= 0) {
      // Legacy behaviour: retry immediately, inside the failure callback.
      retry_now(key);
      return;
    }
    auto alt_it = alternates_.find(key);
    if (alt_it == alternates_.end() || alt_it->second.empty()) return;
    std::uint32_t level = backoff_level_[key]++;
    std::int64_t ms = config_.fetch.retry_backoff.count_ms()
                      << std::min<std::uint32_t>(level, 16);
    ms = std::min(ms, config_.fetch.retry_backoff_max.count_ms());
    net_.schedule_node(node_, sim::SimDuration::millis(ms),
                       [this, key] { retry_now(key); });
  }

  void retry_now(const std::string& key) {
    // Re-checked at fire time: a concurrent fetch may have resolved the key,
    // and alternates may have been quarantined since scheduling.
    if (!labels_.want_download(key)) return;
    auto alt_it = alternates_.find(key);
    if (alt_it == alternates_.end()) return;
    auto& alts = alt_it->second;
    while (!alts.empty() && quarantined(alts.back().host)) alts.pop_back();
    if (alts.empty()) return;
    Alternate alt = std::move(alts.back());
    alts.pop_back();
    start_fetch(alt.source, std::move(alt.host), key, /*is_retry=*/true);
  }

  void on_fetch_timeout(std::uint64_t request) {
    auto it = fetches_.find(request);
    if (it == fetches_.end()) return;  // outcome already arrived
    std::string key = std::move(it->second.key);
    std::string host = std::move(it->second.host);
    fetches_.erase(it);
    stalled_.erase(request);
    ++stats_.downloads_abandoned;
    CrawlerMetrics::get().downloads_abandoned.add(1);
    trace("download_abandoned", key);
    labels_.mark_failed(key);
    note_failure(host);
    maybe_retry(key);
  }

  [[nodiscard]] bool quarantined(const std::string& host) {
    if (config_.fetch.breaker_threshold == 0) return false;
    auto it = quarantined_until_.find(host);
    if (it == quarantined_until_.end()) return false;
    if (net_.now() >= it->second) {
      quarantined_until_.erase(it);
      return false;
    }
    return true;
  }

  void note_failure(const std::string& host) {
    if (config_.fetch.breaker_threshold == 0) return;
    if (++host_failures_[host] < config_.fetch.breaker_threshold) return;
    host_failures_.erase(host);
    quarantined_until_[host] = net_.now() + config_.fetch.breaker_cooldown;
    ++stats_.hosts_quarantined;
    CrawlerMetrics::get().hosts_quarantined.add(1);
    P2P_TRACE(obs::Component::kCrawler, "host_quarantined", net_.now(),
              obs::tf("network", network_), obs::tf("host", host));
  }

  void note_success(const std::string& host) {
    if (config_.fetch.breaker_threshold == 0) return;
    host_failures_.erase(host);
  }

  void trace([[maybe_unused]] const char* event,
             [[maybe_unused]] const std::string& key) const {
    P2P_TRACE(obs::Component::kCrawler, event, net_.now(), obs::tf("network", network_),
              obs::tf("key", key));
  }

  sim::Network& net_;
  QueryWorkload workload_;
  std::shared_ptr<const malware::Scanner> scanner_;
  CrawlConfig config_;
  std::string network_;
  Glue glue_;
  util::Rng rng_;
  sim::NodeId node_ = sim::kInvalidNode;
  sim::SimTime end_time_;

  std::unordered_map<QueryKey, Issued, QueryHash> queries_;
  std::unordered_map<std::uint64_t, Fetch> fetches_;  // by request id
  /// Requests with an injected stall; their real outcome is suppressed.
  std::unordered_set<std::uint64_t> stalled_;
  /// Alternate sources per content key, for retry after a failed fetch
  /// (the paper's apparatus downloaded from another responder on failure).
  std::unordered_map<std::string, std::vector<Alternate>> alternates_;
  /// Circuit breaker: consecutive failures per host, and hosts quarantined
  /// until a deadline.
  std::unordered_map<std::string, std::size_t> host_failures_;
  std::unordered_map<std::string, sim::SimTime> quarantined_until_;
  /// Backoff exponent per content key (count of scheduled retries so far).
  std::unordered_map<std::string, std::uint32_t> backoff_level_;
  fault::FaultInjector* faults_ = nullptr;
  LabelStore labels_;
  std::vector<ResponseRecord> records_;
  CrawlStats stats_;
  std::uint64_t next_record_id_ = 1;
};

}  // namespace p2p::crawler
