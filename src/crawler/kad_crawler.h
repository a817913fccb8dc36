// The instrumented KAD measurement rig: one active client vantage plus N
// passive honeypot vantage points.
//
// The active client replays the query workload over DHT keyword lookups
// (with index-server fallback), logs every source entry as a
// ResponseRecord, downloads each distinct content (by MD5) once, scans,
// and labels — the E1-style fetch pipeline the LimeWire and OpenFT
// crawlers run too (crawler/fetch.h), resilience policy included.
//
// The honeypot vantages reproduce the distributed-honeypot methodology
// (arXiv:0904.3215): passive KadNodes that advertise bait content (the
// most popular catalog titles) and log every STORE and FIND_VALUE they
// attract. Each observation becomes a ResponseRecord on network
// "kad.honeypot/NN", labeled as it is logged against the population's
// ground-truth infection map — the raw material for the E9/E10 coverage
// and bias analysis (core::kad_coverage). finalize() merges the active log
// and the vantage logs into one (crawler::merge_logs: time order, ties to
// the active log and then vantages 0..N-1, ids 1..N); the study streams
// that log into its RecordSink, so `--record`/`--replay` round-trips the
// whole measurement byte-identically.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "crawler/fetch.h"
#include "crawler/records.h"
#include "crawler/workload.h"
#include "kad/node.h"
#include "malware/scanner.h"
#include "sim/network.h"

namespace p2p::crawler {

/// Honeypot measurement-mode settings.
struct KadHoneypotConfig {
  /// Passive vantage points deployed alongside the active client.
  std::size_t vantages = 16;
  /// Bait shares advertised by every vantage (popular catalog titles).
  std::vector<kad::KadShare> bait;
  /// Ground truth from the population: hex md5 of every malicious artifact
  /// the infected users publish -> (strain id, strain name). A honeypot
  /// observation is labeled infected only when the STORE's digest matches —
  /// an infected peer's honest shares do not give it away, so coverage
  /// measures how often the malicious publishes themselves reach a vantage.
  /// Flat-hash: lookup-only (labeling never iterates this table).
  std::unordered_map<std::string, std::pair<malware::StrainId, std::string>>
      malicious_digests;
};

class KadCrawler {
 public:
  KadCrawler(sim::Network& net, std::shared_ptr<kad::KadHostCache> host_cache,
             std::shared_ptr<kad::KadHostCache> server_cache,
             QueryWorkload workload,
             std::shared_ptr<const malware::Scanner> scanner, CrawlConfig config,
             KadHoneypotConfig honeypots);

  void start() { fetch_.start(); }
  /// Apply content labels to the active records and merge them with the
  /// honeypot observations into one time-ordered log, numbered 1..N.
  void finalize();

  void set_fault_injector(fault::FaultInjector* injector) {
    fetch_.set_fault_injector(injector);
  }

  [[nodiscard]] const std::vector<ResponseRecord>& records() const {
    return fetch_.records();
  }
  [[nodiscard]] std::vector<ResponseRecord>&& take_records() {
    return std::move(fetch_.records());
  }
  [[nodiscard]] const CrawlStats& stats() const { return fetch_.stats(); }

 private:
  void add_vantages(sim::Network& net,
                    const std::shared_ptr<kad::KadHostCache>& host_cache);
  void on_observation(std::size_t vantage, const kad::KadObservation& obs);
  void on_result(const kad::KadSearchEvent& event);

  KadHoneypotConfig honeypot_config_;
  kad::KadNode* node_ = nullptr;  // owned by the network
  FetchPipeline<kad::SourceEntry> fetch_;
  /// Observation log of each honeypot vantage (nodes owned by the network).
  std::vector<std::vector<ResponseRecord>> vantage_records_;
};

}  // namespace p2p::crawler
