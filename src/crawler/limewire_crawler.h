// The instrumented LimeWire client: a leaf servent that replays the query
// workload, logs every response, downloads each distinct advertised content
// once, scans it, and labels the response log (crawler/fetch.h).
#pragma once

#include <memory>
#include <vector>

#include "crawler/fetch.h"
#include "crawler/records.h"
#include "crawler/workload.h"
#include "gnutella/servent.h"
#include "malware/scanner.h"
#include "sim/network.h"

namespace p2p::crawler {

class LimewireCrawler {
 public:
  /// Adds the crawler's leaf servent to the network (public, well-connected
  /// measurement host).
  LimewireCrawler(sim::Network& net, std::shared_ptr<gnutella::HostCache> host_cache,
                  QueryWorkload workload,
                  std::shared_ptr<const malware::Scanner> scanner, CrawlConfig config);

  /// Begin the query schedule. Run the network's event loop to make
  /// progress; after `config.duration` the crawler stops issuing queries.
  void start() { fetch_.start(); }

  /// Apply content labels to all records. Call once the event loop has
  /// drained past the crawl end.
  void finalize() { fetch_.finalize(); }

  /// Install the fault injector driving download stalls and scanner
  /// timeouts (not owned; may be null = no injected crawler faults).
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
  /// A responder and the one result of its hit to fetch.
  struct Source {
    gnutella::QueryHit hit;  // pruned to the fields a download uses
    gnutella::QueryHitResult result;
  };

  void on_hit(const gnutella::HitEvent& event);

  gnutella::Servent* servent_ = nullptr;  // owned by the network
  FetchPipeline<Source, gnutella::Guid, gnutella::GuidHash> fetch_;
};

}  // namespace p2p::crawler
