// The instrumented OpenFT client: a USER node that replays the query
// workload through its SEARCH parents, logs responses, downloads each
// distinct content (by MD5) once, scans, and labels (crawler/fetch.h).
#pragma once

#include <memory>
#include <vector>

#include "crawler/fetch.h"
#include "crawler/records.h"
#include "crawler/workload.h"
#include "malware/scanner.h"
#include "openft/node.h"
#include "sim/network.h"

namespace p2p::crawler {

class OpenFtCrawler {
 public:
  OpenFtCrawler(sim::Network& net, std::shared_ptr<openft::FtHostCache> host_cache,
                QueryWorkload workload,
                std::shared_ptr<const malware::Scanner> scanner, CrawlConfig config);

  void start() { fetch_.start(); }
  /// Apply content labels. Call once the event loop has drained past the
  /// crawl end.
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
  void on_result(const openft::FtSearchEvent& event);

  openft::FtNode* node_ = nullptr;  // owned by the network
  FetchPipeline<openft::SearchResponse> fetch_;
};

}  // namespace p2p::crawler
