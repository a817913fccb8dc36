#include "crawler/kad_crawler.h"

#include "files/hash.h"
#include "files/transfer.h"
#include "kad/id.h"
#include "obs/metrics.h"

namespace p2p::crawler {

namespace {

/// Honeypot-side counters, kept apart from the shared `crawler.*` family
/// (they measure what the vantages attract, not what the client fetches).
struct HoneypotMetrics {
  obs::MetricsRegistry& r = obs::MetricsRegistry::global();
  obs::Counter& stores_observed = r.counter("kad.honeypot.stores_observed");
  obs::Counter& queries_observed = r.counter("kad.honeypot.queries_observed");

  static HoneypotMetrics& get() { return obs::bound_metrics<HoneypotMetrics>(); }
};

std::string vantage_network(std::size_t vantage) {
  std::string num = std::to_string(vantage);
  if (num.size() < 2) num.insert(num.begin(), '0');
  return "kad.honeypot/" + num;
}

}  // namespace

KadCrawler::KadCrawler(sim::Network& net,
                       std::shared_ptr<kad::KadHostCache> host_cache,
                       std::shared_ptr<kad::KadHostCache> server_cache,
                       QueryWorkload workload,
                       std::shared_ptr<const malware::Scanner> scanner,
                       CrawlConfig config, KadHoneypotConfig honeypots)
    : honeypot_config_(std::move(honeypots)),
      fetch_(net, std::move(workload), std::move(scanner), config, "kad",
             {.send_query = [this](const std::string& text) { return node_->search(text); },
              .download = [this](const kad::SourceEntry& s) { return node_->download(s); },
              .host = [](const kad::SourceEntry& s) { return s.owner.str(); },
              .content_key = [](util::ByteView content) {
                return files::hex(files::md5(content));
              }}) {
  sim::HostProfile profile;
  profile.ip = util::Ipv4(156, 56, 1, 12);
  profile.port = 4662;
  profile.behind_nat = false;
  profile.uplink_bps = 1'000'000;
  profile.downlink_bps = 4'000'000;

  kad::KadConfig cfg;
  cfg.alias = "p2pmal-crawler";

  auto node = std::make_unique<kad::KadNode>(cfg, std::vector<kad::KadShare>{},
                                             host_cache, fetch_.rng().next(), server_cache);
  node_ = node.get();
  fetch_.attach(net.add_node(std::move(node), profile));

  node_->set_result_callback([this](const kad::KadSearchEvent& e) { on_result(e); });
  node_->set_download_callback(
      [this](const kad::KadDownloadOutcome& o) { fetch_.on_download(o); });

  add_vantages(net, host_cache);
}

void KadCrawler::add_vantages(sim::Network& net,
                              const std::shared_ptr<kad::KadHostCache>& host_cache) {
  vantage_records_.resize(honeypot_config_.vantages);
  for (std::size_t v = 0; v < honeypot_config_.vantages; ++v) {
    sim::HostProfile profile;
    profile.ip = util::Ipv4(156, 56, 2, static_cast<std::uint8_t>(10 + v));
    profile.port = 4662;
    profile.behind_nat = false;
    profile.uplink_bps = 256'000;
    profile.downlink_bps = 1'000'000;

    kad::KadConfig cfg;
    cfg.alias = "p2pmal-honeypot-" + std::to_string(v);

    // A vantage is a plain KadNode advertising bait: it bootstraps, joins
    // the routing overlay, and republishes the bait titles like any peer.
    // It never searches or downloads — it only logs what arrives.
    auto node = std::make_unique<kad::KadNode>(cfg, honeypot_config_.bait,
                                               host_cache, fetch_.rng().next());
    kad::KadNode* raw = node.get();
    net.add_node(std::move(node), profile);
    raw->set_observe_callback(
        [this, v](const kad::KadObservation& obs) { on_observation(v, obs); });
    // Make the vantage discoverable: bootstrap samples draw from the same
    // host cache the population uses.
    host_cache->add(util::Endpoint{profile.ip, profile.port});
  }
}

void KadCrawler::on_observation(std::size_t vantage, const kad::KadObservation& obs) {
  auto& m = HoneypotMetrics::get();
  ResponseRecord rec;
  rec.network = vantage_network(vantage);
  rec.at = obs.at;
  rec.query = kad::to_hex(obs.keyword);
  rec.query_category = "honeypot";
  rec.source_ip = obs.peer.ip;
  rec.source_port = obs.peer.port;
  rec.source_key = obs.peer.str();
  rec.source_firewalled = obs.peer_firewalled;
  if (obs.kind == kad::KadObservation::Kind::kStore) {
    rec.filename = files::basename_of(obs.filename);
    rec.size = obs.size;
    rec.type_by_name = files::classify_extension(rec.filename);
    rec.content_key = files::hex(obs.md5);
    // Ground truth labels the observation: a vantage cannot download from
    // the peers it observes, but a published md5 matching a known
    // malicious artifact identifies the strain (the digest-list check real
    // scanners run). Honest shares from infected peers stay unlabeled —
    // only the malicious publishes count.
    auto it = honeypot_config_.malicious_digests.find(rec.content_key);
    if (it != honeypot_config_.malicious_digests.end()) {
      rec.infected = true;
      rec.strain = it->second.first;
      rec.strain_name = it->second.second;
    }
    m.stores_observed.add(1);
  } else {
    m.queries_observed.add(1);
  }
  vantage_records_[vantage].push_back(std::move(rec));
}

void KadCrawler::on_result(const kad::KadSearchEvent& event) {
  const QueryItem* query = fetch_.on_hit(event.search_id, event.at);
  if (query == nullptr) return;
  const auto& entry = event.entry;
  ResponseRecord rec = fetch_.new_record(*query, event.at);
  rec.filename = files::basename_of(entry.filename);
  rec.size = entry.size;
  rec.type_by_name = files::classify_extension(rec.filename);
  rec.source_ip = entry.owner.ip;
  rec.source_port = entry.owner.port;
  rec.source_firewalled = entry.firewalled;
  rec.source_key = entry.owner.str();
  rec.content_key = files::hex(entry.md5);
  // Firewalled owners are logged but never fetched (no push route on KAD);
  // the same content usually surfaces from a reachable replica anyway.
  fetch_.on_response(std::move(rec), entry, /*fetchable=*/!entry.firewalled);
}

void KadCrawler::finalize() {
  fetch_.finalize();
  std::vector<std::vector<ResponseRecord>> logs;
  logs.reserve(1 + vantage_records_.size());
  logs.push_back(std::move(fetch_.records()));
  for (auto& vantage : vantage_records_) logs.push_back(std::move(vantage));
  fetch_.records() = merge_logs(std::move(logs));
}

}  // namespace p2p::crawler
