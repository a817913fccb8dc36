#include "crawler/limewire_crawler.h"

#include "files/hash.h"
#include "util/bytes.h"

namespace p2p::crawler {

LimewireCrawler::LimewireCrawler(sim::Network& net,
                                 std::shared_ptr<gnutella::HostCache> host_cache,
                                 QueryWorkload workload,
                                 std::shared_ptr<const malware::Scanner> scanner,
                                 CrawlConfig config)
    : fetch_(net, std::move(workload), std::move(scanner), config, "limewire",
             {.send_query =
                  [this](const std::string& text) {
                    const CrawlConfig& c = fetch_.config();
                    return c.dynamic_querying
                               ? servent_->send_query_dynamic(text, c.dynamic_target_results,
                                                              c.dynamic_probe_interval)
                               : servent_->send_query(text);
                  },
              .download =
                  [this](const Source& s) { return servent_->download(s.hit, s.result); },
              // The breaker keys on the advertised address alone.
              .host = [](const Source& s) { return s.hit.addr.str(); },
              .content_key = [](util::ByteView content) {
                return util::to_hex(files::sha1(content));
              }}) {
  // The measurement host: public university address, generous bandwidth,
  // shares nothing (pure observer, as the paper's instrumented client).
  sim::HostProfile profile;
  profile.ip = config.vantage_ip;
  profile.port = 6346;
  profile.behind_nat = false;
  profile.uplink_bps = 1'000'000;
  profile.downlink_bps = 4'000'000;

  gnutella::ServentConfig servent_cfg;
  servent_cfg.ultrapeer = false;
  servent_cfg.leaf_up_count = 4;  // a few extra vantage points
  servent_cfg.query_ttl = config.query_ttl;

  auto answerer = std::make_shared<gnutella::IndexAnswerer>(gnutella::SharedFileIndex{});
  auto servent = std::make_unique<gnutella::Servent>(
      servent_cfg, answerer, std::move(host_cache), fetch_.rng().next());
  servent_ = servent.get();
  fetch_.attach(net.add_node(std::move(servent), profile));

  servent_->set_hit_callback([this](const gnutella::HitEvent& e) { on_hit(e); });
  servent_->set_download_callback(
      [this](const gnutella::DownloadOutcome& o) { fetch_.on_download(o); });
}

void LimewireCrawler::on_hit(const gnutella::HitEvent& event) {
  const QueryItem* query = fetch_.on_hit(event.query_guid, event.at);
  if (query == nullptr) return;
  Source source;
  source.hit.addr = event.hit.addr;
  source.hit.needs_push = event.hit.needs_push;
  source.hit.servent_guid = event.hit.servent_guid;
  for (const auto& result : event.hit.results) {
    ResponseRecord rec = fetch_.new_record(*query, event.at);
    rec.filename = result.filename;
    rec.size = result.size;
    rec.type_by_name = files::classify_extension(result.filename);
    rec.source_ip = event.hit.addr.ip;
    rec.source_port = event.hit.addr.port;
    rec.source_firewalled = event.hit.needs_push;
    rec.source_key = event.hit.addr.str() + "/" +
                     event.hit.servent_guid.hex().substr(0, 8);
    rec.content_key = util::to_hex(result.sha1);
    source.result = result;
    fetch_.on_response(std::move(rec), source);
  }
}

}  // namespace p2p::crawler
