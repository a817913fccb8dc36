#include "crawler/openft_crawler.h"

#include "files/hash.h"
#include "files/transfer.h"

namespace p2p::crawler {

OpenFtCrawler::OpenFtCrawler(sim::Network& net,
                             std::shared_ptr<openft::FtHostCache> host_cache,
                             QueryWorkload workload,
                             std::shared_ptr<const malware::Scanner> scanner,
                             CrawlConfig config)
    : fetch_(net, std::move(workload), std::move(scanner), config, "openft",
             {.send_query = [this](const std::string& text) { return node_->search(text); },
              .download =
                  [this](const openft::SearchResponse& s) { return node_->download(s); },
              .host = [](const openft::SearchResponse& s) { return s.owner.str(); },
              .content_key = [](util::ByteView content) {
                return files::hex(files::md5(content));
              }}) {
  sim::HostProfile profile;
  profile.ip = util::Ipv4(156, 56, 1, 11);
  profile.port = 1216;
  profile.behind_nat = false;
  profile.uplink_bps = 1'000'000;
  profile.downlink_bps = 4'000'000;

  openft::FtConfig cfg;
  cfg.klass = openft::kUser;
  cfg.alias = "p2pmal-crawler";
  cfg.parent_count = 3;

  auto node = std::make_unique<openft::FtNode>(cfg, std::vector<openft::FtShare>{},
                                               std::move(host_cache), fetch_.rng().next());
  node_ = node.get();
  fetch_.attach(net.add_node(std::move(node), profile));

  node_->set_result_callback([this](const openft::FtSearchEvent& e) { on_result(e); });
  node_->set_download_callback(
      [this](const openft::FtDownloadOutcome& o) { fetch_.on_download(o); });
}

void OpenFtCrawler::on_result(const openft::FtSearchEvent& event) {
  const QueryItem* query = fetch_.on_hit(event.search_id, event.at);
  if (query == nullptr) return;
  const auto& entry = event.entry;
  ResponseRecord rec = fetch_.new_record(*query, event.at);
  rec.filename = files::basename_of(entry.path);
  rec.size = entry.size;
  rec.type_by_name = files::classify_extension(rec.filename);
  rec.source_ip = entry.owner.ip;
  rec.source_port = entry.owner.port;
  rec.source_firewalled = entry.owner_firewalled;
  rec.source_key = entry.owner.str();
  rec.content_key = files::hex(entry.md5);
  fetch_.on_response(std::move(rec), entry);
}

}  // namespace p2p::crawler
