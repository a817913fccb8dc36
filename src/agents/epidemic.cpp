#include "agents/epidemic.h"

#include <algorithm>

#include "agents/population.h"
#include "malware/catalogs.h"
#include "util/strings.h"

namespace p2p::agents {

// ---------------------------------------------------------------------------
// SwitchableAnswerer
// ---------------------------------------------------------------------------

SwitchableAnswerer::SwitchableAnswerer(
    std::shared_ptr<const malware::ArtifactStore> artifacts, malware::StrainId strain,
    gnutella::SharedFileIndex honest, std::uint64_t seed)
    : artifacts_(std::move(artifacts)),
      strain_(strain),
      honest_(std::move(honest)),
      rng_(seed) {}

std::vector<gnutella::QueryHitResult> SwitchableAnswerer::answer(
    const std::string& criteria) {
  std::vector<gnutella::QueryHitResult> out;
  for (const auto& m : honest_.match(criteria)) {
    gnutella::QueryHitResult r;
    r.index = m.index;
    r.size = static_cast<std::uint32_t>(m.file->size());
    r.filename = m.file->name();
    r.sha1 = m.file->sha1();
    out.push_back(std::move(r));
  }
  if (infected_) {
    auto artifact = artifacts_->pick(strain_, rng_);
    std::uint32_t index = next_dynamic_++;
    dynamic_[index] = artifact;
    if (dynamic_.size() > 20'000) {
      dynamic_.clear();
      dynamic_[index] = artifact;
    }
    gnutella::QueryHitResult r;
    r.index = index;
    r.size = static_cast<std::uint32_t>(artifact->size());
    r.filename = echo_filename(criteria, artifact->name());
    r.sha1 = artifact->sha1();
    out.push_back(std::move(r));
  }
  return out;
}

std::shared_ptr<const files::FileContent> SwitchableAnswerer::resolve(
    std::uint32_t index) {
  if (index >= kDynamicBase) {
    auto it = dynamic_.find(index);
    return it == dynamic_.end() ? nullptr : it->second;
  }
  return honest_.get(index);
}

void SwitchableAnswerer::populate_qrt(gnutella::QueryRouteTable& qrt) const {
  if (infected_) {
    qrt.fill_all();
  } else {
    qrt = honest_.build_qrt(qrt.table_bits());
  }
}

// ---------------------------------------------------------------------------
// EpidemicPeer
// ---------------------------------------------------------------------------

EpidemicPeer::EpidemicPeer(gnutella::ServentConfig config,
                           std::shared_ptr<SwitchableAnswerer> answerer,
                           std::shared_ptr<gnutella::HostCache> host_cache,
                           std::shared_ptr<const files::ContentCatalog> catalog,
                           std::shared_ptr<const malware::Scanner> scanner,
                           Behavior behavior, std::uint64_t seed)
    : gnutella::Servent(config, answerer, std::move(host_cache), seed),
      answerer_(std::move(answerer)),
      catalog_(std::move(catalog)),
      scanner_(std::move(scanner)),
      behavior_(std::move(behavior)),
      behavior_rng_(seed ^ 0xe91d) {
  set_hit_callback([this](const gnutella::HitEvent& e) { on_hit(e); });
  set_download_callback([this](const gnutella::DownloadOutcome& o) { on_download(o); });
}

void EpidemicPeer::start() {
  gnutella::Servent::start();
  auto first = sim::SimDuration::millis(static_cast<std::int64_t>(
      1000.0 * behavior_rng_.exponential(behavior_.mean_query_interval.as_seconds())));
  network().schedule_node(id(), first, [this] { behavior_loop(); });
}

void EpidemicPeer::behavior_loop() {
  std::size_t rank = catalog_->sample(behavior_rng_);
  gnutella::Guid guid = send_query(catalog_->entry(rank).query);
  undecided_queries_.insert(guid);
  if (undecided_queries_.size() > 100) undecided_queries_.clear();
  auto next = sim::SimDuration::millis(static_cast<std::int64_t>(
      1000.0 * behavior_rng_.exponential(behavior_.mean_query_interval.as_seconds())));
  network().schedule_node(id(), next, [this] { behavior_loop(); });
}

void EpidemicPeer::on_hit(const gnutella::HitEvent& event) {
  if (!undecided_queries_.contains(event.query_guid)) return;
  for (const auto& result : event.hit.results) {
    if (!files::is_study_type(files::classify_extension(result.filename))) continue;
    if (!behavior_rng_.chance(behavior_.download_prob)) continue;
    undecided_queries_.erase(event.query_guid);
    // The deployed defense intercepts here, before any bytes move.
    if (std::find(behavior_.blocked_sizes.begin(), behavior_.blocked_sizes.end(),
                  result.size) != behavior_.blocked_sizes.end()) {
      ++downloads_blocked_;
      return;
    }
    download(event.hit, result);
    return;
  }
}

void EpidemicPeer::on_download(const gnutella::DownloadOutcome& outcome) {
  if (!outcome.success || answerer_->infected()) return;
  auto scan = scanner_->scan(outcome.content);
  if (!scan.infected()) return;
  if (behavior_rng_.chance(behavior_.execute_prob)) become_infected();
}

void EpidemicPeer::become_infected() {
  ++infections_executed_;
  answerer_->infect();
  // The worm wants to see every query from now on.
  refresh_qrt();
}

// ---------------------------------------------------------------------------
// EpidemicSimulation
// ---------------------------------------------------------------------------

EpidemicSimulation::EpidemicSimulation(Config config)
    : config_(std::move(config)),
      net_(config_.seed),
      cache_(std::make_shared<gnutella::HostCache>()) {
  util::Rng rng(config_.seed);
  IpAllocator ips(rng.next());

  files::CorpusConfig corpus = config_.corpus;
  if (corpus.seed == 1) corpus.seed = config_.seed ^ 0xe91;
  auto catalog = std::make_shared<files::ContentCatalog>(corpus);

  auto strain_catalog = malware::limewire_catalog();
  auto artifacts = std::make_shared<malware::ArtifactStore>(strain_catalog.strains,
                                                            config_.seed ^ 0x3e7);
  auto scanner = std::make_shared<malware::Scanner>(strain_catalog.strains);

  EpidemicPeer::Behavior behavior = config_.behavior;
  if (config_.deploy_size_filter) {
    // The operator knows the worm's variant sizes from a prior study.
    behavior.blocked_sizes.clear();
    for (const auto& artifact : artifacts->artifacts(config_.strain)) {
      behavior.blocked_sizes.push_back(artifact->size());
    }
  }

  // Ultrapeers.
  for (std::size_t i = 0; i < config_.ultrapeers; ++i) {
    gnutella::ServentConfig cfg;
    cfg.ultrapeer = true;
    auto answerer =
        std::make_shared<gnutella::IndexAnswerer>(gnutella::SharedFileIndex{});
    auto up = std::make_unique<gnutella::Servent>(cfg, answerer, cache_, rng.next());
    sim::HostProfile profile;
    profile.ip = ips.next_public();
    profile.port = 6346;
    profile.uplink_bps = 250'000;
    profile.downlink_bps = 1'000'000;
    net_.add_node(std::move(up), profile);
    cache_->add({profile.ip, profile.port});
  }

  // Users: everyone susceptible, a seed set already infected.
  for (std::size_t i = 0; i < config_.users; ++i) {
    gnutella::SharedFileIndex index;
    for (int s = 0; s < 12; ++s) index.add(catalog->content(catalog->sample(rng)));
    auto answerer = std::make_shared<SwitchableAnswerer>(
        artifacts, config_.strain, std::move(index), rng.next());
    if (i < config_.initial_infected) answerer->infect();

    gnutella::ServentConfig cfg;
    auto peer = std::make_unique<EpidemicPeer>(cfg, answerer, cache_, catalog,
                                               scanner, behavior, rng.next());
    peers_.push_back(peer.get());
    sim::HostProfile profile;
    profile.ip = ips.next_public();
    profile.port = static_cast<std::uint16_t>(rng.range(1025, 65000));
    profile.uplink_bps = rng.uniform(24'000, 96'000);
    profile.downlink_bps = rng.uniform(80'000, 400'000);
    net_.add_node(std::move(peer), profile);
  }
}

std::size_t EpidemicSimulation::infected_count() const {
  return static_cast<std::size_t>(std::count_if(
      peers_.begin(), peers_.end(), [](EpidemicPeer* p) { return p->infected(); }));
}

std::uint64_t EpidemicSimulation::total_downloads_blocked() const {
  std::uint64_t n = 0;
  for (auto* p : peers_) n += p->downloads_blocked();
  return n;
}

void EpidemicSimulation::sample() {
  curve_.push_back(Sample{net_.now(), infected_count()});
}

void EpidemicSimulation::run() {
  sim::SimTime end = sim::SimTime::zero() + config_.duration;
  sample();
  for (sim::SimTime t = sim::SimTime::zero() + config_.sample_interval; t <= end;
       t = t + config_.sample_interval) {
    net_.engine().run_until(t);
    sample();
  }
}

}  // namespace p2p::agents
