#include "agents/population.h"

#include <algorithm>
#include <unordered_set>

#include "agents/behavior.h"
#include "files/hash.h"
#include "util/strings.h"

namespace p2p::agents {

// ---------------------------------------------------------------------------
// IpAllocator
// ---------------------------------------------------------------------------

util::Ipv4 IpAllocator::next_public() {
  for (;;) {
    auto candidate = static_cast<std::uint32_t>(rng_.next());
    util::Ipv4 ip{candidate};
    if (!ip.is_publicly_routable()) continue;
    if (std::find(used_.begin(), used_.end(), candidate) != used_.end()) continue;
    used_.push_back(candidate);
    return ip;
  }
}

util::Ipv4 IpAllocator::random_private() {
  double pick = rng_.uniform01();
  if (pick < 0.70) {
    // 192.168.{0,1}.x — the typical home router default.
    return util::Ipv4(192, 168, static_cast<std::uint8_t>(rng_.range(0, 1)),
                      static_cast<std::uint8_t>(rng_.range(2, 254)));
  }
  if (pick < 0.90) {
    return util::Ipv4(10, static_cast<std::uint8_t>(rng_.range(0, 255)),
                      static_cast<std::uint8_t>(rng_.range(0, 255)),
                      static_cast<std::uint8_t>(rng_.range(2, 254)));
  }
  return util::Ipv4(172, static_cast<std::uint8_t>(rng_.range(16, 31)),
                    static_cast<std::uint8_t>(rng_.range(0, 255)),
                    static_cast<std::uint8_t>(rng_.range(2, 254)));
}

std::vector<std::string> lure_queries_for(const malware::CalibratedCatalog& catalog) {
  std::vector<std::string> out;
  for (const auto& strain : catalog.strains) {
    for (const auto& lure : strain.lure_names) {
      auto tokens = util::keywords(lure);
      if (!tokens.empty()) out.push_back(util::join(tokens, " "));
    }
  }
  return out;
}

namespace {

/// Draw `count` distinct catalog works by popularity.
std::vector<std::size_t> sample_works(const files::ContentCatalog& catalog,
                                      util::Rng& rng, std::size_t count) {
  std::unordered_set<std::size_t> seen;
  std::vector<std::size_t> out;
  std::size_t attempts = 0;
  while (out.size() < count && attempts < count * 20) {
    ++attempts;
    std::size_t idx = catalog.sample(rng);
    if (seen.insert(idx).second) out.push_back(idx);
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Gnutella population
// ---------------------------------------------------------------------------

GnutellaPopulation build_gnutella_population(sim::Network& net,
                                             const GnutellaPopulationConfig& config) {
  GnutellaPopulation pop;
  util::Rng rng(config.seed);
  IpAllocator ips(rng.next());

  files::CorpusConfig corpus = config.corpus;
  if (corpus.seed == 1) corpus.seed = config.seed ^ 0xc0117u;
  pop.catalog = std::make_shared<files::ContentCatalog>(corpus);
  pop.strain_catalog = malware::limewire_catalog();
  if (config.polymorphic_jitter > 0) {
    for (auto& strain : pop.strain_catalog.strains) {
      if (strain.naming == malware::NamingHabit::kQueryEcho) {
        strain.size_jitter = config.polymorphic_jitter;
      }
    }
  }
  pop.artifacts = std::make_shared<malware::ArtifactStore>(pop.strain_catalog.strains,
                                                           config.seed ^ 0xa57u);
  pop.host_cache = std::make_shared<gnutella::HostCache>();
  pop.lure_queries = lure_queries_for(pop.strain_catalog);

  // One keyword interner for the whole population: every distinct shared
  // name is tokenized once, and all indexes match queries against the same
  // token-id universe.
  auto interner = std::make_shared<gnutella::TokenInterner>();

  // -- Ultrapeers: stable, public, well-provisioned. -------------------------
  gnutella::ServentConfig up_cfg = config.ultrapeer_config;
  up_cfg.ultrapeer = true;
  for (std::size_t i = 0; i < config.ultrapeers; ++i) {
    sim::HostProfile profile;
    profile.ip = ips.next_public();
    profile.port = 6346;
    profile.behind_nat = false;
    profile.uplink_bps = 250'000;
    profile.downlink_bps = 1'000'000;

    gnutella::SharedFileIndex index(interner);
    for (std::size_t w : sample_works(*pop.catalog, rng, 10 + rng.index(30))) {
      index.add(pop.catalog->content(w));
    }
    auto answerer = std::make_shared<gnutella::IndexAnswerer>(std::move(index));
    auto servent = std::make_unique<gnutella::Servent>(up_cfg, answerer, pop.host_cache,
                                                       rng.next());
    sim::NodeId id = net.add_node(std::move(servent), profile);
    pop.ultrapeer_ids.push_back(id);
    pop.host_cache->add(util::Endpoint{profile.ip, profile.port});
  }

  // -- Leaves -----------------------------------------------------------------
  util::DiscreteSampler strain_sampler(pop.strain_catalog.infection_weights);
  gnutella::ServentConfig leaf_cfg = config.leaf_config;
  leaf_cfg.ultrapeer = false;

  for (std::size_t i = 0; i < config.leaves; ++i) {
    PeerSpec spec;
    spec.infected = rng.chance(config.infected_fraction);
    double nat_p =
        spec.infected ? config.nat_fraction_infected : config.nat_fraction_clean;
    bool behind_nat = rng.chance(nat_p);
    bool advertises_private =
        behind_nat && rng.chance(config.private_advertise_given_nat);

    spec.profile.behind_nat = behind_nat;
    spec.profile.ip = advertises_private ? ips.random_private() : ips.next_public();
    spec.profile.port = static_cast<std::uint16_t>(rng.range(1025, 65000));
    spec.profile.uplink_bps = rng.uniform(24'000, 96'000);
    spec.profile.downlink_bps = rng.uniform(80'000, 400'000);

    // Honest shares, popularity-weighted.
    std::size_t share_count = config.shares_min +
        rng.index(config.shares_max - config.shares_min + 1);
    gnutella::SharedFileIndex index(interner);
    for (std::size_t w : sample_works(*pop.catalog, rng, share_count)) {
      index.add(pop.catalog->content(w));
    }

    std::vector<malware::StrainId> echo_strains;
    if (spec.infected) {
      spec.strain = pop.strain_catalog.strains[strain_sampler.sample(rng)].id;
      const auto& strain = pop.artifacts->strain(spec.strain);
      if (strain.naming == malware::NamingHabit::kQueryEcho) {
        echo_strains.push_back(spec.strain);
      } else {
        // Fixed-lure strains sit in the share folder like any other file:
        // the lure-named original plus a folder of trojanized copies named
        // after popular works ("<query> keygen.exe"), each an alias that
        // shares its artifact's bytes and digests.
        util::Rng pick_rng(rng.next());
        index.add(pop.artifacts->pick(spec.strain, pick_rng));
        std::size_t aliases = config.trojan_aliases_min +
            rng.index(config.trojan_aliases_max - config.trojan_aliases_min + 1);
        std::size_t popular = std::min<std::size_t>(150, pop.catalog->size());
        for (std::size_t a = 0; a < aliases; ++a) {
          auto artifact = pop.artifacts->pick(spec.strain, pick_rng);
          const auto& work = pop.catalog->entry(rng.index(popular));
          std::string ext = util::extension(artifact->name());
          std::string alias = work.query + (pick_rng.chance(0.5) ? " keygen." : " crack.") +
                              (ext.empty() ? "exe" : ext);
          index.add(std::make_shared<files::FileContent>(alias, *artifact));
        }
      }
    }

    auto artifacts = pop.artifacts;
    auto host_cache = pop.host_cache;
    auto catalog = pop.catalog;
    sim::SimDuration organic = config.organic_query_interval;
    std::uint64_t peer_seed = rng.next();
    spec.make = [leaf_cfg, artifacts, host_cache, catalog, organic, index,
                 echo_strains, peer_seed,
                 incarnation = std::make_shared<std::uint64_t>(0)]() mutable
        -> std::unique_ptr<sim::Node> {
      std::uint64_t session_seed = peer_seed ^ (0x9e3779b97f4a7c15ULL * (*incarnation)++);
      std::shared_ptr<gnutella::QueryAnswerer> answerer;
      if (echo_strains.empty()) {
        answerer = std::make_shared<gnutella::IndexAnswerer>(index);
      } else {
        answerer = std::make_shared<InfectedAnswerer>(artifacts, echo_strains, index,
                                                      session_seed ^ 0x1f);
      }
      if (organic.count_ms() > 0) {
        return std::make_unique<QueryingServent>(leaf_cfg, std::move(answerer),
                                                 host_cache, catalog, organic,
                                                 session_seed);
      }
      return std::make_unique<gnutella::Servent>(leaf_cfg, std::move(answerer),
                                                 host_cache, session_seed);
    };
    pop.leaf_specs.push_back(std::move(spec));
  }
  return pop;
}

// ---------------------------------------------------------------------------
// OpenFT population
// ---------------------------------------------------------------------------

OpenFtPopulation build_openft_population(sim::Network& net,
                                         const OpenFtPopulationConfig& config) {
  OpenFtPopulation pop;
  util::Rng rng(config.seed);
  IpAllocator ips(rng.next());

  files::CorpusConfig corpus = config.corpus;
  if (corpus.seed == 1) corpus.seed = config.seed ^ 0x0f7c0u;
  pop.catalog = std::make_shared<files::ContentCatalog>(corpus);
  pop.strain_catalog = malware::openft_catalog();
  pop.artifacts = std::make_shared<malware::ArtifactStore>(pop.strain_catalog.strains,
                                                           config.seed ^ 0xb61u);
  pop.host_cache = std::make_shared<openft::FtHostCache>();
  pop.index_cache = std::make_shared<openft::FtHostCache>();
  pop.lure_queries = lure_queries_for(pop.strain_catalog);

  auto shares_for = [&](util::Rng& r, std::size_t count) {
    std::vector<openft::FtShare> shares;
    for (std::size_t w : sample_works(*pop.catalog, r, count)) {
      auto content = pop.catalog->content(w);
      shares.push_back(openft::FtShare{content, "/shared/" + content->name()});
    }
    return shares;
  };

  // -- Index nodes ---------------------------------------------------------
  for (std::size_t i = 0; i < config.index_nodes; ++i) {
    sim::HostProfile profile;
    profile.ip = ips.next_public();
    profile.port = 1215;
    profile.behind_nat = false;
    profile.uplink_bps = 250'000;
    profile.downlink_bps = 1'000'000;

    openft::FtConfig cfg;
    cfg.klass = openft::kIndex;
    cfg.alias = "index" + std::to_string(i);
    auto node = std::make_unique<openft::FtNode>(cfg, std::vector<openft::FtShare>{},
                                                 pop.host_cache, rng.next());
    sim::NodeId id = net.add_node(std::move(node), profile);
    pop.index_node_ids.push_back(id);
    pop.index_cache->add(util::Endpoint{profile.ip, profile.port});
  }

  // -- Search nodes ------------------------------------------------------------
  openft::FtConfig search_cfg = config.search_config;
  search_cfg.klass = openft::kSearch | openft::kUser;
  for (std::size_t i = 0; i < config.search_nodes; ++i) {
    sim::HostProfile profile;
    profile.ip = ips.next_public();
    profile.port = 1216;  // OpenFT default
    profile.behind_nat = false;
    profile.uplink_bps = 250'000;
    profile.downlink_bps = 1'000'000;

    openft::FtConfig cfg = search_cfg;
    cfg.alias = "search" + std::to_string(i);
    auto node = std::make_unique<openft::FtNode>(cfg, shares_for(rng, 8 + rng.index(20)),
                                                 pop.host_cache, rng.next(),
                                                 pop.index_cache);
    sim::NodeId id = net.add_node(std::move(node), profile);
    pop.search_node_ids.push_back(id);
    pop.host_cache->add(util::Endpoint{profile.ip, profile.port});
  }

  // -- Users -------------------------------------------------------------------
  // Non-superspreader infections rotate through the tail strains so each
  // rare strain ends up on a comparable number of hosts — the near-uniform
  // post-head distribution OpenFT shows (top-3 = 75% with a heavy tail).
  std::size_t next_tail_strain = 1;
  openft::FtConfig user_cfg = config.user_config;
  user_cfg.klass = openft::kUser;

  std::size_t superspreader_at =
      config.enable_superspreader && config.users > 0 ? rng.index(config.users)
                                                      : static_cast<std::size_t>(-1);

  for (std::size_t i = 0; i < config.users; ++i) {
    PeerSpec spec;
    bool is_superspreader = (i == superspreader_at);
    spec.infected = is_superspreader || rng.chance(config.infected_fraction);
    bool behind_nat = !is_superspreader && rng.chance(config.nat_fraction);

    spec.profile.behind_nat = behind_nat;
    spec.profile.ip = behind_nat && rng.chance(0.5) ? ips.random_private()
                                                    : ips.next_public();
    spec.profile.port = static_cast<std::uint16_t>(rng.range(1025, 65000));
    spec.profile.uplink_bps =
        is_superspreader ? 200'000 : rng.uniform(24'000, 96'000);
    spec.profile.downlink_bps = rng.uniform(80'000, 400'000);

    std::size_t share_count = config.shares_min +
        rng.index(config.shares_max - config.shares_min + 1);
    std::vector<openft::FtShare> shares = shares_for(rng, share_count);

    if (spec.infected) {
      util::Rng pick_rng(rng.next());
      if (is_superspreader) {
        spec.strain = pop.strain_catalog.strains.front().id;
        pop.superspreader_index = i;
        // One artifact registered under many popular-keyword paths: every
        // popular query matches some path, and every such response points
        // at this single host.
        auto artifact = pop.artifacts->pick(spec.strain, pick_rng);
        std::size_t paths = std::min(config.superspreader_paths, pop.catalog->size());
        std::size_t stride = std::max<std::size_t>(1, config.superspreader_rank_stride);
        for (std::size_t p = 0; p < paths; ++p) {
          std::size_t rank =
              (config.superspreader_rank_offset + p * stride) % pop.catalog->size();
          const auto& entry = pop.catalog->entry(rank);
          shares.push_back(
              openft::FtShare{artifact, "/shared/" + entry.query + ".exe"});
        }
      } else {
        std::size_t n_strains = pop.strain_catalog.strains.size();
        spec.strain = pop.strain_catalog.strains[next_tail_strain].id;
        next_tail_strain = 1 + (next_tail_strain % (n_strains - 1));
        std::size_t paths = config.infected_paths_min +
            rng.index(config.infected_paths_max - config.infected_paths_min + 1);
        const auto& strain = pop.artifacts->strain(spec.strain);
        for (std::size_t p = 0; p < paths; ++p) {
          auto artifact = pop.artifacts->pick(spec.strain, pick_rng);
          std::string name = strain.lure_names.empty()
                                 ? strain.name + ".exe"
                                 : strain.lure_names[p % strain.lure_names.size()];
          if (util::extension(name).empty()) name += ".zip";
          shares.push_back(openft::FtShare{artifact, "/shared/" + name});
        }
      }
    }

    auto host_cache = pop.host_cache;
    std::uint64_t peer_seed = rng.next();
    openft::FtConfig cfg = user_cfg;
    cfg.alias = "user" + std::to_string(i);
    spec.make = [cfg, shares, host_cache, peer_seed,
                 incarnation = std::make_shared<std::uint64_t>(0)]() mutable
        -> std::unique_ptr<sim::Node> {
      std::uint64_t session_seed = peer_seed ^ (0x9e3779b97f4a7c15ULL * (*incarnation)++);
      return std::make_unique<openft::FtNode>(cfg, shares, host_cache, session_seed);
    };
    pop.user_specs.push_back(std::move(spec));
  }
  return pop;
}

// ---------------------------------------------------------------------------
// KAD population
// ---------------------------------------------------------------------------

KadPopulation build_kad_population(sim::Network& net,
                                   const KadPopulationConfig& config) {
  KadPopulation pop;
  util::Rng rng(config.seed);
  IpAllocator ips(rng.next());

  files::CorpusConfig corpus = config.corpus;
  if (corpus.seed == 1) corpus.seed = config.seed ^ 0x6ad00u;
  pop.catalog = std::make_shared<files::ContentCatalog>(corpus);
  pop.strain_catalog = malware::kad_catalog();
  pop.artifacts = std::make_shared<malware::ArtifactStore>(pop.strain_catalog.strains,
                                                           config.seed ^ 0x6adb6u);
  pop.host_cache = std::make_shared<kad::KadHostCache>();
  pop.server_cache = std::make_shared<kad::KadHostCache>();
  pop.lure_queries = lure_queries_for(pop.strain_catalog);

  auto shares_for = [&](util::Rng& r, std::size_t count) {
    std::vector<kad::KadShare> shares;
    for (std::size_t w : sample_works(*pop.catalog, r, count)) {
      auto content = pop.catalog->content(w);
      shares.push_back(kad::KadShare{content, "/shared/" + content->name()});
    }
    return shares;
  };

  // -- Index servers ---------------------------------------------------------
  for (std::size_t i = 0; i < config.servers; ++i) {
    sim::HostProfile profile;
    profile.ip = ips.next_public();
    profile.port = 4661;  // eDonkey server default
    profile.behind_nat = false;
    profile.uplink_bps = 500'000;
    profile.downlink_bps = 2'000'000;

    auto node = std::make_unique<kad::KadIndexServer>("server" + std::to_string(i));
    sim::NodeId id = net.add_node(std::move(node), profile);
    pop.server_ids.push_back(id);
    pop.server_cache->add(util::Endpoint{profile.ip, profile.port});
  }

  // -- Users -----------------------------------------------------------------
  util::DiscreteSampler strain_sampler(pop.strain_catalog.infection_weights);

  for (std::size_t i = 0; i < config.users; ++i) {
    PeerSpec spec;
    spec.infected = rng.chance(config.infected_fraction);
    bool behind_nat = rng.chance(config.nat_fraction);

    spec.profile.behind_nat = behind_nat;
    spec.profile.ip = behind_nat && rng.chance(0.5) ? ips.random_private()
                                                    : ips.next_public();
    spec.profile.port = static_cast<std::uint16_t>(rng.range(1025, 65000));
    spec.profile.uplink_bps = rng.uniform(24'000, 96'000);
    spec.profile.downlink_bps = rng.uniform(80'000, 400'000);

    std::size_t share_count = config.shares_min +
        rng.index(config.shares_max - config.shares_min + 1);
    std::vector<kad::KadShare> shares = shares_for(rng, share_count);

    if (spec.infected) {
      // Index poisoning: publish the strain artifact aliased to popular
      // titles, so the title's keyword hashes index fake (malicious)
      // sources. The strain's own lure name rides along for workloads
      // that query lures directly.
      util::Rng pick_rng(rng.next());
      spec.strain = pop.strain_catalog.strains[strain_sampler.sample(rng)].id;
      const auto& strain = pop.artifacts->strain(spec.strain);
      if (!strain.lure_names.empty()) {
        std::string lure = strain.lure_names[pick_rng.index(strain.lure_names.size())];
        if (util::extension(lure).empty()) lure += ".zip";
        auto artifact = pop.artifacts->pick(spec.strain, pick_rng);
        pop.malicious_digests[files::hex(artifact->md5())] = {spec.strain,
                                                             strain.name};
        shares.push_back(kad::KadShare{artifact, "/shared/" + lure});
      }
      std::size_t paths = config.poison_paths_min +
          rng.index(config.poison_paths_max - config.poison_paths_min + 1);
      std::size_t popular = std::min(config.poison_rank_limit, pop.catalog->size());
      for (std::size_t p = 0; p < paths; ++p) {
        auto artifact = pop.artifacts->pick(spec.strain, pick_rng);
        pop.malicious_digests[files::hex(artifact->md5())] = {spec.strain,
                                                             strain.name};
        const auto& work = pop.catalog->entry(rng.index(popular));
        std::string ext = util::extension(artifact->name());
        std::string alias = work.query + (pick_rng.chance(0.5) ? " keygen." : " crack.") +
                            (ext.empty() ? "exe" : ext);
        shares.push_back(kad::KadShare{artifact, "/shared/" + alias});
      }
      util::Endpoint advertised{spec.profile.ip, spec.profile.port};
      pop.infected_hosts[advertised.str()] = {spec.strain, strain.name};
    }

    auto host_cache = pop.host_cache;
    auto server_cache = pop.server_cache;
    std::uint64_t peer_seed = rng.next();
    kad::KadConfig cfg = config.node_config;
    cfg.alias = "user" + std::to_string(i);
    spec.make = [cfg, shares, host_cache, server_cache, peer_seed,
                 incarnation = std::make_shared<std::uint64_t>(0)]() mutable
        -> std::unique_ptr<sim::Node> {
      std::uint64_t session_seed = peer_seed ^ (0x9e3779b97f4a7c15ULL * (*incarnation)++);
      return std::make_unique<kad::KadNode>(cfg, shares, host_cache, session_seed,
                                            server_cache);
    };
    pop.user_specs.push_back(std::move(spec));
  }
  return pop;
}

}  // namespace p2p::agents
