#include "core/shard_study.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "agents/population.h"
#include "crawler/records.h"
#include "crawler/workload.h"
#include "files/file_types.h"
#include "malware/catalogs.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/progress.h"
#include "obs/shard_stats.h"
#include "obs/timeseries.h"
#include "sim/peer_table.h"
#include "sim/sharded_engine.h"
#include "util/rng.h"
#include "util/strings.h"

namespace p2p::core {
namespace {

// ---------------------------------------------------------------------------
// Model constants. All are pure functions of nothing — baked into the model,
// not the config — so they can never diverge across shard counts.
// ---------------------------------------------------------------------------

/// Peers per cell entity. Small enough that quick populations split into
/// several cells (so multi-shard runs genuinely exchange cross-shard
/// messages), large enough that a 1M-peer run is ~16k entities.
constexpr std::size_t kCellSize = 64;

/// Conservative lookahead = the model's minimum cross-entity link latency.
/// Matches sim::LatencyModel's 20ms floor.
constexpr std::int64_t kLookaheadMs = 20;

/// Response jitter above the latency floor (the 20..230ms band of
/// sim::Network's default LatencyModel).
constexpr std::int64_t kJitterMs = 210;

/// The crawler's effective overlay horizon: at populations beyond this,
/// each peer sees a query with probability horizon/population (a crawler
/// vantage reaches a bounded neighborhood, not the whole million-peer
/// network). At paper scale (hundreds of peers) every peer is reachable.
constexpr double kVisibleHorizon = 4096.0;

/// Probability an online query-echo worm answers a given reachable query
/// (echo worms are aggressive but not perfectly reliable responders).
constexpr double kEchoAnswerProb = 0.80;

/// Probability a clean peer keeps an exe/archive pick in its share list
/// (per network — see Params::clean_exe_keep). Filesharing-era users shared
/// mostly media; thinning clean executables calibrates the clean half of
/// the study-type response stream (E1).
constexpr double kCleanExeKeepLimewire = 0.54;
constexpr double kCleanExeKeepOpenFt = 0.67;

/// Per-response variant mix: the launch build of a strain serves this
/// fraction of responses early in the crawl, older/other variants split the
/// rest. After kVariantSwitchFrac of the horizon the authors push new
/// builds and the launch variant's share falls to the "late" value — so a
/// blocklist trained on the crawl's first quarter goes stale, which drives
/// the vendor-filter detection rate (E5 builtin).
constexpr double kFreshVariantEarly = 0.85;
constexpr double kFreshVariantLate = 0.20;
constexpr double kVariantSwitchFrac = 0.3;

/// OpenFT super-spreader listing replication: its paths are indexed at 2-3
/// search nodes, so a matching query returns 2 copies plus a third with
/// this probability. Calibrates the top-1 concentration (E2).
constexpr double kSsThirdCopyProb = 0.73;

/// Probability an OpenFT lure user's share is listed at a second search
/// node (duplicate response). Calibrates non-superspreader volume (E1).
constexpr double kOftLureDupProb = 0.13;

/// Alias universe for limewire fixed-lure trojans: their trojanized
/// "<popular work> keygen.exe" aliases cover this many top catalog ranks.
constexpr std::size_t kAliasRanks = 200;

// Stateless hash streams: every per-(peer, query) decision draws from
// h(seed, kTag..., ...), so no decision depends on event interleaving.
enum : std::uint64_t {
  kTagPeer = 0x9e01,
  kTagStrain = 0x9e02,
  kTagVariant = 0x9e03,
  kTagNat = 0x9e04,
  kTagPrivAdv = 0x9e05,
  kTagShares = 0x9e06,
  kTagChurn = 0x9e07,
  kTagReach = 0x9e08,
  kTagLatency = 0x9e09,
  kTagEcho = 0x9e0a,
  kTagAlias = 0x9e0b,
  kTagAliasCount = 0x9e0c,
  kTagLurePath = 0x9e0d,
  kTagContainer = 0x9e0e,
  kTagContent = 0x9e0f,
  kTagHostKey = 0x9e10,
  kTagPoly = 0x9e11,
  kTagFaultLoss = 0x9e12,
  kTagFaultDelay = 0x9e13,
  kTagFaultDup = 0x9e14,
  kTagFaultStall = 0x9e15,
  kTagFaultScan = 0x9e16,
  kTagIp = 0x9e17,
  kTagExeKeep = 0x9e18,
  kTagFresh = 0x9e19,
  kTagSsCopy = 0x9e1a,
  kTagLureDup = 0x9e1b,
};

std::uint64_t h64(std::uint64_t a) {
  std::uint64_t s = a;
  return util::splitmix64(s);
}
std::uint64_t h64(std::uint64_t a, std::uint64_t b) {
  return h64(h64(a) ^ (b * 0x9e3779b97f4a7c15ull));
}
std::uint64_t h64(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  return h64(h64(a, b) ^ (c * 0xbf58476d1ce4e5b9ull));
}
std::uint64_t h64(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                  std::uint64_t d) {
  return h64(h64(a, b, c) ^ (d * 0x94d049bb133111ebull));
}

double u01(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// `chars` lowercase hex digits from a splitmix stream (sha1-style 40 for
/// Gnutella content keys, md5-style 32 for OpenFT).
std::string hex_key(std::uint64_t seed, std::size_t chars) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(chars);
  std::uint64_t state = seed;
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < chars; ++i) {
    if (i % 16 == 0) word = util::splitmix64(state);
    out.push_back(kHex[word & 0xf]);
    word >>= 4;
  }
  return out;
}

std::string category_of(files::FileType t) {
  switch (t) {
    case files::FileType::kAudio: return "music";
    case files::FileType::kVideo: return "movies";
    case files::FileType::kExecutable: return "software";
    case files::FileType::kArchive: return "software";
    case files::FileType::kImage: return "images";
    case files::FileType::kDocument: return "docs";
    default: return "other";
  }
}

/// One query the crawler can issue: a catalog work or a lure search.
struct QueryDef {
  std::string text;
  std::string category;
  double weight = 1.0;
  std::int32_t entry = -1;        // catalog index, or -1 for a lure query
  std::int16_t lure_strain = -1;  // strain the lure query surfaces
  std::uint16_t lure_name = 0;    // index into that strain's lure_names
};

/// Per-shard counter slots (summed deterministically; see obs/shard_stats.h).
enum Slot : std::size_t {
  kSlotQueries,
  kSlotProbes,
  kSlotResponses,
  kSlotStudyResponses,
  kSlotDownloadsOk,
  kSlotDownloadsFailed,
  kSlotInfectedLabeled,
  kSlotBytesDownloaded,
  kSlotMessages,
  kSlotBytesWire,
  kSlotFaultDropped,
  kSlotFaultDelayed,
  kSlotFaultDuplicated,
  kSlotFaultStalled,
  kSlotFaultScanTimeout,
  kSlotCount,
};

constexpr std::array<const char*, kSlotCount> kSlotNames = {
    "shard.queries_sent",      "shard.probes_sent",
    "shard.responses_logged",  "shard.study_responses",
    "shard.downloads_ok",      "shard.downloads_failed",
    "shard.infected_labeled",  "shard.bytes_downloaded",
    "shard.messages",          "shard.bytes_wire",
    "shard.fault_dropped",     "shard.fault_delayed",
    "shard.fault_duplicated",  "shard.fault_stalled",
    "shard.fault_scan_timeout",
};

/// Network-agnostic parameter block (the union of the two study configs'
/// model-relevant fields).
struct Params {
  bool limewire = true;
  std::uint64_t seed = 0;
  std::size_t shards = 1;
  std::size_t peers = 0;
  double infected_fraction = 0.0;
  double nat_clean = 0.0;
  double nat_infected = 0.0;
  double private_advertise = 0.0;
  std::size_t shares_min = 0;
  std::size_t shares_max = 0;
  std::size_t trojan_aliases_min = 0;  // limewire fixed-lure hosts
  std::size_t trojan_aliases_max = 0;
  std::uint32_t polymorphic_jitter = 0;
  bool superspreader = false;  // openft
  std::size_t ss_paths = 0;
  std::size_t ss_stride = 1;
  std::size_t ss_offset = 0;
  std::size_t infected_paths_min = 0;  // openft lure users
  std::size_t infected_paths_max = 0;
  double clean_exe_keep = 1.0;
  files::CorpusConfig corpus{};
  agents::ChurnConfig churn{};
  std::uint64_t churn_seed = 0;
  crawler::CrawlConfig crawl{};
  std::size_t workload_top_n = 0;
  std::size_t vantages = 1;
  fault::FaultSpec faults{};
  std::uint64_t fault_seed = 0;
  obs::TimeSeriesConfig timeseries{};
};

class ShardStudy {
 public:
  explicit ShardStudy(Params params);
  StudyResult run(crawler::RecordSink* sink);

 private:
  using EntityId = sim::ShardedEngine::EntityId;

  /// Per-cell read-only model data; the index/infected spans live in the
  /// owning shard's arena.
  struct CellData {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    /// (catalog entry, peer) ascending — the cell's inverted share index.
    std::span<const std::pair<std::uint32_t, std::uint32_t>> share_index;
    std::span<const std::uint32_t> infected;
  };

  /// One instrumented vantage client. Every member is touched only by the
  /// worker owning the vantage entity's shard during runs (chosen_ is
  /// pre-sized, so concurrent post-barrier reads from cells never race a
  /// reallocation).
  struct Vantage {
    EntityId entity = 0;
    util::Rng rng;
    util::Ipv4 ip;
    std::vector<std::int32_t> chosen;  // query tick -> defs_ index
    std::vector<crawler::ResponseRecord> records;
    crawler::CrawlStats stats;
    std::set<std::string> downloaded_contents;
    explicit Vantage(std::uint64_t seed) : rng(seed) {}
  };

  void build_queries();
  void build_population();
  void build_cells();
  void schedule_query_ticks();

  void on_query_tick(std::size_t v, std::uint32_t qid);
  void on_probe(std::uint32_t cell, std::uint8_t v, std::uint32_t qid);
  void on_response(std::uint8_t v, std::uint32_t qid, std::uint32_t peer,
                   std::uint8_t kind, std::uint16_t extra);

  /// Apply wire faults and post the response to the vantage. `kind`/`extra`
  /// as in on_response.
  void send_response(std::uint32_t peer, std::uint8_t v, std::uint32_t qid,
                     std::uint8_t kind, std::uint16_t extra,
                     sim::SimTime probe_at);

  [[nodiscard]] bool reachable(std::uint32_t peer, std::uint8_t v,
                               std::uint32_t qid) const {
    if (reach_ >= 1.0) return true;
    return u01(h64(params_.seed, kTagReach, (std::uint64_t{v} << 32) | qid,
                   peer)) < reach_;
  }
  [[nodiscard]] std::size_t current_shard() const {
    return engine_->shard_of(engine_->current_entity());
  }

  // Response kinds (what the responding peer is offering).
  enum Kind : std::uint8_t {
    kKindClean,
    kKindEcho,        // query-echo worm answer
    kKindLure,        // fixed-lure name for a lure query
    kKindAlias,       // trojanized popular-work alias ("<query> keygen.exe")
    kKindSuperspread, // openft super-spreader lure path
  };

  Params params_;
  files::ContentCatalog catalog_;
  malware::CalibratedCatalog strains_;
  std::vector<QueryDef> defs_;
  std::optional<util::DiscreteSampler> def_sampler_;
  std::vector<double> strain_cdf_;
  sim::PeerTable peers_;
  std::unique_ptr<sim::ShardedEngine> engine_;
  std::vector<EntityId> cell_entity_;
  std::vector<CellData> cells_;
  std::vector<std::unique_ptr<Vantage>> vantages_;
  obs::ShardedCounters<kSlotCount> counters_;
  std::uint64_t churn_joins_ = 0;
  std::uint64_t churn_leaves_ = 0;
  std::size_t ticks_per_vantage_ = 0;
  double reach_ = 1.0;
  sim::SimTime end_;
};

ShardStudy::ShardStudy(Params params)
    : params_(std::move(params)),
      catalog_(params_.corpus),
      strains_(params_.limewire ? malware::limewire_catalog()
                                : malware::openft_catalog()),
      counters_(kSlotNames, params_.shards == 0 ? 1 : params_.shards) {
  OBS_SPAN("study.setup");
  if (params_.shards == 0) params_.shards = 1;
  end_ = sim::SimTime::zero() + params_.crawl.warmup + params_.crawl.duration +
         sim::SimDuration::minutes(10);
  reach_ = params_.peers == 0
               ? 1.0
               : std::min(1.0, kVisibleHorizon /
                                   static_cast<double>(params_.peers));

  // Cumulative infection weights for the stateless strain pick.
  double total = 0.0;
  for (double w : strains_.infection_weights) total += w;
  double acc = 0.0;
  for (double w : strains_.infection_weights) {
    acc += w / total;
    strain_cdf_.push_back(acc);
  }

  sim::ShardedEngine::Config engine_cfg;
  engine_cfg.shards = params_.shards;
  engine_cfg.lookahead = sim::SimDuration::millis(kLookaheadMs);
  engine_ = std::make_unique<sim::ShardedEngine>(engine_cfg);

  build_queries();
  build_population();
  build_cells();
  schedule_query_ticks();
}

void ShardStudy::build_queries() {
  std::size_t top = std::min(params_.workload_top_n, catalog_.size());
  std::vector<double> weights;
  for (std::size_t r = 0; r < top; ++r) {
    const auto& e = catalog_.entry(r);
    QueryDef def;
    def.text = e.query;
    def.category = category_of(e.type);
    def.weight = catalog_.popularity(r);
    def.entry = static_cast<std::int32_t>(r);
    weights.push_back(def.weight);
    defs_.push_back(std::move(def));
  }
  // Lure queries, in the exact order agents::lure_queries_for emits them
  // (per strain, per lure name), each with the workload's default relative
  // mass.
  for (std::size_t s = 0; s < strains_.strains.size(); ++s) {
    const auto& strain = strains_.strains[s];
    for (std::size_t l = 0; l < strain.lure_names.size(); ++l) {
      auto tokens = util::keywords(strain.lure_names[l]);
      if (tokens.empty()) continue;
      QueryDef def;
      def.text = util::join(tokens, " ");
      def.category = "lure";
      def.weight = 0.004;
      def.lure_strain = static_cast<std::int16_t>(s);
      def.lure_name = static_cast<std::uint16_t>(l);
      weights.push_back(def.weight);
      defs_.push_back(std::move(def));
    }
  }
  def_sampler_.emplace(std::span<const double>(weights));
}

void ShardStudy::build_population() {
  const std::uint64_t seed = params_.seed;
  peers_.reserve(params_.peers);
  std::int64_t horizon_ms = end_.millis();
  double mean_on = params_.churn.mean_session.as_seconds() * 1000.0;
  double mean_off = params_.churn.mean_offline.as_seconds() * 1000.0;
  double p_online = mean_on / std::max(1.0, mean_on + mean_off);
  if (params_.churn.initial_online_override >= 0.0) {
    p_online = params_.churn.initial_online_override;
  }

  std::vector<std::uint32_t> share_scratch;
  std::vector<std::int64_t> churn_scratch;
  for (std::uint32_t p = 0; p < params_.peers; ++p) {
    bool is_ss = params_.superspreader && !params_.limewire && p == 0;
    bool infected =
        !is_ss && u01(h64(seed, kTagPeer, p)) < params_.infected_fraction;

    std::uint16_t strain = sim::PeerTable::kNoStrain;
    std::uint8_t variant = 0;
    if (is_ss) {
      strain = 0;
      variant = 0;
    } else if (infected) {
      double u = u01(h64(seed, kTagStrain, p));
      strain = 0;
      while (strain + 1u < strain_cdf_.size() && u > strain_cdf_[strain]) {
        ++strain;
      }
      const auto& sizes = strains_.strains[strain].payload_sizes;
      variant = static_cast<std::uint8_t>(h64(seed, kTagVariant, p) %
                                          std::max<std::size_t>(1, sizes.size()));
    }

    double nat_rate = infected ? params_.nat_infected : params_.nat_clean;
    bool nat = !is_ss && u01(h64(seed, kTagNat, p)) < nat_rate;
    bool advertises_private =
        nat && u01(h64(seed, kTagPrivAdv, p)) < params_.private_advertise;

    // Distinct public address per peer (avoiding special ranges); NATed
    // hosts that advertise their private address collide like real home
    // networks do.
    util::Ipv4 ip;
    if (advertises_private) {
      std::uint64_t h = h64(seed, kTagIp, p);
      ip = util::Ipv4(192, 168, static_cast<std::uint8_t>(h >> 8),
                      static_cast<std::uint8_t>(h));
    } else {
      std::uint32_t n = p;
      ip = util::Ipv4(static_cast<std::uint8_t>(60 + (n >> 16) % 60),
                      static_cast<std::uint8_t>(1 + (n >> 8) % 250),
                      static_cast<std::uint8_t>(n % 250),
                      static_cast<std::uint8_t>(2 + (p * 7) % 250));
    }
    auto port = static_cast<std::uint16_t>((params_.limewire ? 6346 : 1216) +
                                           p % 50000);
    std::uint8_t flags = 0;
    if (nat) flags |= sim::PeerTable::kFirewalled;
    if (advertises_private) flags |= sim::PeerTable::kAdvertisesPrivate;
    if (infected) flags |= sim::PeerTable::kInfected;
    if (is_ss) flags |= sim::PeerTable::kPermanent;
    peers_.add(ip, port, flags, strain, variant);

    // Honest shares (clean peers only — infected hosts expose their warez
    // folder instead). Zipf-popular catalog picks, deduplicated, sorted.
    share_scratch.clear();
    if (!infected && !is_ss) {
      util::Rng rng(h64(seed, kTagShares, p));
      auto want = static_cast<std::size_t>(
          params_.shares_min +
          (params_.shares_max > params_.shares_min
               ? rng.bounded(params_.shares_max - params_.shares_min + 1)
               : 0));
      std::size_t attempts = 0;
      while (share_scratch.size() < want && attempts < want * 20) {
        ++attempts;
        auto e = static_cast<std::uint32_t>(catalog_.sample(rng));
        // Thin out clean executables/archives: era users shared mostly
        // media, so only a fraction of software picks stay in the library.
        // The verdict is a pure function of (peer, work) — re-sampling a
        // popular work must not re-roll it.
        auto type = catalog_.entry(e).type;
        if ((type == files::FileType::kExecutable ||
             type == files::FileType::kArchive) &&
            u01(h64(seed, kTagExeKeep, p, e)) >= params_.clean_exe_keep) {
          continue;
        }
        if (std::find(share_scratch.begin(), share_scratch.end(), e) ==
            share_scratch.end()) {
          share_scratch.push_back(e);
        }
      }
      std::sort(share_scratch.begin(), share_scratch.end());
    }
    peers_.set_shares(p, share_scratch);

    // Churn schedule: alternating exponential on/off sessions from the
    // peer's private stream.
    churn_scratch.clear();
    bool online = false;
    if (!is_ss) {
      util::Rng rng(h64(params_.churn_seed, kTagChurn, p));
      online = rng.uniform01() < p_online;
      bool now_online = online;
      std::int64_t t = 0;
      if (online) ++churn_joins_;
      while (t < horizon_ms) {
        double mean = now_online ? mean_on : mean_off;
        t += std::max<std::int64_t>(
            1, static_cast<std::int64_t>(rng.exponential(mean)));
        if (t >= horizon_ms) break;
        churn_scratch.push_back(t);
        now_online = !now_online;
        if (now_online) {
          ++churn_joins_;
        } else {
          ++churn_leaves_;
        }
      }
    }
    peers_.set_churn(p, online, churn_scratch);
  }
}

std::size_t cell_count_for(std::size_t peers) {
  return peers == 0 ? 0 : (peers + kCellSize - 1) / kCellSize;
}

void ShardStudy::build_cells() {
  // Vantage entities first (stable registration order), then cells.
  for (std::size_t v = 0; v < params_.vantages; ++v) {
    auto vantage = std::make_unique<Vantage>(
        params_.seed ^ (0xc4a31u + v * 0x9e37u));
    vantage->entity = engine_->add_entity(h64(0xc0a1, params_.seed, v));
    vantage->ip = util::Ipv4(156, 56, 1, static_cast<std::uint8_t>(10 + v));
    vantages_.push_back(std::move(vantage));
  }

  std::size_t ncells = cell_count_for(params_.peers);
  cell_entity_.reserve(ncells);
  cells_.resize(ncells);
  for (std::size_t c = 0; c < ncells; ++c) {
    cell_entity_.push_back(engine_->add_entity(h64(0xce11, params_.seed, c)));
  }

  // Per-cell read-only indexes, interned into the owning shard's arena so a
  // shard's working set stays local to its worker.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> index_scratch;
  std::vector<std::uint32_t> infected_scratch;
  for (std::size_t c = 0; c < ncells; ++c) {
    auto begin = static_cast<std::uint32_t>(c * kCellSize);
    auto end = static_cast<std::uint32_t>(
        std::min<std::size_t>(params_.peers, (c + 1) * kCellSize));
    index_scratch.clear();
    infected_scratch.clear();
    for (std::uint32_t p = begin; p < end; ++p) {
      std::uint32_t n = peers_.share_count(p);
      const std::uint32_t* shares = peers_.share_begin(p);
      for (std::uint32_t i = 0; i < n; ++i) {
        index_scratch.emplace_back(shares[i], p);
      }
      if (peers_.has_flag(p, sim::PeerTable::kInfected) ||
          peers_.has_flag(p, sim::PeerTable::kPermanent)) {
        infected_scratch.push_back(p);
      }
    }
    std::sort(index_scratch.begin(), index_scratch.end());
    sim::Arena& arena = engine_->shard_arena(engine_->shard_of(cell_entity_[c]));
    CellData& cell = cells_[c];
    cell.begin = begin;
    cell.end = end;
    cell.share_index = arena.intern(
        std::span<const std::pair<std::uint32_t, std::uint32_t>>(index_scratch));
    cell.infected =
        arena.intern(std::span<const std::uint32_t>(infected_scratch));
  }
}

void ShardStudy::schedule_query_ticks() {
  std::int64_t start = params_.crawl.warmup.count_ms();
  std::int64_t stop = start + params_.crawl.duration.count_ms();
  std::int64_t step = std::max<std::int64_t>(1, params_.crawl.query_interval.count_ms());
  ticks_per_vantage_ = 0;
  for (std::int64_t t = start; t < stop; t += step) ++ticks_per_vantage_;
  for (std::size_t v = 0; v < vantages_.size(); ++v) {
    vantages_[v]->chosen.assign(ticks_per_vantage_, -1);
    std::uint32_t qid = 0;
    for (std::int64_t t = start; t < stop; t += step, ++qid) {
      engine_->post(vantages_[v]->entity, sim::SimTime::at_millis(t),
                    [this, v, qid] { on_query_tick(v, qid); });
    }
  }
}

void ShardStudy::on_query_tick(std::size_t v, std::uint32_t qid) {
  Vantage& vantage = *vantages_[v];
  auto def = static_cast<std::int32_t>(def_sampler_->sample(vantage.rng));
  vantage.chosen[qid] = def;
  std::size_t shard = current_shard();
  counters_.add(shard, kSlotQueries);
  ++vantage.stats.queries_sent;
  sim::SimTime at = engine_->now() + sim::SimDuration::millis(kLookaheadMs);
  auto vv = static_cast<std::uint8_t>(v);
  for (std::uint32_t c = 0; c < cell_entity_.size(); ++c) {
    engine_->post(cell_entity_[c], at,
                  [this, c, vv, qid] { on_probe(c, vv, qid); });
    counters_.add(shard, kSlotProbes);
    counters_.add(shard, kSlotMessages);
    counters_.add(shard, kSlotBytesWire, 48);
  }
}

void ShardStudy::on_probe(std::uint32_t cell_index, std::uint8_t v,
                          std::uint32_t qid) {
  const CellData& cell = cells_[cell_index];
  const QueryDef& def = defs_[static_cast<std::size_t>(
      vantages_[v]->chosen[qid])];
  sim::SimTime now = engine_->now();

  auto respond = [&](std::uint32_t p, std::uint8_t kind, std::uint16_t extra) {
    if (!peers_.online_at(p, now)) return;
    if (!reachable(p, v, qid)) return;
    send_response(p, v, qid, kind, extra, now);
  };

  if (def.entry >= 0) {
    // Clean sharers of the queried work (inverted index range).
    auto entry = static_cast<std::uint32_t>(def.entry);
    auto lo = std::lower_bound(
        cell.share_index.begin(), cell.share_index.end(),
        std::make_pair(entry, std::uint32_t{0}));
    for (auto it = lo; it != cell.share_index.end() && it->first == entry;
         ++it) {
      respond(it->second, kKindClean, 0);
    }
  }

  const std::uint64_t seed = params_.seed;
  for (std::uint32_t p : cell.infected) {
    if (peers_.has_flag(p, sim::PeerTable::kPermanent)) {
      // OpenFT super-spreader: lure paths over catalog ranks offset,
      // offset+stride, ... — always online, answers every matching query.
      if (def.entry >= 0 && params_.ss_paths > 0) {
        auto r = static_cast<std::size_t>(def.entry);
        if (r >= params_.ss_offset &&
            (r - params_.ss_offset) % std::max<std::size_t>(1, params_.ss_stride) == 0 &&
            (r - params_.ss_offset) / std::max<std::size_t>(1, params_.ss_stride) <
                params_.ss_paths) {
          if (reachable(p, v, qid)) {
            // Its paths are indexed at several search nodes, so one query
            // returns multiple listings of the same lure.
            std::uint32_t copies =
                2 + (u01(h64(seed, kTagSsCopy, (std::uint64_t{v} << 32) | qid,
                             p)) < kSsThirdCopyProb
                         ? 1u
                         : 0u);
            for (std::uint32_t c = 0; c < copies; ++c) {
              send_response(p, v, qid, kKindSuperspread,
                            static_cast<std::uint16_t>(c), now);
            }
          }
        }
      }
      continue;
    }
    std::uint16_t strain_idx = peers_.strain(p);
    const malware::Strain& strain = strains_.strains[strain_idx];
    if (params_.limewire && strain.naming == malware::NamingHabit::kQueryEcho) {
      // Echo worms answer (most) queries, lure or not, with "<query>.exe".
      if (u01(h64(seed, kTagEcho, (std::uint64_t{v} << 32) | qid, p)) <
          kEchoAnswerProb) {
        respond(p, kKindEcho, 0);
      }
      continue;
    }
    if (def.lure_strain >= 0) {
      if (static_cast<std::uint16_t>(def.lure_strain) != strain_idx) continue;
      if (params_.limewire) {
        respond(p, kKindLure, def.lure_name);
      } else {
        // OpenFT lure users register only a few of their strain's paths.
        std::size_t lures = std::max<std::size_t>(1, strain.lure_names.size());
        auto paths = static_cast<std::size_t>(
            params_.infected_paths_min +
            h64(seed, kTagLurePath, p) %
                std::max<std::size_t>(
                    1, params_.infected_paths_max - params_.infected_paths_min + 1));
        if (u01(h64(seed, kTagLurePath, p, def.lure_name)) <
            static_cast<double>(paths) / static_cast<double>(lures)) {
          respond(p, kKindLure, def.lure_name);
          // Shares listed at a second search node answer twice. Copy index
          // rides in the high byte; the lure-name index stays in the low.
          if (u01(h64(seed, kTagLureDup, (std::uint64_t{v} << 32) | qid, p)) <
              kOftLureDupProb) {
            respond(p, kKindLure,
                    static_cast<std::uint16_t>(def.lure_name | 0x100));
          }
        }
      }
    } else if (params_.limewire && def.entry >= 0 &&
               static_cast<std::size_t>(def.entry) < kAliasRanks) {
      // Trojanized popular-work aliases of the fixed-lure strains.
      auto aliases = static_cast<double>(
          params_.trojan_aliases_min +
          h64(seed, kTagAliasCount, p) %
              std::max<std::size_t>(
                  1, params_.trojan_aliases_max - params_.trojan_aliases_min + 1));
      if (u01(h64(seed, kTagAlias, p, static_cast<std::uint64_t>(def.entry))) <
          aliases / static_cast<double>(kAliasRanks)) {
        respond(p, kKindAlias, 0);
      }
    }
  }
}

void ShardStudy::send_response(std::uint32_t peer, std::uint8_t v,
                               std::uint32_t qid, std::uint8_t kind,
                               std::uint16_t extra, sim::SimTime probe_at) {
  std::size_t shard = current_shard();
  const std::uint64_t fseed = params_.fault_seed != 0 ? params_.fault_seed
                                                      : params_.seed;
  // `extra` carries the copy index for replicated listings, so each copy
  // draws its own latency and fault outcomes.
  std::uint64_t key = (std::uint64_t{extra} << 48) | (std::uint64_t{v} << 40) |
                      (std::uint64_t{qid} << 8) | kind;
  if (params_.faults.message_loss > 0.0 &&
      u01(h64(fseed, kTagFaultLoss, key, peer)) < params_.faults.message_loss) {
    counters_.add(shard, kSlotFaultDropped);
    return;
  }
  std::int64_t latency =
      kLookaheadMs +
      static_cast<std::int64_t>(h64(params_.seed, kTagLatency, key, peer) %
                                (kJitterMs + 1));
  if (params_.faults.message_delay > 0.0 &&
      u01(h64(fseed, kTagFaultDelay, key, peer)) < params_.faults.message_delay) {
    std::int64_t max_extra =
        std::max<std::int64_t>(1, params_.faults.message_delay_max.count_ms());
    latency += 1 + static_cast<std::int64_t>(
                       h64(fseed, kTagFaultDelay ^ 0xd2d2, key, peer) %
                       static_cast<std::uint64_t>(max_extra));
    counters_.add(shard, kSlotFaultDelayed);
  }
  auto post_response = [&](std::int64_t extra_ms) {
    engine_->post(vantages_[v]->entity,
                  probe_at + sim::SimDuration::millis(latency + extra_ms),
                  [this, v, qid, peer, kind, extra] {
                    on_response(v, qid, peer, kind, extra);
                  });
    counters_.add(shard, kSlotMessages);
    counters_.add(shard, kSlotBytesWire, 96);
  };
  post_response(0);
  if (params_.faults.message_duplicate > 0.0 &&
      u01(h64(fseed, kTagFaultDup, key, peer)) < params_.faults.message_duplicate) {
    counters_.add(shard, kSlotFaultDuplicated);
    post_response(1);
  }
}

void ShardStudy::on_response(std::uint8_t v, std::uint32_t qid,
                             std::uint32_t peer, std::uint8_t kind,
                             std::uint16_t extra) {
  Vantage& vantage = *vantages_[v];
  const QueryDef& def = defs_[static_cast<std::size_t>(vantage.chosen[qid])];
  const std::uint64_t seed = params_.seed;
  std::size_t shard = current_shard();
  std::size_t key_chars = params_.limewire ? 40 : 32;

  crawler::ResponseRecord rec;
  rec.network = params_.limewire ? "limewire" : "openft";
  rec.at = engine_->now();
  rec.query = def.text;
  rec.query_category = def.category;
  rec.source_ip = peers_.ip(peer);
  rec.source_port = peers_.port(peer);
  rec.source_key = (params_.limewire ? 'G' : 'F') +
                   hex_key(h64(seed, kTagHostKey, peer), 16);
  rec.source_firewalled = peers_.has_flag(peer, sim::PeerTable::kFirewalled);

  bool malicious = kind != kKindClean;
  std::uint16_t strain_idx = 0;
  bool zip = false;
  if (!malicious) {
    const auto& e = catalog_.entry(static_cast<std::size_t>(def.entry));
    rec.filename = e.name;
    rec.size = e.size;
    rec.type_by_name = e.type;
    rec.content_key = hex_key(
        h64(params_.corpus.seed, kTagContent, static_cast<std::uint64_t>(def.entry)),
        key_chars);
  } else {
    strain_idx = peers_.strain(peer);
    const malware::Strain& strain = strains_.strains[strain_idx];
    // Variant per response, not per peer: variant 0 is the launch build,
    // dominant early; after the switch point new builds take over and it
    // fades. Copies of one listing (same v/qid/peer) share a variant.
    std::uint8_t variant = 0;
    std::size_t nvar = strain.payload_sizes.size();
    if (nvar > 1) {
      bool early =
          static_cast<double>(rec.at.millis()) <
          kVariantSwitchFrac * static_cast<double>(end_.millis());
      double fresh = early ? kFreshVariantEarly : kFreshVariantLate;
      std::uint64_t hv = h64(seed, kTagFresh, (std::uint64_t{v} << 32) | qid,
                             peer);
      if (u01(hv) >= fresh) {
        variant = static_cast<std::uint8_t>(
            1 + h64(seed, kTagFresh ^ 0x5a5a,
                    (std::uint64_t{v} << 32) | qid, peer) %
                    (nvar - 1));
      }
    }
    zip = strain.container == malware::Container::kZipArchive ||
          (strain.container == malware::Container::kMixed &&
           (h64(seed, kTagContainer, (std::uint64_t{v} << 32) | qid, peer) & 1) != 0);
    switch (kind) {
      case kKindEcho:
        rec.filename = def.text + (zip ? ".zip" : ".exe");
        break;
      case kKindLure:
        rec.filename =
            strain.lure_names[(extra & 0xff) % strain.lure_names.size()];
        break;
      case kKindAlias:
        rec.filename = def.text + " keygen.exe";
        zip = false;
        break;
      case kKindSuperspread:
      default:
        rec.filename = def.text + ".exe";
        zip = false;
        break;
    }
    rec.size = strain.payload_sizes.empty()
                   ? 4096
                   : strain.payload_sizes[variant % strain.payload_sizes.size()];
    rec.content_key = hex_key(
        h64(seed, kTagContent, (std::uint64_t{strain_idx} << 8) | variant,
            zip ? 1 : 0),
        key_chars);
    if (params_.polymorphic_jitter > 0 &&
        strain.naming == malware::NamingHabit::kQueryEcho) {
      // A3 evasion: per-response repacking — unique size and hash per copy.
      std::uint64_t h =
          h64(seed, kTagPoly, (std::uint64_t{v} << 32) | qid, peer);
      rec.size += h % (std::uint64_t{params_.polymorphic_jitter} + 1);
      rec.content_key = hex_key(h, key_chars);
    }
    rec.type_by_name =
        zip ? files::FileType::kArchive : files::FileType::kExecutable;
  }

  ++vantage.stats.hits;
  ++vantage.stats.responses;
  counters_.add(shard, kSlotResponses);

  if (rec.is_study_type()) {
    ++vantage.stats.study_responses;
    counters_.add(shard, kSlotStudyResponses);
    rec.download_attempted = true;
    ++vantage.stats.downloads_started;
    const std::uint64_t fseed =
        params_.fault_seed != 0 ? params_.fault_seed : seed;
    std::uint64_t key = (std::uint64_t{extra} << 48) | (std::uint64_t{v} << 40) |
                        (std::uint64_t{qid} << 8) | kind;
    bool stalled = params_.faults.download_stall > 0.0 &&
                   u01(h64(fseed, kTagFaultStall, key, peer)) <
                       params_.faults.download_stall;
    if (stalled) {
      ++vantage.stats.downloads_failed;
      counters_.add(shard, kSlotDownloadsFailed);
      counters_.add(shard, kSlotFaultStalled);
    } else {
      ++vantage.stats.downloads_ok;
      vantage.stats.bytes_downloaded += rec.size;
      counters_.add(shard, kSlotDownloadsOk);
      counters_.add(shard, kSlotBytesDownloaded, rec.size);
      bool scan_lost = params_.faults.scan_timeout > 0.0 &&
                       u01(h64(fseed, kTagFaultScan, key, peer)) <
                           params_.faults.scan_timeout;
      if (scan_lost) {
        // The sample fetched but the scanner gave up: content stays
        // unlabeled (rec.downloaded = false keeps it out of `labeled`).
        ++vantage.stats.scan_timeouts;
        counters_.add(shard, kSlotFaultScanTimeout);
      } else {
        rec.downloaded = true;
        vantage.downloaded_contents.insert(rec.content_key);
        if (malicious) {
          rec.infected = true;
          rec.strain = strains_.strains[strain_idx].id;
          rec.strain_name = strains_.strains[strain_idx].name;
          counters_.add(shard, kSlotInfectedLabeled);
        }
        rec.type_by_magic =
            zip ? files::FileType::kArchive : files::FileType::kExecutable;
        if (!malicious) {
          rec.type_by_magic = rec.type_by_name;
        }
      }
    }
  }

  vantage.records.push_back(std::move(rec));
}

StudyResult ShardStudy::run(crawler::RecordSink* sink) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::ProgressReporter* progress = obs::ProgressReporter::current();
  bool want_progress = progress != nullptr && progress->enabled();
  obs::TimeSeriesRecorder recorder(registry, params_.timeseries);
  {
    OBS_SPAN("study.run");
    if (!params_.timeseries.enabled() && !want_progress) {
      engine_->run_until(end_);
      counters_.flush_to(registry);
    } else {
      sim::SimDuration step =
          params_.timeseries.enabled()
              ? params_.timeseries.window
              : std::max(sim::SimDuration::minutes(1),
                         (end_ - sim::SimTime::zero()) / 100);
      sim::SimTime t = sim::SimTime::zero();
      while (t < end_) {
        t = std::min(t + step, end_);
        engine_->run_until(t);
        // Single-threaded section between runs: fold per-shard counters
        // into the registry (sums — shard-count invariant), then sample.
        counters_.flush_to(registry);
        recorder.sample(t);
        if (want_progress) {
          obs::StudyProgress p;
          p.network = params_.limewire ? "limewire" : "openft";
          p.sim_now = t;
          p.sim_end = end_;
          p.events_executed = engine_->executed();
          p.responses = counters_.total(kSlotResponses);
          p.degraded = counters_.total(kSlotDownloadsFailed) +
                       counters_.total(kSlotFaultScanTimeout);
          p.final = t == end_;
          progress->study_tick(p);
        }
      }
    }
  }

  OBS_SPAN("study.finalize");
  StudyResult result;
  result.timeseries = recorder.take();
  std::vector<std::vector<crawler::ResponseRecord>> logs;
  for (auto& vptr : vantages_) {
    Vantage& vantage = *vptr;
    vantage.stats.distinct_contents = vantage.downloaded_contents.size();
    logs.push_back(std::move(vantage.records));
    result.crawl_stats += vantage.stats;
  }
  result.records = crawler::merge_logs(std::move(logs), sink);
  result.strain_catalog = strains_;
  result.events_executed = engine_->executed();
  result.messages_delivered = counters_.total(kSlotMessages);
  result.bytes_delivered = counters_.total(kSlotBytesWire);
  result.churn_joins = churn_joins_;
  result.churn_leaves = churn_leaves_;
  if (params_.faults.enabled()) {
    result.faults_enabled = true;
    result.fault_counters.messages_dropped = counters_.total(kSlotFaultDropped);
    result.fault_counters.messages_delayed = counters_.total(kSlotFaultDelayed);
    result.fault_counters.messages_duplicated =
        counters_.total(kSlotFaultDuplicated);
    result.fault_counters.downloads_stalled = counters_.total(kSlotFaultStalled);
    result.fault_counters.scan_timeouts =
        counters_.total(kSlotFaultScanTimeout);
  }
  result.metrics = registry.snapshot();
  return result;
}

}  // namespace

std::size_t shard_cell_count(std::size_t peers) {
  return cell_count_for(peers);
}

StudyResult run_limewire_study_sharded(const LimewireStudyConfig& config,
                                       crawler::RecordSink* record_sink) {
  obs::MetricsRegistry::global().reset();
  Params p;
  p.limewire = true;
  p.seed = config.seed;
  p.shards = config.shards;
  p.peers = config.population.leaves;
  p.infected_fraction = config.population.infected_fraction;
  p.nat_clean = config.population.nat_fraction_clean;
  p.nat_infected = config.population.nat_fraction_infected;
  p.private_advertise = config.population.private_advertise_given_nat;
  p.shares_min = config.population.shares_min;
  p.shares_max = config.population.shares_max;
  p.trojan_aliases_min = config.population.trojan_aliases_min;
  p.trojan_aliases_max = config.population.trojan_aliases_max;
  p.polymorphic_jitter = config.population.polymorphic_jitter;
  p.corpus = config.population.corpus;
  p.churn = config.churn;
  p.churn_seed = config.seed ^ 0xc4u;
  p.clean_exe_keep = kCleanExeKeepLimewire;
  p.crawl = config.crawl;
  p.workload_top_n = config.workload_top_n;
  p.vantages = std::max<std::size_t>(1, config.crawler_count);
  p.faults = config.faults;
  p.fault_seed = config.fault_seed;
  p.timeseries = config.timeseries;
  ShardStudy study(std::move(p));
  return study.run(record_sink);
}

StudyResult run_openft_study_sharded(const OpenFtStudyConfig& config,
                                     crawler::RecordSink* record_sink) {
  obs::MetricsRegistry::global().reset();
  Params p;
  p.limewire = false;
  p.seed = config.seed;
  p.shards = config.shards;
  p.peers = config.population.users;
  p.infected_fraction = config.population.infected_fraction;
  p.nat_clean = config.population.nat_fraction;
  p.nat_infected = config.population.nat_fraction;
  p.private_advertise = 0.0;
  p.shares_min = config.population.shares_min;
  p.shares_max = config.population.shares_max;
  p.superspreader = config.population.enable_superspreader;
  p.ss_paths = config.population.superspreader_paths;
  p.ss_stride = config.population.superspreader_rank_stride;
  p.ss_offset = config.population.superspreader_rank_offset;
  p.infected_paths_min = config.population.infected_paths_min;
  p.infected_paths_max = config.population.infected_paths_max;
  p.corpus = config.population.corpus;
  p.churn = config.churn;
  p.churn_seed = config.seed ^ 0x0f7u;
  p.clean_exe_keep = kCleanExeKeepOpenFt;
  p.crawl = config.crawl;
  p.workload_top_n = config.workload_top_n;
  p.vantages = 1;
  p.faults = config.faults;
  p.fault_seed = config.fault_seed;
  p.timeseries = config.timeseries;
  ShardStudy study(std::move(p));
  return study.run(record_sink);
}

}  // namespace p2p::core
