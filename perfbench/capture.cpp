#include "capture.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "crawler/records.h"
#include "files/file_types.h"
#include "malware/catalogs.h"
#include "obs/metrics.h"
#include "trace/codec.h"
#include "trace/segment.h"
#include "util/rng.h"

namespace p2pbench {

namespace {

namespace crawler = p2p::crawler;
namespace files = p2p::files;
namespace malware = p2p::malware;
using p2p::util::splitmix64;

// The standard KAD preset's shape. Population and deployment: EXPERIMENTS.md
// "Run volume" and E9 (240 users, 19 of them infected, 16 honeypots).
// Record mix, in parts per 10,000: one standard run, `kad_study --seed 7
// --csv`, which logged 110,789 active responses beside 1,960,166 honeypot
// observations (EXPERIMENTS.md: ~113k and ~1.96M).
constexpr std::uint64_t kPeers = 240;
constexpr std::uint64_t kInfectedPeers = 19;
constexpr std::uint64_t kVantages = 16;
constexpr std::uint64_t kHoneypot = 9465;    // 1,960,166 of 2,070,955 records
constexpr std::uint64_t kStore = 9957;       // STOREs among honeypot records
constexpr std::uint64_t kMalStore = 312;     // malicious publishes among STOREs
constexpr std::uint64_t kFirewalled = 2110;  // active responses from firewalled owners
constexpr std::uint64_t kStudy = 1026;       // exe/zip among active responses
constexpr std::uint64_t kStudyExe = 7713;    // exe among those (7,627 of 9,889 labeled)
constexpr std::uint64_t kLabeled = 8704;     // downloaded and scanned among exe/zip
constexpr std::uint64_t kMalicious = 3788;   // infected among labeled (E1)
// That run's vantages saw 149 distinct keywords, 68 to 100 each.
constexpr std::uint64_t kKeywords = 150;
constexpr std::uint64_t kKeywordWindow = 90;
// E2 over 16 standard seeds: top-1 strain 38.7%, top-3 80.0% of malicious
// responses. Ranks 2-3 and the tail split their share in the catalog's own
// infection-weight ratios.
constexpr double kTop1 = 0.387;
constexpr double kTop3 = 0.800;

constexpr std::size_t kChunk = 1 << 16;

// Honest shares' extensions, cumulative parts per 10,000 of the honest
// STOREs in the same run (audio 64.1%, documents 10.9%, video 8.4%, images
// 7.3%, exe/zip 9.3%).
struct Share {
  const char* ext;
  std::uint64_t upto;
};
constexpr Share kHonestShares[] = {{".mp3", 6406}, {".pdf", 7496}, {".avi", 8338},
                                   {".jpg", 9071}, {".exe", 9691}, {".zip", 10000}};

const char* const kWords[] = {
    "live",   "remix",  "season", "final",   "album",  "crack",  "deluxe", "best",
    "mix",    "movie",  "game",   "edition", "vol",    "hits",   "club",   "night",
    "summer", "story",  "world",  "love",    "dance",  "rock",   "star",   "gold",
    "dragon", "shadow", "city",   "king",    "road",   "fire",   "dream",  "zero"};
constexpr std::uint64_t kWordCount = sizeof(kWords) / sizeof(kWords[0]);

const char* const kCategories[] = {"music", "movies", "software", "games",
                                   "documents"};

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t state = a ^ (b * 0x9e3779b97f4a7c15ull);
  return splitmix64(state);
}

/// 0..9999 from bits of a hash.
std::uint64_t per10k(std::uint64_t h) { return h % 10'000; }

/// 32 hex digits, the shape of an MD5 content key or a KAD keyword id.
std::string hex128(std::uint64_t a) {
  std::uint64_t state = a;
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(splitmix64(state)),
                static_cast<unsigned long long>(splitmix64(state)));
  return buf;
}

struct Peer {
  bool infected = false;
  std::string key;
  p2p::util::Ipv4 addr;
};

class Generator {
 public:
  explicit Generator(const CaptureSpec& spec)
      : spec_(spec), catalog_(malware::kad_catalog()) {
    peers_.resize(kPeers);
    for (std::uint64_t p = 0; p < kPeers; ++p) {
      std::uint64_t h = mix(spec.seed ^ 0x70656572ull, p);
      // One peer in four advertises a home-NAT address.
      std::uint32_t ip = (h >> 40) % 4 == 0
                             ? 0xC0A80000u + static_cast<std::uint32_t>(p)
                             : 0x18000000u + static_cast<std::uint32_t>(p * 7919);
      peers_[p].addr = p2p::util::Ipv4(ip);
      peers_[p].key = peers_[p].addr.str() + ":4662";
    }
    // Exactly kInfectedPeers, chosen by the seed.
    std::vector<std::uint64_t> order(kPeers);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::uint64_t a, std::uint64_t b) {
      return mix(spec.seed ^ 0x696e66ull, a) < mix(spec.seed ^ 0x696e66ull, b);
    });
    order.resize(kInfectedPeers);
    std::sort(order.begin(), order.end());
    for (std::uint64_t p : order) peers_[p].infected = true;
    infected_ = order;

    for (std::uint64_t k = 0; k < kKeywords; ++k) keywords_.push_back(hex128(k + 1));
    strain_upto_ = strain_weights(catalog_);

    span_ms_ = spec.days * 86'400'000ll;
    stride_ms_ = std::max<std::int64_t>(
        1, span_ms_ / static_cast<std::int64_t>(std::max<std::uint64_t>(1, spec.records)));
  }

  [[nodiscard]] std::int64_t span_ms() const { return span_ms_; }

  crawler::ResponseRecord record(std::uint64_t i) const {
    std::uint64_t state = mix(spec_.seed, i);
    std::uint64_t h = splitmix64(state);
    std::uint64_t h2 = splitmix64(state);
    crawler::ResponseRecord r;
    r.id = i + 1;
    r.at = p2p::util::SimTime::at_millis(static_cast<std::int64_t>(i) * stride_ms_ +
                                         static_cast<std::int64_t>(h % stride_ms_));
    if (per10k(h2) < kHoneypot) {
      honeypot(r, state);
    } else {
      active(r, state);
    }
    return r;
  }

 private:
  /// Cumulative weights of the catalog's strains: E2's top-1 and top-3
  /// shares, split in the catalog's infection-weight ratios.
  static std::vector<double> strain_weights(const malware::CalibratedCatalog& cat) {
    const auto& w = cat.infection_weights;
    auto sum = [&w](std::size_t from, std::size_t to) {
      return std::accumulate(w.begin() + static_cast<std::ptrdiff_t>(from),
                             w.begin() + static_cast<std::ptrdiff_t>(to), 0.0);
    };
    std::vector<double> upto;
    double acc = 0.0;
    for (std::size_t s = 0; s < w.size(); ++s) {
      if (s == 0) {
        acc += kTop1;
      } else if (s < 3) {
        acc += (kTop3 - kTop1) * w[s] / sum(1, 3);
      } else {
        acc += (1.0 - kTop3) * w[s] / sum(3, w.size());
      }
      upto.push_back(acc);
    }
    return upto;
  }

  std::string title_of(std::uint64_t a, std::uint64_t b) const {
    return std::string(kWords[a % kWordCount]) + " " + kWords[b % kWordCount];
  }

  const Peer& any_peer(std::uint64_t h) const { return peers_[h % kPeers]; }
  const Peer& infected_peer(std::uint64_t h) const {
    return peers_[infected_[h % infected_.size()]];
  }

  void set_source(crawler::ResponseRecord& r, const Peer& peer) const {
    r.source_ip = peer.addr;
    r.source_port = 4662;
    r.source_key = peer.key;
  }

  /// A malicious artifact: a catalog strain (by E2's weights) under one of
  /// its lure names, at one of its real payload sizes.
  void malicious(crawler::ResponseRecord& r, std::uint64_t h) const {
    double u = static_cast<double>(h % 1'000'000) / 1'000'000.0 * strain_upto_.back();
    std::size_t s = static_cast<std::size_t>(
        std::upper_bound(strain_upto_.begin(), strain_upto_.end(), u) -
        strain_upto_.begin());
    const malware::Strain& strain = catalog_.strains[std::min(s, strain_upto_.size() - 1)];
    std::uint64_t variant = h >> 20;
    r.infected = true;
    r.strain = strain.id;
    r.strain_name = strain.name;
    r.size = strain.payload_sizes[variant % strain.payload_sizes.size()];
    r.filename = strain.lure_names[(variant >> 8) % strain.lure_names.size()];
    if (!files::is_study_type(files::classify_extension(r.filename))) {
      r.filename += strain.container == malware::Container::kExecutable ? ".exe" : ".zip";
    }
    r.content_key = hex128(mix(strain.id, r.size));
  }

  void active(crawler::ResponseRecord& r, std::uint64_t& state) const {
    std::uint64_t h = splitmix64(state);
    std::uint64_t h2 = splitmix64(state);
    r.network = "kad";
    r.query = title_of(h >> 8, h >> 16);
    r.query_category = kCategories[(h >> 24) % 5];
    r.source_firewalled = per10k(h >> 32) < kFirewalled;
    if (per10k(h2) < kStudy) {
      r.download_attempted = true;
      r.downloaded = per10k(h2 >> 14) < kLabeled;
      if (r.downloaded && per10k(h2 >> 28) < kMalicious) {
        set_source(r, infected_peer(h >> 44));
        malicious(r, splitmix64(state));
      } else {
        set_source(r, any_peer(h >> 44));
        r.filename = r.query + (per10k(h2 >> 42) < kStudyExe ? " setup.exe" : " pack.zip");
        r.size = 40'000 + splitmix64(state) % 700'000'000;
        r.content_key = hex128(splitmix64(state) % 400'000);
      }
    } else {
      static const char* const kExt[] = {".mp3", ".mp3", ".mp3", ".avi",
                                         ".avi", ".pdf", ".jpg", ".mp3"};
      set_source(r, any_peer(h >> 44));
      r.filename = r.query;
      r.filename.append(" ").append(std::to_string(h2 % 97)).append(kExt[(h2 >> 14) % 8]);
      r.size = 40'000 + splitmix64(state) % 700'000'000;
      r.content_key = hex128(splitmix64(state) % 400'000);
    }
    r.type_by_name = files::classify_extension(r.filename);
    if (r.downloaded) r.type_by_magic = r.type_by_name;
  }

  void honeypot(crawler::ResponseRecord& r, std::uint64_t& state) const {
    std::uint64_t h = splitmix64(state);
    std::uint64_t vantage = h % kVantages;
    std::string num = std::to_string(vantage);
    if (num.size() < 2) num.insert(num.begin(), '0');
    r.network = "kad.honeypot/" + num;
    r.query_category = "honeypot";
    // Each vantage hears the keywords near its id: a window of the keyword
    // space that overlaps its neighbours'.
    r.query = keywords_[(vantage * kKeywords / kVantages + (h >> 8) % kKeywordWindow) %
                        kKeywords];
    r.source_firewalled = per10k(h >> 20) < kFirewalled;
    if (per10k(h >> 34) >= kStore) {  // a keyword query: no content
      set_source(r, any_peer(h >> 48));
      return;
    }
    if (per10k(h >> 48) < kMalStore) {
      set_source(r, infected_peer(h >> 40));
      malicious(r, splitmix64(state));
    } else {
      std::uint64_t h2 = splitmix64(state);
      set_source(r, any_peer(h >> 40));
      std::uint64_t roll = per10k(h2);
      const Share* share = kHonestShares;
      while (share->upto <= roll) ++share;
      r.filename = title_of(h2 >> 16, h2 >> 24) + share->ext;
      r.size = 100'000 + (h2 >> 32) % 9'000'000;
      r.content_key = hex128(h2 % 400'000);
    }
    r.type_by_name = files::classify_extension(r.filename);
  }

  CaptureSpec spec_;
  malware::CalibratedCatalog catalog_;
  std::vector<Peer> peers_;
  std::vector<std::uint64_t> infected_;  // indices into peers_
  std::vector<std::string> keywords_;
  std::vector<double> strain_upto_;
  std::int64_t span_ms_ = 0;
  std::int64_t stride_ms_ = 1;
};

}  // namespace

CaptureStats write_capture(const std::string& dir, const CaptureSpec& spec,
                           Ledger* ledger) {
  using Clock = std::chrono::steady_clock;
  Ledger::Span root(ledger, "bench.capture");
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  Generator gen(spec);
  p2p::trace::TraceHeader header;
  header.network = "kad";
  header.seed = spec.seed;
  header.config_hash = mix(spec.seed ^ spec.records, static_cast<std::uint64_t>(spec.days));
  header.crawl_duration_ms = gen.span_ms();
  header.meta.emplace_back("generator", "perfbench synthetic kad capture");

  CaptureStats stats;
  // Only the writer's calls count toward write_s: the generator is the
  // benchmark's own code, which no change to the program can speed up.
  auto written = [&stats](Clock::time_point t0) {
    stats.write_s += std::chrono::duration<double>(Clock::now() - t0).count();
  };
  auto t0 = Clock::now();
  p2p::trace::SegmentWriter writer(dir, header);
  written(t0);
  std::vector<crawler::ResponseRecord> chunk;
  chunk.reserve(kChunk);
  for (std::uint64_t base = 0; base < spec.records; base += kChunk) {
    std::uint64_t end = std::min<std::uint64_t>(spec.records, base + kChunk);
    {
      Ledger::Span span(ledger, "bench.generate");
      chunk.clear();
      for (std::uint64_t i = base; i < end; ++i) chunk.push_back(gen.record(i));
      for (const auto& rec : chunk) {
        if (rec.query_category == "honeypot") ++stats.honeypot_records;
      }
    }
    Ledger::Span span(ledger, "trace.write");
    t0 = Clock::now();
    for (const auto& rec : chunk) writer.on_record(rec);
    written(t0);
  }

  // The ground-truth denominators the coverage analysis reads, as a real
  // KAD study persists them in its summary.
  p2p::trace::StudySummary summary;
  summary.crawl_stats.responses = spec.records - stats.honeypot_records;
  summary.metrics.counters.push_back({"kad.honeypot.vantages", kVantages});
  summary.metrics.counters.push_back({"kad.population.infected_users", kInfectedPeers});
  Ledger::Span span(ledger, "trace.write");
  t0 = Clock::now();
  writer.write_summary(summary);
  writer.close();
  written(t0);
  stats.ok = writer.ok();
  stats.records = writer.records_written();
  stats.bytes = writer.bytes_written();
  stats.segments = writer.segments_written();
  stats.sim_hours = static_cast<double>(gen.span_ms()) / 3'600'000.0;
  return stats;
}

}  // namespace p2pbench
