// Micro-benchmarks (google-benchmark) for the hot inner loops: signature
// scanning, archive-aware scanning, hashing and checksums, trace-block
// decoding, wire serialization/parsing,
// QRP hashing/matching, leaf QRP table builds, GUID hashing, and keyword
// matching. These bound the throughput of the measurement pipeline itself.
#include <benchmark/benchmark.h>

#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "files/file.h"
#include "files/hash.h"
#include "files/zip.h"
#include "gnutella/message.h"
#include "gnutella/qrp.h"
#include "gnutella/shared_index.h"
#include "malware/builder.h"
#include "malware/catalogs.h"
#include "malware/scanner.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "trace/reader.h"
#include "trace/writer.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "util/strings.h"

namespace {

using namespace p2p;

util::Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  util::Bytes b(n);
  util::Rng rng(seed);
  rng.fill(b);
  return b;
}

void BM_Sha1(benchmark::State& state) {
  auto data = random_bytes(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(files::sha1(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_Md5(benchmark::State& state) {
  auto data = random_bytes(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(files::md5(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Md5)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_Crc32(benchmark::State& state) {
  auto data = random_bytes(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::crc32(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

// Reads an in-memory trace of 64 full 256-record blocks of KAD-shaped
// records: per block, one CRC over the payload and 256 record decodes
// handed out through TraceReader::next. Reported per record.
void BM_TraceDecodeBlock(benchmark::State& state) {
  constexpr std::size_t kBlocks = 64;
  constexpr std::size_t kPerBlock = 256;
  std::ostringstream file(std::ios::binary);
  {
    trace::TraceHeader header;
    header.network = "kad";
    trace::TraceWriterOptions options;
    options.records_per_block = kPerBlock;
    trace::TraceWriter writer(file, header, options);
    util::Rng rng(4);
    for (std::size_t i = 0; i < kBlocks * kPerBlock; ++i) {
      crawler::ResponseRecord r;
      r.id = i + 1;
      r.network = "kad.honeypot/" + std::to_string(rng.next() % 16);
      r.at = util::SimTime::at_millis(static_cast<std::int64_t>(i) * 1'300);
      r.query = "keyword " + std::to_string(rng.next() % 500);
      r.query_category = "honeypot";
      r.filename = "shared file " + std::to_string(rng.next() % 20'000) + ".exe";
      r.size = 40'000 + rng.next() % 9'000'000;
      r.source_ip = util::Ipv4(static_cast<std::uint32_t>(rng.next()));
      r.source_port = 4672;
      r.source_key = r.source_ip.str() + ":4672";
      auto digest = random_bytes(16, rng.next());
      r.content_key = util::to_hex(digest);
      writer.on_record(r);
    }
    writer.close();
  }
  const std::string bytes = std::move(file).str();
  crawler::ResponseRecord rec;
  for (auto _ : state) {
    std::istringstream in(bytes, std::ios::binary);
    trace::TraceReader reader(in);
    while (reader.next(rec)) benchmark::DoNotOptimize(rec.id);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kBlocks *
                                                    kPerBlock));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes.size()));
}
BENCHMARK(BM_TraceDecodeBlock);

void BM_ScanClean(benchmark::State& state) {
  auto catalog = malware::limewire_catalog();
  malware::Scanner scanner(catalog.strains);
  auto data = random_bytes(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scanner.scan(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ScanClean)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_ScanInfectedZip(benchmark::State& state) {
  auto catalog = malware::limewire_catalog();
  malware::Scanner scanner(catalog.strains);
  malware::ArtifactStore store(catalog.strains, 7);
  // Troj.Keymaker.C ships zip-wrapped (strain id 2).
  auto artifact = store.artifacts(2).front();
  for (auto _ : state) {
    auto result = scanner.scan(artifact->bytes());
    benchmark::DoNotOptimize(result);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(artifact->size()));
}
BENCHMARK(BM_ScanInfectedZip);

void BM_ZipPackUnpack(benchmark::State& state) {
  std::vector<files::ZipMember> members;
  members.push_back({"payload.exe", random_bytes(50'000, 4)});
  for (auto _ : state) {
    auto archive = files::zip_pack(members);
    auto out = files::zip_unpack(archive);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_ZipPackUnpack);

void BM_QueryHitSerialize(benchmark::State& state) {
  util::Rng rng(5);
  gnutella::QueryHit hit;
  hit.addr = {util::Ipv4(1, 2, 3, 4), 6346};
  hit.servent_guid = gnutella::Guid::random(rng);
  for (int i = 0; i < state.range(0); ++i) {
    gnutella::QueryHitResult r;
    r.index = static_cast<std::uint32_t>(i);
    r.size = 58'368;
    r.filename = "some shared file number " + std::to_string(i) + ".exe";
    hit.results.push_back(std::move(r));
  }
  auto msg = gnutella::make_query_hit(gnutella::Guid::random(rng), 4, hit);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gnutella::serialize(msg));
  }
}
BENCHMARK(BM_QueryHitSerialize)->Arg(1)->Arg(10)->Arg(100);

void BM_QueryHitParse(benchmark::State& state) {
  util::Rng rng(5);
  gnutella::QueryHit hit;
  hit.servent_guid = gnutella::Guid::random(rng);
  for (int i = 0; i < state.range(0); ++i) {
    gnutella::QueryHitResult r;
    r.filename = "file " + std::to_string(i) + ".exe";
    hit.results.push_back(std::move(r));
  }
  auto wire = gnutella::serialize(
      gnutella::make_query_hit(gnutella::Guid::random(rng), 4, hit));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gnutella::parse(wire));
  }
}
BENCHMARK(BM_QueryHitParse)->Arg(1)->Arg(10)->Arg(100);

void BM_QrpHash(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(gnutella::qrp_hash("somekeyword", 13));
  }
}
BENCHMARK(BM_QrpHash);

void BM_QrtMatch(benchmark::State& state) {
  gnutella::QueryRouteTable qrt(13);
  for (int i = 0; i < 500; ++i) {
    qrt.add_keywords("file number " + std::to_string(i) + " content");
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(qrt.matches("file number 250 content"));
  }
}
BENCHMARK(BM_QrtMatch);

// A leaf's 13-bit table (500 shared files) encoded as the PATCH it ships,
// and decoded as its ultrapeer does on receipt; items/s is patches/s.
gnutella::QueryRouteTable leaf_qrt() {
  gnutella::QueryRouteTable qrt(13);
  for (int i = 0; i < 500; ++i) {
    qrt.add_keywords("file number " + std::to_string(i) + " content");
  }
  return qrt;
}

void BM_QrpPatchEncode(benchmark::State& state) {
  gnutella::QueryRouteTable qrt = leaf_qrt();
  for (auto _ : state) {
    benchmark::DoNotOptimize(qrt.to_patch_bytes());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_QrpPatchEncode);

void BM_QrpPatchDecode(benchmark::State& state) {
  util::Bytes patch = leaf_qrt().to_patch_bytes();
  gnutella::QueryRouteTable qrt(13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qrt.from_patch_bytes(patch));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_QrpPatchDecode);

// One leaf's QRP table as send_qrt builds it on every ultrapeer link: 500
// shared files on a population-wide interner that 20 other leaves have
// already filled; items/s is tables/s.
void BM_LeafQrtBuild(benchmark::State& state) {
  static const char* const kWords[] = {"blue",  "horizon", "midnight", "rain", "live",
                                       "remix", "setup",   "tool",     "2006", "crack",
                                       "album", "track",   "video",    "divx", "keygen"};
  static const char* const kExts[] = {".mp3", ".avi", ".exe", ".zip", ".wma"};
  util::Rng rng(7);
  auto name = [&rng] {
    std::string n;
    for (std::size_t w = 0, words = 2 + rng.index(4); w < words; ++w) {
      n += kWords[rng.index(std::size(kWords))];
      n += w == 0 ? " - " : " ";
    }
    return n + std::to_string(rng.index(2000)) + kExts[rng.index(std::size(kExts))];
  };
  std::vector<std::string> catalog;
  for (int i = 0; i < 5000; ++i) catalog.push_back(name());
  auto interner = std::make_shared<gnutella::TokenInterner>();
  auto leaf = [&] {
    gnutella::SharedFileIndex index(interner);
    for (int f = 0; f < 500; ++f) {
      index.add(std::make_shared<const files::FileContent>(
          catalog[rng.index(catalog.size())], util::Bytes(16, 0x61)));
    }
    return index;
  };
  for (int other = 0; other < 20; ++other) leaf();
  gnutella::SharedFileIndex index = leaf();
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.build_qrt(13));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LeafQrtBuild);

// GuidHash over 1024 random GUIDs per iteration; items/s is hashes/s.
void BM_GuidHash(benchmark::State& state) {
  util::Rng rng(11);
  std::vector<gnutella::Guid> guids;
  for (int i = 0; i < 1024; ++i) guids.push_back(gnutella::Guid::random(rng));
  gnutella::GuidHash hash;
  for (auto _ : state) {
    std::size_t acc = 0;
    for (const auto& g : guids) acc ^= hash(g);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_GuidHash);

void BM_KeywordMatch(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        util::keyword_match("blue horizon", "blue horizon - midnight rain (live).mp3"));
  }
}
BENCHMARK(BM_KeywordMatch);

// -- Observability overhead: the cost of one record on the hot path --------

void BM_ObsCounterAdd(benchmark::State& state) {
  obs::Counter& c = obs::MetricsRegistry::global().counter("micro.counter");
  for (auto _ : state) {
    c.add(1);
    benchmark::DoNotOptimize(&c);
  }
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsHistogramRecord(benchmark::State& state) {
  obs::Histogram& h = obs::MetricsRegistry::global().histogram(
      "micro.histogram", obs::HistogramSpec::exponential(obs::Unit::kBytes));
  std::int64_t v = 0;
  for (auto _ : state) {
    h.record(v++);
    benchmark::DoNotOptimize(&h);
  }
}
BENCHMARK(BM_ObsHistogramRecord);

void BM_ObsTraceDisabled(benchmark::State& state) {
  // The common case: macro hits the component-enable check and bails before
  // materializing any field.
  obs::TraceBuffer::global().disable_all();
  for (auto _ : state) {
    P2P_TRACE(obs::Component::kCore, "noop", util::SimTime::zero(),
              obs::tf("k", 1));
    benchmark::DoNotOptimize(&obs::TraceBuffer::global());
  }
}
BENCHMARK(BM_ObsTraceDisabled);

}  // namespace

// Expanded BENCHMARK_MAIN so the run also leaves a metrics artifact (the
// BM_Scan* fixtures feed scanner.* counters through the normal call sites).
int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  std::ofstream out("bench_metrics_micro.json");
  if (out) {
    p2p::obs::write_json(out, p2p::obs::MetricsRegistry::global().snapshot());
  }
  return 0;
}
