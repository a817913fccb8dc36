// The unit of analysis: one query response (one file offer from one host),
// as the paper's instrumented clients logged them, later joined with the
// download + scan outcome for its content.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "files/file_types.h"
#include "malware/strain.h"
#include "util/ip.h"
#include "util/sim_time.h"

namespace p2p::crawler {

struct ResponseRecord {
  std::uint64_t id = 0;
  /// Which instrumented client logged it: "limewire", "openft", "kad", or
  /// "kad.honeypot/NN" for the NNth passive KAD vantage point.
  std::string network;
  util::SimTime at;

  std::string query;
  std::string query_category;

  std::string filename;
  std::uint64_t size = 0;
  files::FileType type_by_name = files::FileType::kOther;

  /// Source host as advertised in the response (may be an RFC1918 address).
  util::Ipv4 source_ip;
  std::uint16_t source_port = 0;
  /// Stable per-host key (includes servent GUID on Gnutella, where NATed
  /// hosts can advertise colliding private addresses).
  std::string source_key;
  bool source_firewalled = false;

  /// Content identity key (sha1 hex on Gnutella, md5 hex on OpenFT).
  std::string content_key;

  // -- Filled after the content was fetched and scanned ---------------------
  bool download_attempted = false;
  bool downloaded = false;
  bool infected = false;
  malware::StrainId strain = malware::kCleanStrain;
  std::string strain_name;
  files::FileType type_by_magic = files::FileType::kOther;

  /// The paper's headline predicate: a response offering an archive or
  /// executable (by advertised name).
  [[nodiscard]] bool is_study_type() const {
    return files::is_study_type(type_by_name);
  }
};

/// Consumer of a study's finished crawl log, fed one record at a time in
/// log order by merge_logs — the capture hook the trace store (src/trace)
/// plugs into.
class RecordSink {
 public:
  virtual ~RecordSink() = default;
  virtual void on_record(const ResponseRecord& record) = 0;
};

/// The one rule that turns a study's record streams (one per crawler or
/// vantage, each in time order) into its crawl log: a k-way merge by time
/// that breaks ties by stream index, ids renumbered 1..N, and every record
/// sent to `sink` (when not null) in log order. The inputs are consumed; a
/// lone non-empty stream is moved through without a copy. Throws
/// std::logic_error, before anything reaches the sink, if a stream is not
/// time-ordered.
[[nodiscard]] std::vector<ResponseRecord> merge_logs(
    std::vector<std::vector<ResponseRecord>> streams, RecordSink* sink = nullptr);

}  // namespace p2p::crawler
