// On-disk format of the crawl trace store (see DESIGN.md "Trace store").
//
// A trace file decouples the paper's two phases: record a month-scale crawl
// once, then re-run every offline analysis against the file in milliseconds.
// The format is append-only and framed in CRC32-checked blocks, so a
// truncated or bit-flipped file loses at most the damaged blocks — never
// the whole capture.
//
// Layout (all fixed-width integers little-endian, `varint` = unsigned
// LEB128, `lp_str` = varint length + bytes):
//
//   prologue   u32 magic "P2PT" | u16 version | u16 reserved(0)
//              u32 header_len (bytes of header body; capped)
//   header     lp_str network | u64 config_hash | u64 seed
//   body       u64 crawl_duration_ms
//              varint meta_count, then meta_count x (lp_str key, lp_str val)
//   header crc u32 crc32(header body)
//   blocks     until EOF: u8 kind | varint payload_len
//              | u32 crc32(kind byte + payload) | payload
//
// Block kinds:
//   1 records  payload = varint count, then `count` encoded ResponseRecords
//   2 summary  payload = study counters + crawl stats + metrics snapshot
//              (what core::save_study_trace persists beside the records)
//   other      skipped (forward compatibility)
//
// Versioning rules: `version` names the record schema. Any change to the
// record, header, or summary encoding bumps it; readers reject files whose
// version they don't implement (no silent partial decode). Truncation and
// corruption are detected per block via the payload CRC.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace p2p::trace {

inline constexpr std::uint32_t kTraceMagic = 0x54503250;  // "P2PT" on disk
/// v2: summary block gained the crawler degradation counters and the
/// fault-injection record (crawler::CrawlStats tail + fault::FaultCounters),
/// and the block CRC now covers the kind byte — a bit-flipped kind reads as
/// a corrupt block instead of a silently skipped "unknown kind".
inline constexpr std::uint16_t kTraceVersion = 2;

/// Largest accepted header body / block payload. A corrupted length field
/// must never drive an allocation; anything larger is treated as corruption.
inline constexpr std::uint64_t kMaxHeaderBytes = 1u << 16;
inline constexpr std::uint64_t kMaxBlockBytes = 1u << 26;

enum class BlockKind : std::uint8_t {
  kRecords = 1,
  kSummary = 2,
  /// Segment-backend index footer (see DESIGN.md "Segmented trace storage"):
  /// record/kind counts, sim-time bounds, and per-records-block offsets for
  /// the segment file it closes. An ordinary CRC-framed block, so pre-3
  /// readers skip it as an unknown kind — no version bump, and a segment
  /// file stays a valid single-file trace.
  kSegmentIndex = 3,
  /// Segment-directory manifest body (MANIFEST files only): the segment
  /// window plus one entry per segment file.
  kManifest = 4,
};

/// Prologue magic of a segment-directory MANIFEST ("P2PS" on disk). The
/// manifest reuses the single-file header/block framing under its own magic
/// and version: a manifest is never mistaken for a trace, or vice versa.
inline constexpr std::uint32_t kManifestMagic = 0x53503250;
inline constexpr std::uint16_t kManifestVersion = 1;

/// Canonical extension of a segment directory ("capture.p2ps/"). The
/// storage factory routes any existing directory, or any path with this
/// suffix, to the segment backend.
inline constexpr std::string_view kSegmentDirSuffix = ".p2ps";

/// Study metadata stamped at the front of every trace file. Everything a
/// replay needs to know where the records came from — and for cache layers,
/// the config hash that detects staleness.
struct TraceHeader {
  std::uint16_t version = kTraceVersion;
  /// "limewire" or "openft" ("" when a file merges networks).
  std::string network;
  /// core::config_hash of the study that produced the capture (0 = unset).
  std::uint64_t config_hash = 0;
  std::uint64_t seed = 0;
  /// Configured crawl duration (the recorded sim-time span is derivable
  /// from the records themselves).
  std::int64_t crawl_duration_ms = 0;
  /// Free-form extension metadata, preserved in order.
  std::vector<std::pair<std::string, std::string>> meta;
};

/// Why a trace failed to open. Block-level damage is not an open error —
/// readers skip damaged blocks and report them via ReadStats.
enum class TraceError {
  kNone,
  kIoError,       // cannot open / read the file
  kEmpty,         // zero-length file
  kBadMagic,      // not a trace file
  kBadVersion,    // schema version this reader does not implement
  kCorruptHeader, // header truncated or CRC mismatch
  /// Segment backend only: the directory's MANIFEST is missing, truncated,
  /// or fails its CRCs. Unlike per-segment damage (contained, counted in
  /// ReadStats), a bad manifest is a hard open error — without it there is
  /// no trusted header, window, or segment order.
  kCorruptManifest,
};

[[nodiscard]] std::string_view to_string(TraceError e);

}  // namespace p2p::trace
