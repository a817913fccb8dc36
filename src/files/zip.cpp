#include "files/zip.h"

#include "files/hash.h"

namespace p2p::files {

namespace {
constexpr std::uint32_t kLocalSig = 0x04034b50u;
constexpr std::uint32_t kCentralSig = 0x02014b50u;
constexpr std::uint32_t kEocdSig = 0x06054b50u;
// Fixed DOS timestamp (2006-04-01 12:00) — deterministic output.
constexpr std::uint16_t kDosTime = (12u << 11);
constexpr std::uint16_t kDosDate = ((2006u - 1980u) << 9) | (4u << 5) | 1u;
}  // namespace

util::Bytes zip_pack(const std::vector<ZipMember>& members) {
  util::ByteWriter w;
  struct CentralEntry {
    std::uint32_t crc;
    std::uint32_t size;
    std::uint32_t offset;
    std::string name;
  };
  std::vector<CentralEntry> central;
  central.reserve(members.size());

  for (const auto& m : members) {
    auto offset = static_cast<std::uint32_t>(w.size());
    std::uint32_t crc = util::crc32(m.data);
    auto size = static_cast<std::uint32_t>(m.data.size());
    w.u32le(kLocalSig);
    w.u16le(20);  // version needed
    w.u16le(0);   // flags
    w.u16le(0);   // method: stored
    w.u16le(kDosTime);
    w.u16le(kDosDate);
    w.u32le(crc);
    w.u32le(size);  // compressed == uncompressed (stored)
    w.u32le(size);
    w.u16le(static_cast<std::uint16_t>(m.name.size()));
    w.u16le(0);  // extra length
    w.str(m.name);
    w.bytes(m.data);
    central.push_back({crc, size, offset, m.name});
  }

  auto cd_offset = static_cast<std::uint32_t>(w.size());
  for (const auto& e : central) {
    w.u32le(kCentralSig);
    w.u16le(20);  // version made by
    w.u16le(20);  // version needed
    w.u16le(0);   // flags
    w.u16le(0);   // method
    w.u16le(kDosTime);
    w.u16le(kDosDate);
    w.u32le(e.crc);
    w.u32le(e.size);
    w.u32le(e.size);
    w.u16le(static_cast<std::uint16_t>(e.name.size()));
    w.u16le(0);  // extra
    w.u16le(0);  // comment
    w.u16le(0);  // disk number
    w.u16le(0);  // internal attrs
    w.u32le(0);  // external attrs
    w.u32le(e.offset);
    w.str(e.name);
  }
  auto cd_size = static_cast<std::uint32_t>(w.size()) - cd_offset;

  w.u32le(kEocdSig);
  w.u16le(0);  // this disk
  w.u16le(0);  // cd disk
  w.u16le(static_cast<std::uint16_t>(central.size()));
  w.u16le(static_cast<std::uint16_t>(central.size()));
  w.u32le(cd_size);
  w.u32le(cd_offset);
  w.u16le(0);  // comment length
  return std::move(w).take();
}

std::optional<std::vector<ZipMember>> zip_unpack(const util::Bytes& archive) {
  std::vector<ZipMember> out;
  util::ByteReader r(archive);
  try {
    while (r.remaining() >= 4) {
      std::size_t mark = r.position();
      std::uint32_t sig = r.u32le();
      if (sig == kCentralSig || sig == kEocdSig) {
        (void)mark;
        return out;  // reached central directory: done with members
      }
      if (sig != kLocalSig) return std::nullopt;
      r.skip(2);  // version
      std::uint16_t flags = r.u16le();
      std::uint16_t method = r.u16le();
      r.skip(4);  // time + date
      std::uint32_t crc = r.u32le();
      std::uint32_t csize = r.u32le();
      std::uint32_t usize = r.u32le();
      std::uint16_t nlen = r.u16le();
      std::uint16_t elen = r.u16le();
      if (method != 0 || csize != usize) return std::nullopt;  // store-only
      if (flags & 0x08) return std::nullopt;  // data descriptors unsupported
      std::string name = r.str(nlen);
      r.skip(elen);
      util::Bytes data = r.bytes(csize);
      if (util::crc32(data) != crc) return std::nullopt;
      out.push_back(ZipMember{std::move(name), std::move(data)});
    }
  } catch (const util::BufferUnderflow&) {
    return std::nullopt;
  }
  return out;
}

bool zip_looks_valid(const util::Bytes& archive) {
  if (archive.size() < 22) return false;
  util::ByteReader r(archive);
  try {
    if (r.u32le() != kLocalSig && archive.size() != 22) return false;
  } catch (const util::BufferUnderflow&) {
    return false;
  }
  // Scan backwards for EOCD signature (no comment support needed).
  for (std::size_t i = archive.size() - 22; ; --i) {
    if (archive[i] == 0x50 && archive[i + 1] == 0x4b && archive[i + 2] == 0x05 &&
        archive[i + 3] == 0x06) {
      return true;
    }
    if (i == 0) break;
  }
  return false;
}

}  // namespace p2p::files
