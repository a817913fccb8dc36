#include "openft/packet.h"

#include <algorithm>

namespace p2p::openft {

namespace {

FtCommand command_of(const FtPayload& payload) {
  struct Visitor {
    FtCommand operator()(const VersionRequest&) { return FtCommand::kVersionRequest; }
    FtCommand operator()(const VersionResponse&) { return FtCommand::kVersionResponse; }
    FtCommand operator()(const NodeInfo&) { return FtCommand::kNodeInfo; }
    FtCommand operator()(const SessionRequest&) { return FtCommand::kSessionRequest; }
    FtCommand operator()(const SessionResponse&) { return FtCommand::kSessionResponse; }
    FtCommand operator()(const ChildRequest&) { return FtCommand::kChildRequest; }
    FtCommand operator()(const ChildResponse&) { return FtCommand::kChildResponse; }
    FtCommand operator()(const AddShare&) { return FtCommand::kAddShare; }
    FtCommand operator()(const RemShare&) { return FtCommand::kRemShare; }
    FtCommand operator()(const SearchRequest&) { return FtCommand::kSearchRequest; }
    FtCommand operator()(const SearchResponse&) { return FtCommand::kSearchResponse; }
    FtCommand operator()(const SearchEnd&) { return FtCommand::kSearchEnd; }
    FtCommand operator()(const PushRequest&) { return FtCommand::kPushRequest; }
    FtCommand operator()(const Stats&) { return FtCommand::kStats; }
    FtCommand operator()(const BrowseRequest&) { return FtCommand::kBrowseRequest; }
    FtCommand operator()(const BrowseResponse&) { return FtCommand::kBrowseResponse; }
    FtCommand operator()(const BrowseEnd&) { return FtCommand::kBrowseEnd; }
  };
  return std::visit(Visitor{}, payload);
}

void write_md5(util::ByteWriter& w, const files::Digest16& d) { w.bytes(d); }

files::Digest16 read_md5(util::ByteReader& r) {
  files::Digest16 d{};
  r.read_into(d);
  return d;
}

void write_payload(util::ByteWriter& w, const FtPayload& payload) {
  std::visit(
      [&w](const auto& p) {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, VersionRequest> ||
                      std::is_same_v<T, SessionRequest> ||
                      std::is_same_v<T, ChildRequest>) {
          // empty payload
        } else if constexpr (std::is_same_v<T, VersionResponse>) {
          w.u16be(p.major);
          w.u16be(p.minor);
          w.u16be(p.micro);
          w.u16be(p.rev);
        } else if constexpr (std::is_same_v<T, NodeInfo>) {
          w.u16be(p.klass);
          w.u32be(p.addr.ip.value());
          w.u16be(p.addr.port);
          w.u16be(p.http_port);
          w.cstr(p.alias);
        } else if constexpr (std::is_same_v<T, SessionResponse>) {
          w.u8(p.accepted ? 1 : 0);
        } else if constexpr (std::is_same_v<T, ChildResponse>) {
          w.u8(p.accepted ? 1 : 0);
        } else if constexpr (std::is_same_v<T, AddShare>) {
          write_md5(w, p.md5);
          w.u32be(p.size);
          w.cstr(p.path);
        } else if constexpr (std::is_same_v<T, RemShare>) {
          write_md5(w, p.md5);
        } else if constexpr (std::is_same_v<T, SearchRequest>) {
          w.u64le(p.search_id);
          w.u8(p.ttl);
          w.cstr(p.query);
        } else if constexpr (std::is_same_v<T, SearchResponse>) {
          w.u64le(p.search_id);
          w.u32be(p.owner.ip.value());
          w.u16be(p.owner.port);
          w.u16be(p.owner_http_port);
          write_md5(w, p.md5);
          w.u32be(p.size);
          w.cstr(p.path);
          w.u16be(p.availability);
          w.u8(p.owner_firewalled ? 1 : 0);
        } else if constexpr (std::is_same_v<T, SearchEnd>) {
          w.u64le(p.search_id);
        } else if constexpr (std::is_same_v<T, PushRequest>) {
          w.u32be(p.requester.ip.value());
          w.u16be(p.requester.port);
          write_md5(w, p.md5);
        } else if constexpr (std::is_same_v<T, Stats>) {
          w.u32be(p.users);
          w.u32be(p.shares);
          w.u32be(p.size_mb);
        } else if constexpr (std::is_same_v<T, BrowseRequest>) {
          w.u64le(p.browse_id);
        } else if constexpr (std::is_same_v<T, BrowseResponse>) {
          w.u64le(p.browse_id);
          write_md5(w, p.md5);
          w.u32be(p.size);
          w.cstr(p.path);
        } else if constexpr (std::is_same_v<T, BrowseEnd>) {
          w.u64le(p.browse_id);
          w.u32be(p.total);
        }
      },
      payload);
}

std::optional<FtPayload> read_payload(FtCommand command, util::ByteReader& r) {
  switch (command) {
    case FtCommand::kVersionRequest:
      return FtPayload{VersionRequest{}};
    case FtCommand::kVersionResponse: {
      VersionResponse v;
      v.major = r.u16be();
      v.minor = r.u16be();
      v.micro = r.u16be();
      v.rev = r.u16be();
      return FtPayload{v};
    }
    case FtCommand::kNodeInfo: {
      NodeInfo n;
      n.klass = r.u16be();
      n.addr.ip = util::Ipv4{r.u32be()};
      n.addr.port = r.u16be();
      n.http_port = r.u16be();
      n.alias = r.cstr();
      return FtPayload{std::move(n)};
    }
    case FtCommand::kSessionRequest:
      return FtPayload{SessionRequest{}};
    case FtCommand::kSessionResponse: {
      SessionResponse s;
      s.accepted = r.u8() != 0;
      return FtPayload{s};
    }
    case FtCommand::kChildRequest:
      return FtPayload{ChildRequest{}};
    case FtCommand::kChildResponse: {
      ChildResponse c;
      c.accepted = r.u8() != 0;
      return FtPayload{c};
    }
    case FtCommand::kAddShare: {
      AddShare a;
      a.md5 = read_md5(r);
      a.size = r.u32be();
      a.path = r.cstr();
      return FtPayload{std::move(a)};
    }
    case FtCommand::kRemShare: {
      RemShare rm;
      rm.md5 = read_md5(r);
      return FtPayload{rm};
    }
    case FtCommand::kSearchRequest: {
      SearchRequest s;
      s.search_id = r.u64le();
      s.ttl = r.u8();
      s.query = r.cstr();
      return FtPayload{std::move(s)};
    }
    case FtCommand::kSearchResponse: {
      SearchResponse s;
      s.search_id = r.u64le();
      s.owner.ip = util::Ipv4{r.u32be()};
      s.owner.port = r.u16be();
      s.owner_http_port = r.u16be();
      s.md5 = read_md5(r);
      s.size = r.u32be();
      s.path = r.cstr();
      s.availability = r.u16be();
      s.owner_firewalled = r.u8() != 0;
      return FtPayload{std::move(s)};
    }
    case FtCommand::kSearchEnd: {
      SearchEnd e;
      e.search_id = r.u64le();
      return FtPayload{e};
    }
    case FtCommand::kPushRequest: {
      PushRequest p;
      p.requester.ip = util::Ipv4{r.u32be()};
      p.requester.port = r.u16be();
      p.md5 = read_md5(r);
      return FtPayload{p};
    }
    case FtCommand::kStats: {
      Stats s;
      s.users = r.u32be();
      s.shares = r.u32be();
      s.size_mb = r.u32be();
      return FtPayload{s};
    }
    case FtCommand::kBrowseRequest: {
      BrowseRequest b;
      b.browse_id = r.u64le();
      return FtPayload{b};
    }
    case FtCommand::kBrowseResponse: {
      BrowseResponse b;
      b.browse_id = r.u64le();
      b.md5 = read_md5(r);
      b.size = r.u32be();
      b.path = r.cstr();
      return FtPayload{std::move(b)};
    }
    case FtCommand::kBrowseEnd: {
      BrowseEnd b;
      b.browse_id = r.u64le();
      b.total = r.u32be();
      return FtPayload{b};
    }
  }
  return std::nullopt;
}

}  // namespace

util::Payload serialize(const FtPacket& pkt) {
  return util::encode_payload([&](util::ByteWriter& w) {
    util::write_tagged_frame_be16(w, static_cast<std::uint16_t>(pkt.command),
                                  [&](util::ByteWriter& body) { write_payload(body, pkt.payload); });
  });
}

std::optional<FtPacket> parse(util::ByteView wire) {
  auto frame = util::parse_tagged_frame_be16(wire);
  if (!frame) return std::nullopt;
  if (frame->tag > static_cast<std::uint16_t>(FtCommand::kBrowseEnd)) {
    return std::nullopt;
  }
  util::ByteReader r(frame->payload);
  try {
    FtPacket pkt;
    pkt.command = static_cast<FtCommand>(frame->tag);
    auto payload = read_payload(pkt.command, r);
    if (!payload) return std::nullopt;
    pkt.payload = std::move(*payload);
    if (!r.empty()) return std::nullopt;
    return pkt;
  } catch (const util::BufferUnderflow&) {
    return std::nullopt;
  }
}

FtPacket make_packet(FtPayload payload) {
  FtPacket pkt;
  pkt.command = command_of(payload);
  pkt.payload = std::move(payload);
  return pkt;
}

}  // namespace p2p::openft
