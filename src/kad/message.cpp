#include "kad/message.h"

#include <algorithm>

namespace p2p::kad {

namespace {

KadCommand command_of(const KadPayload& payload) {
  struct Visitor {
    KadCommand operator()(const Ping&) { return KadCommand::kPing; }
    KadCommand operator()(const Pong&) { return KadCommand::kPong; }
    KadCommand operator()(const FindNode&) { return KadCommand::kFindNode; }
    KadCommand operator()(const FindNodeReply&) { return KadCommand::kFindNodeReply; }
    KadCommand operator()(const FindValue&) { return KadCommand::kFindValue; }
    KadCommand operator()(const FindValueReply&) { return KadCommand::kFindValueReply; }
    KadCommand operator()(const Store&) { return KadCommand::kStore; }
    KadCommand operator()(const StoreReply&) { return KadCommand::kStoreReply; }
    KadCommand operator()(const ServerRegister&) { return KadCommand::kServerRegister; }
    KadCommand operator()(const ServerQuery&) { return KadCommand::kServerQuery; }
    KadCommand operator()(const ServerQueryReply&) { return KadCommand::kServerQueryReply; }
  };
  return std::visit(Visitor{}, payload);
}

void write_id(util::ByteWriter& w, const KadId& id) {
  w.u64le(id.hi);
  w.u64le(id.lo);
}

KadId read_id(util::ByteReader& r) {
  KadId id;
  id.hi = r.u64le();
  id.lo = r.u64le();
  return id;
}

void write_md5(util::ByteWriter& w, const files::Digest16& d) { w.bytes(d); }

files::Digest16 read_md5(util::ByteReader& r) {
  files::Digest16 d{};
  r.read_into(d);
  return d;
}

void write_endpoint(util::ByteWriter& w, const util::Endpoint& ep) {
  w.u32be(ep.ip.value());
  w.u16be(ep.port);
}

util::Endpoint read_endpoint(util::ByteReader& r) {
  util::Endpoint ep;
  ep.ip = util::Ipv4{r.u32be()};
  ep.port = r.u16be();
  return ep;
}

void write_contact(util::ByteWriter& w, const Contact& c) {
  write_id(w, c.id);
  write_endpoint(w, c.addr);
  w.u8(c.firewalled ? 1 : 0);
}

Contact read_contact(util::ByteReader& r) {
  Contact c;
  c.id = read_id(r);
  c.addr = read_endpoint(r);
  c.firewalled = r.u8() != 0;
  return c;
}

void write_entry(util::ByteWriter& w, const SourceEntry& e) {
  write_id(w, e.keyword);
  w.lp_str(e.filename);
  w.u64le(e.size);
  write_md5(w, e.md5);
  write_endpoint(w, e.owner);
  w.u8(e.firewalled ? 1 : 0);
}

SourceEntry read_entry(util::ByteReader& r) {
  SourceEntry e;
  e.keyword = read_id(r);
  e.filename = r.lp_str();
  e.size = r.u64le();
  e.md5 = read_md5(r);
  e.owner = read_endpoint(r);
  e.firewalled = r.u8() != 0;
  return e;
}

/// Count-prefixed vectors. Writers cap at the wire limit; the parse side
/// rejects oversized counts outright (returns false) so malformed input
/// can't force large allocations.
template <typename T, typename WriteFn>
void write_vec(util::ByteWriter& w, const std::vector<T>& v, std::size_t cap,
               WriteFn&& write_one) {
  std::size_t n = std::min(v.size(), cap);
  w.u16be(static_cast<std::uint16_t>(n));
  for (std::size_t i = 0; i < n; ++i) write_one(w, v[i]);
}

template <typename T, typename ReadFn>
bool read_vec(util::ByteReader& r, std::vector<T>& out, std::size_t cap,
              ReadFn&& read_one) {
  std::size_t n = r.u16be();
  if (n > cap) return false;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(read_one(r));
  return true;
}

void write_payload(util::ByteWriter& w, const KadPayload& payload) {
  std::visit(
      [&w](const auto& p) {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, Ping> || std::is_same_v<T, Pong>) {
          write_contact(w, p.sender);
        } else if constexpr (std::is_same_v<T, FindNode>) {
          write_contact(w, p.sender);
          write_id(w, p.target);
        } else if constexpr (std::is_same_v<T, FindNodeReply>) {
          write_vec(w, p.contacts, kMaxContacts, write_contact);
        } else if constexpr (std::is_same_v<T, FindValue>) {
          write_contact(w, p.sender);
          write_id(w, p.key);
        } else if constexpr (std::is_same_v<T, FindValueReply>) {
          write_vec(w, p.entries, kMaxEntries, write_entry);
          write_vec(w, p.contacts, kMaxContacts, write_contact);
        } else if constexpr (std::is_same_v<T, Store>) {
          write_contact(w, p.sender);
          write_vec(w, p.entries, kMaxEntries, write_entry);
        } else if constexpr (std::is_same_v<T, StoreReply>) {
          w.u32be(p.stored);
        } else if constexpr (std::is_same_v<T, ServerRegister>) {
          write_endpoint(w, p.owner);
          w.u8(p.firewalled ? 1 : 0);
          write_vec(w, p.entries, kMaxEntries, write_entry);
        } else if constexpr (std::is_same_v<T, ServerQuery>) {
          w.u64le(p.query_id);
          w.lp_str(p.query);
        } else if constexpr (std::is_same_v<T, ServerQueryReply>) {
          w.u64le(p.query_id);
          write_vec(w, p.entries, kMaxEntries, write_entry);
        }
      },
      payload);
}

std::optional<KadPayload> read_payload(KadCommand command, util::ByteReader& r) {
  switch (command) {
    case KadCommand::kPing: {
      Ping p;
      p.sender = read_contact(r);
      return KadPayload{p};
    }
    case KadCommand::kPong: {
      Pong p;
      p.sender = read_contact(r);
      return KadPayload{p};
    }
    case KadCommand::kFindNode: {
      FindNode f;
      f.sender = read_contact(r);
      f.target = read_id(r);
      return KadPayload{f};
    }
    case KadCommand::kFindNodeReply: {
      FindNodeReply f;
      if (!read_vec(r, f.contacts, kMaxContacts, read_contact)) return std::nullopt;
      return KadPayload{std::move(f)};
    }
    case KadCommand::kFindValue: {
      FindValue f;
      f.sender = read_contact(r);
      f.key = read_id(r);
      return KadPayload{f};
    }
    case KadCommand::kFindValueReply: {
      FindValueReply f;
      if (!read_vec(r, f.entries, kMaxEntries, read_entry)) return std::nullopt;
      if (!read_vec(r, f.contacts, kMaxContacts, read_contact)) return std::nullopt;
      return KadPayload{std::move(f)};
    }
    case KadCommand::kStore: {
      Store s;
      s.sender = read_contact(r);
      if (!read_vec(r, s.entries, kMaxEntries, read_entry)) return std::nullopt;
      return KadPayload{std::move(s)};
    }
    case KadCommand::kStoreReply: {
      StoreReply s;
      s.stored = r.u32be();
      return KadPayload{s};
    }
    case KadCommand::kServerRegister: {
      ServerRegister s;
      s.owner = read_endpoint(r);
      s.firewalled = r.u8() != 0;
      if (!read_vec(r, s.entries, kMaxEntries, read_entry)) return std::nullopt;
      return KadPayload{std::move(s)};
    }
    case KadCommand::kServerQuery: {
      ServerQuery s;
      s.query_id = r.u64le();
      s.query = r.lp_str();
      return KadPayload{std::move(s)};
    }
    case KadCommand::kServerQueryReply: {
      ServerQueryReply s;
      s.query_id = r.u64le();
      if (!read_vec(r, s.entries, kMaxEntries, read_entry)) return std::nullopt;
      return KadPayload{std::move(s)};
    }
  }
  return std::nullopt;
}

}  // namespace

util::Payload serialize(const KadPacket& pkt) {
  return util::encode_payload([&](util::ByteWriter& w) {
    util::write_tagged_frame_be16(w, static_cast<std::uint16_t>(pkt.command),
                                  [&](util::ByteWriter& body) { write_payload(body, pkt.payload); });
  });
}

std::optional<KadPacket> parse(util::ByteView wire) {
  auto frame = util::parse_tagged_frame_be16(wire);
  if (!frame) return std::nullopt;
  if (frame->tag > static_cast<std::uint16_t>(KadCommand::kServerQueryReply)) {
    return std::nullopt;
  }
  util::ByteReader r(frame->payload);
  try {
    KadPacket pkt;
    pkt.command = static_cast<KadCommand>(frame->tag);
    auto payload = read_payload(pkt.command, r);
    if (!payload) return std::nullopt;
    pkt.payload = std::move(*payload);
    if (!r.empty()) return std::nullopt;
    return pkt;
  } catch (const util::BufferUnderflow&) {
    return std::nullopt;
  }
}

KadPacket make_packet(KadPayload payload) {
  KadPacket pkt;
  pkt.command = command_of(payload);
  pkt.payload = std::move(payload);
  return pkt;
}

}  // namespace p2p::kad
