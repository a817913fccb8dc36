#include "gnutella/message.h"

#include <cstring>
#include <string_view>

namespace p2p::gnutella {

namespace {

constexpr std::uint8_t kQhdPushFlag = 0x01;
constexpr std::string_view kUrnPrefix = "urn:sha1:";
// GUID(16) | type | TTL | hops, then the payload length at this offset.
constexpr std::size_t kLengthOffset = 19;
constexpr std::size_t kHeaderSize = 23;

void write_ip(util::ByteWriter& w, util::Ipv4 ip) {
  // IPv4 on the Gnutella wire is big-endian (network order) bytes.
  w.u32be(ip.value());
}

util::Ipv4 read_ip(util::ByteReader& r) { return util::Ipv4{r.u32be()}; }

void write_payload(util::ByteWriter& w, const Payload& payload) {
  std::visit(
      [&w](const auto& p) {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, Ping>) {
          // empty payload
        } else if constexpr (std::is_same_v<T, Bye>) {
          w.u16le(p.code);
          w.cstr(p.reason);
        } else if constexpr (std::is_same_v<T, Pong>) {
          w.u16le(p.addr.port);
          write_ip(w, p.addr.ip);
          w.u32le(p.file_count);
          w.u32le(p.kb_shared);
        } else if constexpr (std::is_same_v<T, Query>) {
          w.u16le(p.min_speed);
          w.cstr(p.criteria);
        } else if constexpr (std::is_same_v<T, QueryHit>) {
          w.u8(static_cast<std::uint8_t>(p.results.size()));
          w.u16le(p.addr.port);
          write_ip(w, p.addr.ip);
          w.u32le(p.speed);
          for (const auto& r : p.results) {
            w.u32le(r.index);
            w.u32le(r.size);
            w.cstr(r.filename);
            w.str(kUrnPrefix);
            w.hex(r.sha1);
            w.u8(0);
          }
          // Minimal EQHD-style trailer: vendor code, open-data length,
          // flags byte (push bit), then the 16-byte servent GUID.
          w.str("P2PM");
          w.u8(1);
          w.u8(p.needs_push ? kQhdPushFlag : 0);
          w.bytes(p.servent_guid.bytes);
        } else if constexpr (std::is_same_v<T, Push>) {
          w.bytes(p.servent_guid.bytes);
          w.u32le(p.file_index);
          write_ip(w, p.requester.ip);
          w.u16le(p.requester.port);
        } else if constexpr (std::is_same_v<T, Qrp>) {
          std::visit(
              [&w](const auto& op) {
                using O = std::decay_t<decltype(op)>;
                if constexpr (std::is_same_v<O, QrpReset>) {
                  w.u8(0x0);  // RESET variant
                  w.u32le(op.table_bits);
                } else {
                  w.u8(0x1);  // PATCH variant (uncompressed, 8-bit entries)
                  w.u32le(static_cast<std::uint32_t>(op.bits.size()));
                  w.bytes(op.bits);
                }
              },
              p.op);
        }
      },
      payload);
}

std::optional<Payload> read_payload(MsgType type, util::ByteReader& r) {
  switch (type) {
    case MsgType::kPing:
      return Payload{Ping{}};
    case MsgType::kBye: {
      Bye bye;
      bye.code = r.u16le();
      bye.reason = r.cstr();
      return Payload{std::move(bye)};
    }
    case MsgType::kPong: {
      Pong p;
      p.addr.port = r.u16le();
      p.addr.ip = read_ip(r);
      p.file_count = r.u32le();
      p.kb_shared = r.u32le();
      return Payload{p};
    }
    case MsgType::kQuery: {
      Query q;
      q.min_speed = r.u16le();
      q.criteria = r.cstr();
      return Payload{q};
    }
    case MsgType::kQueryHit: {
      QueryHit h;
      std::uint8_t n = r.u8();
      h.addr.port = r.u16le();
      h.addr.ip = read_ip(r);
      h.speed = r.u32le();
      h.results.reserve(n);
      for (std::uint8_t i = 0; i < n; ++i) {
        QueryHitResult res;
        res.index = r.u32le();
        res.size = r.u32le();
        res.filename = r.cstr();
        // A malformed urn leaves the digest zero.
        if (std::string_view ext = r.cstr_view(); ext.starts_with(kUrnPrefix)) {
          (void)util::from_hex_into(ext.substr(kUrnPrefix.size()), res.sha1);
        }
        h.results.push_back(std::move(res));
      }
      r.skip(4);  // vendor code
      std::uint8_t open_data_len = r.u8();
      if (open_data_len >= 1) {
        std::uint8_t flags = r.u8();
        h.needs_push = (flags & kQhdPushFlag) != 0;
        if (open_data_len > 1) r.skip(open_data_len - 1);
      }
      r.read_into(h.servent_guid.bytes);
      return Payload{std::move(h)};
    }
    case MsgType::kPush: {
      Push p;
      r.read_into(p.servent_guid.bytes);
      p.file_index = r.u32le();
      p.requester.ip = read_ip(r);
      p.requester.port = r.u16le();
      return Payload{p};
    }
    case MsgType::kQrp: {
      std::uint8_t variant = r.u8();
      if (variant == 0x0) {
        QrpReset reset;
        reset.table_bits = r.u32le();
        return Payload{Qrp{reset}};
      }
      if (variant == 0x1) {
        QrpPatch patch;
        std::uint32_t len = r.u32le();
        patch.bits = r.bytes(len);
        return Payload{Qrp{std::move(patch)}};
      }
      return std::nullopt;
    }
  }
  return std::nullopt;
}

}  // namespace

util::Payload serialize(const Message& msg) { return serialize(msg.header, msg.payload); }

util::Payload serialize(const Header& header, const Payload& payload) {
  return util::encode_payload([&](util::ByteWriter& w) {
    w.bytes(header.guid.bytes);
    w.u8(static_cast<std::uint8_t>(header.type));
    w.u8(header.ttl);
    w.u8(header.hops);
    w.u32le(0);  // payload length, patched once the payload is written
    write_payload(w, payload);
    w.patch_u32le(kLengthOffset, static_cast<std::uint32_t>(w.size() - kHeaderSize));
  });
}

std::optional<Message> parse(util::ByteView wire) {
  util::ByteReader r(wire);
  try {
    Message msg;
    r.read_into(msg.header.guid.bytes);
    std::uint8_t type = r.u8();
    switch (type) {
      case 0x00: case 0x01: case 0x02: case 0x30: case 0x40: case 0x80: case 0x81:
        msg.header.type = static_cast<MsgType>(type);
        break;
      default:
        return std::nullopt;
    }
    msg.header.ttl = r.u8();
    msg.header.hops = r.u8();
    std::uint32_t payload_len = r.u32le();
    if (payload_len != r.remaining()) return std::nullopt;
    auto payload = read_payload(msg.header.type, r);
    if (!payload) return std::nullopt;
    msg.payload = std::move(*payload);
    if (!r.empty() && msg.header.type != MsgType::kQueryHit) return std::nullopt;
    return msg;
  } catch (const util::BufferUnderflow&) {
    return std::nullopt;
  }
}

Message make_ping(Guid guid, std::uint8_t ttl) {
  return Message{Header{guid, MsgType::kPing, ttl, 0}, Ping{}};
}

Message make_pong(Guid guid, std::uint8_t ttl, const Pong& pong) {
  return Message{Header{guid, MsgType::kPong, ttl, 0}, pong};
}

Message make_query(Guid guid, std::uint8_t ttl, std::string criteria,
                   std::uint16_t min_speed) {
  return Message{Header{guid, MsgType::kQuery, ttl, 0},
                 Query{min_speed, std::move(criteria)}};
}

Message make_query_hit(Guid guid, std::uint8_t ttl, QueryHit hit) {
  return Message{Header{guid, MsgType::kQueryHit, ttl, 0}, std::move(hit)};
}

Message make_push(Guid guid, std::uint8_t ttl, const Push& push) {
  return Message{Header{guid, MsgType::kPush, ttl, 0}, push};
}

Message make_qrp_reset(Guid guid, std::uint32_t table_bits) {
  return Message{Header{guid, MsgType::kQrp, 1, 0}, Qrp{QrpReset{table_bits}}};
}

Message make_qrp_patch(Guid guid, util::Bytes bits) {
  return Message{Header{guid, MsgType::kQrp, 1, 0}, Qrp{QrpPatch{std::move(bits)}}};
}

Message make_bye(Guid guid, std::uint16_t code, std::string reason) {
  return Message{Header{guid, MsgType::kBye, 1, 0}, Bye{code, std::move(reason)}};
}

}  // namespace p2p::gnutella
