// Pinned wire bytes: every Gnutella descriptor, every KAD and OpenFT
// command, the Gnutella HTTP/GIV exchange and the OpenFT/KAD transfer
// GET/response, each compared as hex against an encoding captured from the
// reference codec. A codec rewrite that changes a single byte, a length
// field's offset or a hex digit's order fails here by name. The last case
// drives a real ultrapeer between scripted peers and pins the forwarded
// query, query hit and push as they arrive, so a forward that keeps the
// old TTL or hops fails too.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "files/transfer.h"
#include "gnutella/http.h"
#include "gnutella/message.h"
#include "gnutella/servent.h"
#include "gnutella/shared_index.h"
#include "kad/message.h"
#include "openft/packet.h"
#include "sim/network.h"

namespace p2p {
namespace {

std::string hex(util::ByteView wire) { return util::to_hex(wire); }

/// Bytes 0x<start>, 0x<start+1>, ... of a fixed-size array.
template <typename Array>
Array counting(std::uint8_t start) {
  Array a{};
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<std::uint8_t>(start + i);
  }
  return a;
}

gnutella::Guid guid(std::uint8_t start) {
  return gnutella::Guid{counting<std::array<std::uint8_t, 16>>(start)};
}

// ---------------------------------------------------------------------------
// Gnutella descriptors
// ---------------------------------------------------------------------------

using namespace gnutella;

TEST(WireGolden, GnutellaPing) {
  EXPECT_EQ(hex(serialize(make_ping(guid(0x10), 7))),
            "101112131415161718191a1b1c1d1e1f00070000000000");
}

TEST(WireGolden, GnutellaPong) {
  Pong pong;
  pong.addr = {util::Ipv4(10, 20, 30, 40), 6346};
  pong.file_count = 123;
  pong.kb_shared = 0x01020304;
  auto msg = make_pong(guid(0x20), 5, pong);
  msg.header.hops = 2;
  EXPECT_EQ(hex(serialize(msg)),
            "202122232425262728292a2b2c2d2e2f0105020e000000ca180a141e287b0000"
            "0004030201");
}

TEST(WireGolden, GnutellaBye) {
  EXPECT_EQ(hex(serialize(make_bye(guid(0x30), 502, "shutting down"))),
            "303132333435363738393a3b3c3d3e3f02010010000000f6017368757474696e"
            "6720646f776e00");
}

TEST(WireGolden, GnutellaQuery) {
  EXPECT_EQ(hex(serialize(make_query(guid(0x40), 4, "blue horizon mp3", 56))),
            "404142434445464748494a4b4c4d4e4f800400130000003800626c756520686f"
            "72697a6f6e206d703300");
}

TEST(WireGolden, GnutellaQueryHitThreeResultsWithPush) {
  QueryHit hit;
  hit.addr = {util::Ipv4(1, 2, 3, 4), 6347};
  hit.speed = 1000;
  hit.needs_push = true;
  hit.servent_guid = guid(0x50);
  const char* names[3] = {"setup tool 2006.exe", "album track one.mp3", "x.zip"};
  for (std::uint32_t i = 0; i < 3; ++i) {
    QueryHitResult r;
    r.index = i + 1;
    r.size = 4096 * (i + 1);
    r.filename = names[i];
    r.sha1 = counting<files::Digest20>(static_cast<std::uint8_t>(0xa0 + 0x10 * i));
    hit.results.push_back(r);
  }
  auto msg = make_query_hit(guid(0x60), 3, hit);
  msg.header.hops = 1;
  EXPECT_EQ(hex(serialize(msg)),
            "606162636465666768696a6b6c6d6e6f810301fd00000003cb1801020304e803"
            "00000100000000100000736574757020746f6f6c20323030362e657865007572"
            "6e3a736861313a61306131613261336134613561366137613861396161616261"
            "636164616561666230623162326233000200000000200000616c62756d207472"
            "61636b206f6e652e6d70330075726e3a736861313a6230623162326233623462"
            "3562366237623862396261626262636264626562666330633163326333000300"
            "000000300000782e7a69700075726e3a736861313a6330633163326333633463"
            "3563366337633863396361636263636364636563666430643164326433005032"
            "504d0101505152535455565758595a5b5c5d5e5f");
}

TEST(WireGolden, GnutellaPush) {
  Push push;
  push.servent_guid = guid(0x70);
  push.file_index = 42;
  push.requester = {util::Ipv4(9, 8, 7, 6), 6348};
  EXPECT_EQ(hex(serialize(make_push(guid(0x80), 6, push))),
            "808182838485868788898a8b8c8d8e8f4006001a000000707172737475767778"
            "797a7b7c7d7e7f2a00000009080706cc18");
}

TEST(WireGolden, GnutellaQrpReset) {
  EXPECT_EQ(hex(serialize(make_qrp_reset(guid(0x90), 13))),
            "909192939495969798999a9b9c9d9e9f30010005000000000d000000");
}

TEST(WireGolden, GnutellaQrpPatch) {
  util::Bytes bits(24, 0);
  for (std::size_t i = 0; i < bits.size(); i += 3) bits[i] = 1;
  EXPECT_EQ(hex(serialize(make_qrp_patch(guid(0xa0), bits))),
            "a0a1a2a3a4a5a6a7a8a9aaabacadaeaf3001001d000000011800000001000001"
            "0000010000010000010000010000010000010000");
}

// ---------------------------------------------------------------------------
// Gnutella HTTP transfer and PUSH connect-back
// ---------------------------------------------------------------------------

TEST(WireGolden, HttpGetRequest) {
  EXPECT_EQ(hex(make_get_request(17, "blue horizon (live).mp3").serialize()),
            "474554202f6765742f31372f626c7565253230686f72697a6f6e253230253238"
            "6c6976652532392e6d703320485454502f312e310d0a557365722d4167656e74"
            "3a205032504d414c2f312e300d0a436f6e6e656374696f6e3a20636c6f73650d"
            "0a0d0a");
}

TEST(WireGolden, HttpResponseWithBody) {
  HttpResponse resp;
  resp.headers = {{"Server", "P2PMAL/1.0"}, {"Content-Type", "application/binary"}};
  resp.body = {'M', 'Z', 0x00, 0xff, 0x90};
  EXPECT_EQ(hex(resp.serialize()),
            "485454502f312e3120323030204f4b0d0a5365727665723a205032504d414c2f"
            "312e300d0a436f6e74656e742d547970653a206170706c69636174696f6e2f62"
            "696e6172790d0a436f6e74656e742d4c656e6774683a20350d0a0d0a4d5a00ff"
            "90");
}

TEST(WireGolden, HttpResponseNotFound) {
  HttpResponse resp;
  resp.status = 404;
  resp.reason = "Not Found";
  EXPECT_EQ(hex(resp.serialize()),
            "485454502f312e3120343034204e6f7420466f756e640d0a436f6e74656e742d"
            "4c656e6774683a20300d0a0d0a");
}

TEST(WireGolden, HttpResponseKeepsExplicitLength) {
  HttpResponse resp;
  resp.headers = {{"Content-Length", "3"}};
  resp.body = {'a', 'b', 'c'};
  EXPECT_EQ(hex(resp.serialize()),
            "485454502f312e3120323030204f4b0d0a436f6e74656e742d4c656e6774683a"
            "20330d0a0d0a616263");
}

TEST(WireGolden, GivLine) {
  GivLine giv;
  giv.index = 99;
  giv.servent_guid = guid(0xb0);
  giv.filename = "setup tool 2006.exe";
  EXPECT_EQ(hex(giv.serialize()),
            "4749562039393a62306231623262336234623562366237623862396261626262"
            "636264626562662f736574757020746f6f6c20323030362e6578650a0a");
}

TEST(WireGolden, TransferGetAndResponses) {
  EXPECT_EQ(hex(files::make_get(counting<files::Digest16>(0xc0))),
            "474554202f633063316332633363346335633663376338633963616362636363"
            "646365636620485454502f312e310d0a0d0a");
  util::Bytes body{'M', 'Z', 0x01, 0x02};
  EXPECT_EQ(hex(files::make_response(200, &body)),
            "485454502f312e3120323030204f4b0d0a436f6e74656e742d4c656e6774683a"
            "20340d0a0d0a4d5a0102");
  EXPECT_EQ(hex(files::make_response(404, nullptr)),
            "485454502f312e3120343034204e6f7420466f756e640d0a436f6e74656e742d"
            "4c656e6774683a20300d0a0d0a");
}

// ---------------------------------------------------------------------------
// KAD commands
// ---------------------------------------------------------------------------

kad::Contact contact(std::uint64_t n, bool firewalled = false) {
  return kad::Contact{kad::KadId{0x0102030405060708ull * n, 0x1112131415161718ull + n},
                      {util::Ipv4(20, 0, 0, static_cast<std::uint8_t>(n)),
                       static_cast<std::uint16_t>(4660 + n)},
                      firewalled};
}

kad::SourceEntry source(std::uint64_t n) {
  kad::SourceEntry e;
  e.keyword = kad::KadId{0xaabbccddeeff0011ull, n};
  e.filename = "track " + std::to_string(n) + ".mp3";
  e.size = 1'000'000 + n;
  e.md5 = counting<files::Digest16>(static_cast<std::uint8_t>(0x40 + n));
  e.owner = {util::Ipv4(30, 0, 0, static_cast<std::uint8_t>(n)), 4672};
  e.firewalled = n % 2 == 1;
  return e;
}

std::string kad_hex(kad::KadPayload payload) {
  return hex(kad::serialize(kad::make_packet(std::move(payload))));
}

TEST(WireGolden, KadPingPong) {
  EXPECT_EQ(kad_hex(kad::Ping{contact(1)}),
            "001700000807060504030201191716151413121114000001123500");
  EXPECT_EQ(kad_hex(kad::Pong{contact(2, true)}),
            "00170001100e0c0a080604021a1716151413121114000002123601");
}

TEST(WireGolden, KadFindNode) {
  EXPECT_EQ(kad_hex(kad::FindNode{contact(3), kad::KadId{7, 8}}),
            "002700021815120f0c0906031b17161514131211140000031237000700000000"
            "0000000800000000000000");
  EXPECT_EQ(kad_hex(kad::FindNodeReply{{contact(4), contact(5, true)}}),
            "003000030002201c1814100c08041c171615141312111400000412380028231e"
            "19140f0a051d1716151413121114000005123901");
}

TEST(WireGolden, KadFindValue) {
  EXPECT_EQ(kad_hex(kad::FindValue{contact(6), kad::KadId{9, 10}}),
            "00270004302a241e18120c061e1716151413121114000006123a000900000000"
            "0000000a00000000000000");
  EXPECT_EQ(kad_hex(kad::FindValueReply{{source(1), source(2)}, {contact(7)}}),
            "0091000500021100ffeeddccbbaa01000000000000000b747261636b20312e6d"
            "703341420f00000000004142434445464748494a4b4c4d4e4f501e0000011240"
            "011100ffeeddccbbaa02000000000000000b747261636b20322e6d703342420f"
            "000000000042434445464748494a4b4c4d4e4f50511e00000212400000013831"
            "2a231c150e071f1716151413121114000007123b00");
}

TEST(WireGolden, KadStore) {
  EXPECT_EQ(kad_hex(kad::Store{contact(8), {source(3)}}),
            "005400064038302820181008201716151413121114000008123c0000011100ff"
            "eeddccbbaa03000000000000000b747261636b20332e6d703343420f00000000"
            "00434445464748494a4b4c4d4e4f5051521e000003124001");
  EXPECT_EQ(kad_hex(kad::StoreReply{3}), "0004000700000003");
}

TEST(WireGolden, KadServer) {
  EXPECT_EQ(kad_hex(kad::ServerRegister{{util::Ipv4(40, 1, 2, 3), 4662}, true,
                                        {source(4), source(5)}}),

            "007f00082801020312360100021100ffeeddccbbaa04000000000000000b7472"
            "61636b20342e6d703344420f00000000004445464748494a4b4c4d4e4f505152"
            "531e0000041240001100ffeeddccbbaa05000000000000000b747261636b2035"
            "2e6d703345420f000000000045464748494a4b4c4d4e4f50515253541e000005"
            "124001");
  EXPECT_EQ(kad_hex(kad::ServerQuery{0x0102030405060708ull, "midnight rain"}),
            "0016000908070605040302010d6d69646e69676874207261696e");
  EXPECT_EQ(kad_hex(kad::ServerQueryReply{77, {source(6)}}),
            "0045000a4d0000000000000000011100ffeeddccbbaa06000000000000000b74"
            "7261636b20362e6d703346420f0000000000464748494a4b4c4d4e4f50515253"
            "54551e000006124000");
}

// ---------------------------------------------------------------------------
// OpenFT commands
// ---------------------------------------------------------------------------

std::string ft_hex(openft::FtPayload payload) {
  return hex(openft::serialize(openft::make_packet(std::move(payload))));
}

TEST(WireGolden, FtSessionSetup) {
  EXPECT_EQ(ft_hex(openft::VersionRequest{}), "00000000");
  EXPECT_EQ(ft_hex(openft::VersionResponse{0, 2, 1, 6}), "000800010000000200010006");
  EXPECT_EQ(ft_hex(openft::NodeInfo{static_cast<std::uint16_t>(openft::kSearch | openft::kUser),
                                    {util::Ipv4(50, 1, 2, 3), 1215}, 1216, "node-a"}),
            "0011000200033201020304bf04c06e6f64652d6100");
  EXPECT_EQ(ft_hex(openft::SessionRequest{}), "00000003");
  EXPECT_EQ(ft_hex(openft::SessionResponse{true}), "0001000401");
  EXPECT_EQ(ft_hex(openft::ChildRequest{}), "00000005");
  EXPECT_EQ(ft_hex(openft::ChildResponse{false}), "0001000600");
}

TEST(WireGolden, FtShares) {
  EXPECT_EQ(ft_hex(openft::AddShare{counting<files::Digest16>(0x01), 123456,
                                    "/shared/setup tool.exe"}),

            "002b00070102030405060708090a0b0c0d0e0f100001e2402f7368617265642f"
            "736574757020746f6f6c2e65786500");
  EXPECT_EQ(ft_hex(openft::RemShare{counting<files::Digest16>(0x11)}),
            "001000081112131415161718191a1b1c1d1e1f20");
  EXPECT_EQ(ft_hex(openft::Stats{100, 2000, 34'567}), "000c000d00000064000007d000008707");
}

TEST(WireGolden, FtSearch) {
  EXPECT_EQ(ft_hex(openft::SearchRequest{0x1122334455667788ull, 2, "blue horizon"}),
            "00160009887766554433221102626c756520686f72697a6f6e00");
  openft::SearchResponse resp;
  resp.search_id = 5;
  resp.owner = {util::Ipv4(60, 1, 2, 3), 1215};
  resp.owner_http_port = 1216;
  resp.md5 = counting<files::Digest16>(0x21);
  resp.size = 98'765;
  resp.path = "/shared/album track one.mp3";
  resp.availability = 3;
  resp.owner_firewalled = true;
  EXPECT_EQ(ft_hex(resp),
            "0043000a05000000000000003c01020304bf04c02122232425262728292a2b2c"
            "2d2e2f30000181cd2f7368617265642f616c62756d20747261636b206f6e652e"
            "6d703300000301");
  EXPECT_EQ(ft_hex(openft::SearchEnd{5}), "0008000b0500000000000000");
}

TEST(WireGolden, FtPushAndBrowse) {
  EXPECT_EQ(ft_hex(openft::PushRequest{{util::Ipv4(70, 1, 2, 3), 1217},
                                       counting<files::Digest16>(0x31)}),
            "0016000c4601020304c13132333435363738393a3b3c3d3e3f40");
  EXPECT_EQ(ft_hex(openft::BrowseRequest{9}), "0008000e0900000000000000");
  EXPECT_EQ(ft_hex(openft::BrowseResponse{9, counting<files::Digest16>(0x41), 4242,
                                          "/shared/x.zip"}),

            "002a000f09000000000000004142434445464748494a4b4c4d4e4f5000001092"
            "2f7368617265642f782e7a697000");
  EXPECT_EQ(ft_hex(openft::BrowseEnd{9, 12}), "000c001009000000000000000000000c");
}

// ---------------------------------------------------------------------------
// Forwarding through a real ultrapeer
// ---------------------------------------------------------------------------

enum class Role { kQuerier, kResponder, kObserver };

/// A peer that completes the overlay handshake with the ultrapeer and then
/// plays one side of a query / hit / push exchange, recording the wire of
/// every query, hit and push the ultrapeer forwards to it.
class ScriptedPeer final : public sim::Node {
 public:
  ScriptedPeer(util::Endpoint ultrapeer, Role role) : ultrapeer_(ultrapeer), role_(role) {}

  void start() override {
    if (auto up = network().lookup(ultrapeer_)) network().connect(id(), *up);
  }
  void on_connection_open(sim::ConnId conn, sim::NodeId, bool initiated) override {
    if (!initiated) return;
    const bool ultrapeer = role_ != Role::kResponder;
    network().send(conn, id(),
                   text(std::string("GNUTELLA CONNECT/0.6\r\nX-Ultrapeer: ") +
                        (ultrapeer ? "True" : "False") + "\r\n\r\n"));
  }
  void on_message(sim::ConnId conn, const util::Payload& payload) override {
    if (!established_) {
      established_ = true;  // the acceptor's 200 OK
      network().send(conn, id(), text("GNUTELLA/0.6 200 OK\r\n\r\n"));
      if (role_ == Role::kQuerier) {
        auto query = make_query(guid(0x01), 4, "hidden treasure");
        query.header.hops = 1;
        network().send(conn, id(), serialize(query));
      }
      return;
    }
    auto msg = parse(payload);
    if (!msg) return;
    switch (msg->type()) {
      case MsgType::kQuery:
        received.query = hex(payload);
        if (role_ == Role::kResponder) {
          QueryHit hit;
          hit.addr = {util::Ipv4(6, 6, 6, 6), 6350};
          hit.speed = 56;
          hit.needs_push = true;
          hit.servent_guid = guid(0x33);
          hit.results.push_back({5, 2048, "hidden treasure.zip",
                                 counting<files::Digest20>(0x55)});
          network().send(conn, id(), serialize(make_query_hit(msg->header.guid, 4, hit)));
        }
        break;
      case MsgType::kQueryHit:
        received.hit = hex(payload);
        if (role_ == Role::kQuerier) {
          Push push;
          push.servent_guid = std::get<QueryHit>(msg->payload).servent_guid;
          push.file_index = 5;
          push.requester = {util::Ipv4(7, 7, 7, 7), 6351};
          auto msg_push = make_push(guid(0x02), 5, push);
          msg_push.header.hops = 1;
          network().send(conn, id(), serialize(msg_push));
        }
        break;
      case MsgType::kPush:
        received.push = hex(payload);
        break;
      default:
        break;
    }
  }

  struct Received {
    std::string query, hit, push;
  } received;

 private:
  static util::Bytes text(std::string_view s) { return util::Bytes(s.begin(), s.end()); }

  util::Endpoint ultrapeer_;
  Role role_;
  bool established_ = false;
};

TEST(WireGolden, UltrapeerForwardsQueryHitAndPush) {
  sim::Network net{777};
  auto cache = std::make_shared<HostCache>();
  ServentConfig cfg;
  cfg.ultrapeer = true;
  sim::HostProfile up_profile;
  up_profile.ip = util::Ipv4(5, 5, 5, 1);
  up_profile.port = 6001;
  net.add_node(std::make_unique<Servent>(
                   cfg, std::make_shared<IndexAnswerer>(SharedFileIndex{}), cache, 1000),
               up_profile);
  const util::Endpoint up{up_profile.ip, up_profile.port};

  auto add_peer = [&](Role role, std::uint8_t last_octet) {
    auto peer = std::make_unique<ScriptedPeer>(up, role);
    ScriptedPeer* raw = peer.get();
    sim::HostProfile profile;
    profile.ip = util::Ipv4(7, 7, 7, last_octet);
    profile.port = 6346;
    net.add_node(std::move(peer), profile);
    return raw;
  };
  auto run_for = [&](sim::SimDuration d) { net.engine().run_until(net.now() + d); };

  ScriptedPeer* responder = add_peer(Role::kResponder, 2);
  ScriptedPeer* observer = add_peer(Role::kObserver, 3);
  run_for(sim::SimDuration::seconds(30));
  ScriptedPeer* querier = add_peer(Role::kQuerier, 4);
  run_for(sim::SimDuration::seconds(60));

  // The ultrapeer-to-ultrapeer and ultrapeer-to-leaf forms of the query.
  EXPECT_EQ(observer->received.query,
            "0102030405060708090a0b0c0d0e0f1080030212000000000068696464656e20"
            "747265617375726500");
  EXPECT_EQ(responder->received.query,
            "0102030405060708090a0b0c0d0e0f1080030212000000000068696464656e20"
            "747265617375726500");
  // The hit routed back to the querier, and the push routed to the responder.
  EXPECT_EQ(querier->received.hit,
            "0102030405060708090a0b0c0d0e0f108103016f00000001ce18060606063800"
            "0000050000000008000068696464656e2074726561737572652e7a6970007572"
            "6e3a736861313a35353536353735383539356135623563356435653566363036"
            "313632363336343635363636373638005032504d0101333435363738393a3b3c"
            "3d3e3f404142");
  EXPECT_EQ(responder->received.push,
            "02030405060708090a0b0c0d0e0f10114004021a000000333435363738393a3b"
            "3c3d3e3f4041420500000007070707cf18");
}

}  // namespace
}  // namespace p2p
