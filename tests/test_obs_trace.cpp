// Trace ring wraparound, JSONL well-formedness, per-component filtering.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "obs/trace.h"

namespace p2p::obs {
namespace {

util::SimTime at(std::int64_t ms) { return util::SimTime::at_millis(ms); }

TEST(ObsTrace, ComponentNamesRoundTrip) {
  for (unsigned i = 0; i < static_cast<unsigned>(Component::kCount); ++i) {
    auto c = static_cast<Component>(i);
    auto back = component_from_name(component_name(c));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, c);
  }
  EXPECT_FALSE(component_from_name("nonsense").has_value());
}

TEST(ObsTrace, DisabledComponentsRecordNothing) {
  TraceBuffer buf(8);
  buf.record(Component::kNet, "x", at(0), {});
  EXPECT_EQ(buf.size(), 0u);
  buf.enable(Component::kNet);
  buf.record(Component::kNet, "x", at(0), {});
  buf.record(Component::kSim, "y", at(0), {});  // still disabled
  EXPECT_EQ(buf.size(), 1u);
  buf.disable(Component::kNet);
  EXPECT_FALSE(buf.any_enabled());
}

TEST(ObsTrace, EnableFromSpec) {
  TraceBuffer buf(8);
  EXPECT_TRUE(buf.enable_from_spec("crawler,scanner"));
  EXPECT_TRUE(buf.enabled(Component::kCrawler));
  EXPECT_TRUE(buf.enabled(Component::kScanner));
  EXPECT_FALSE(buf.enabled(Component::kNet));
  EXPECT_FALSE(buf.enable_from_spec("crawler,bogus"));  // valid names still apply
  buf.disable_all();
  EXPECT_TRUE(buf.enable_from_spec("all"));
  for (unsigned i = 0; i < static_cast<unsigned>(Component::kCount); ++i) {
    EXPECT_TRUE(buf.enabled(static_cast<Component>(i)));
  }
}

TEST(ObsTrace, RingOverwritesOldest) {
  TraceBuffer buf(4);
  buf.enable_all();
  for (int i = 0; i < 10; ++i) {
    buf.record(Component::kSim, 'e' + std::to_string(i), at(i), {});
  }
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.total_recorded(), 10u);
  EXPECT_EQ(buf.dropped(), 6u);
  std::vector<std::string> events;
  buf.for_each([&](const TraceEvent& e) { events.push_back(e.event); });
  ASSERT_EQ(events.size(), 4u);
  // Oldest-to-newest: the last four records survive.
  EXPECT_EQ(events.front(), "e6");
  EXPECT_EQ(events.back(), "e9");
}

TEST(ObsTrace, JsonlWellFormed) {
  TraceBuffer buf(16);
  buf.enable_all();
  buf.record(Component::kCrawler, "download_ok", at(1500),
             {tf("key", std::string_view("ab\"cd")), tf("bytes", std::uint64_t{512}),
              tf("ok", true), tf("ratio", 0.5)});
  std::ostringstream out;
  buf.write_jsonl(out);
  std::string line = out.str();
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line[line.size() - 2], '}');  // trailing newline after each record
  EXPECT_EQ(line.back(), '\n');
  EXPECT_NE(line.find("\"t_sim\":1500"), std::string::npos);
  EXPECT_NE(line.find("\"component\":\"crawler\""), std::string::npos);
  EXPECT_NE(line.find("\"event\":\"download_ok\""), std::string::npos);
  EXPECT_NE(line.find("\"key\":\"ab\\\"cd\""), std::string::npos);  // escaped quote
  EXPECT_NE(line.find("\"bytes\":512"), std::string::npos);  // raw number, unquoted
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos);
  // Exactly one line per record.
  EXPECT_EQ(std::count(line.begin(), line.end(), '\n'), 1);
}

TEST(ObsTrace, JsonlComponentFilter) {
  TraceBuffer buf(16);
  buf.enable_all();
  buf.record(Component::kNet, "conn_open", at(1), {});
  buf.record(Component::kScanner, "scan", at(2), {});
  buf.record(Component::kNet, "conn_close", at(3), {});
  std::ostringstream net_only;
  buf.write_jsonl(net_only, Component::kNet);
  std::string text = net_only.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  EXPECT_EQ(text.find("scan"), std::string::npos);
}

TEST(ObsTrace, SetCapacityResetsState) {
  TraceBuffer buf(4);
  buf.enable_all();
  buf.record(Component::kSim, "x", at(0), {});
  buf.set_capacity(2);
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.capacity(), 2u);
  EXPECT_EQ(buf.total_recorded(), 0u);
  buf.record(Component::kSim, "a", at(1), {});
  buf.record(Component::kSim, "b", at(2), {});
  buf.record(Component::kSim, "c", at(3), {});
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf.dropped(), 1u);
}

TEST(ObsTrace, MacroChecksEnableFlagBeforeRecording) {
  TraceBuffer& buf = TraceBuffer::global();
  buf.disable_all();
  buf.clear();
  P2P_TRACE(Component::kFilter, "blocked", at(0), tf("n", 1));
#ifndef P2P_OBS_DISABLED
  EXPECT_EQ(buf.size(), 0u);
  buf.enable(Component::kFilter);
  P2P_TRACE(Component::kFilter, "blocked", at(0), tf("n", 1));
  EXPECT_EQ(buf.size(), 1u);
#endif
  buf.disable_all();
  buf.clear();
}

}  // namespace
}  // namespace p2p::obs
