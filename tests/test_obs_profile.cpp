// Span profiler: nesting depths, per-thread bounded buffers with drop
// accounting, thread isolation, and the Chrome trace-event export shape.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>

#include "obs/profile.h"

namespace p2p::obs {
namespace {

// The profiler is a process-global; each test claims it fresh and leaves
// it disabled.
class ObsProfile : public ::testing::Test {
 protected:
  void SetUp() override {
#ifdef P2P_OBS_DISABLED
    GTEST_SKIP() << "spans compiled out (P2P_OBS_DISABLED)";
#endif
    SpanProfiler::global().reset();
  }
  void TearDown() override { SpanProfiler::global().disable(); }
};

std::string chrome_json() {
  std::ostringstream out;
  SpanProfiler::global().write_chrome_trace(out);
  return out.str();
}

TEST_F(ObsProfile, DisabledProfilerRecordsNothing) {
  SpanProfiler::global().disable();
  {
    OBS_SPAN("ignored");
  }
  EXPECT_EQ(SpanProfiler::global().total_spans(), 0u);
}

TEST_F(ObsProfile, NestedSpansRecordDepths) {
  SpanProfiler::global().enable();
  {
    OBS_SPAN("outer");
    {
      OBS_SPAN("middle");
      { OBS_SPAN("inner"); }
    }
  }
  EXPECT_EQ(SpanProfiler::global().total_spans(), 3u);

  std::string json = chrome_json();
  // Spans close innermost-first; args carry the nesting depth.
  auto inner = json.find("\"inner\"");
  auto middle = json.find("\"middle\"");
  auto outer = json.find("\"outer\"");
  ASSERT_NE(inner, std::string::npos);
  ASSERT_NE(middle, std::string::npos);
  ASSERT_NE(outer, std::string::npos);
  EXPECT_LT(inner, middle);
  EXPECT_LT(middle, outer);
  EXPECT_NE(json.find("\"depth\":2"), std::string::npos);
  EXPECT_NE(json.find("\"depth\":1"), std::string::npos);
  EXPECT_NE(json.find("\"depth\":0"), std::string::npos);
}

TEST_F(ObsProfile, OverflowDropsBeyondPerThreadBound) {
  SpanProfiler::global().enable(/*max_spans_per_thread=*/4);
  for (int i = 0; i < 10; ++i) {
    OBS_SPAN("tight");
  }
  EXPECT_EQ(SpanProfiler::global().total_spans(), 4u);
  EXPECT_EQ(SpanProfiler::global().total_dropped(), 6u);
}

TEST_F(ObsProfile, ChromeTraceReportsDroppedSpans) {
  SpanProfiler::global().enable(/*max_spans_per_thread=*/2);
  for (int i = 0; i < 3; ++i) {
    OBS_SPAN("capped");
  }
  EXPECT_EQ(SpanProfiler::global().total_dropped(), 1u);
  EXPECT_NE(chrome_json().find("\"otherData\":{\"spans_dropped\":1}"),
            std::string::npos);
}

TEST_F(ObsProfile, ThreadsGetIsolatedBuffers) {
  SpanProfiler::global().enable(/*max_spans_per_thread=*/2);
  auto worker = [] {
    // Each thread stays under its own bound; nothing is dropped even
    // though the combined count exceeds one buffer.
    OBS_SPAN("thread_a");
    OBS_SPAN("thread_b");
  };
  std::thread t1(worker);
  std::thread t2(worker);
  t1.join();
  t2.join();
  EXPECT_EQ(SpanProfiler::global().total_spans(), 4u);
  EXPECT_EQ(SpanProfiler::global().total_dropped(), 0u);

  // Two distinct tids in the export.
  std::string json = chrome_json();
  auto first_tid = json.find("\"tid\":");
  ASSERT_NE(first_tid, std::string::npos);
  std::string tid_token = json.substr(first_tid, json.find(',', first_tid) - first_tid);
  bool two_tids = false;
  for (auto pos = json.find("\"tid\":"); pos != std::string::npos;
       pos = json.find("\"tid\":", pos + 1)) {
    if (json.compare(pos, tid_token.size(), tid_token) != 0) two_tids = true;
  }
  EXPECT_TRUE(two_tids);
}

TEST_F(ObsProfile, ChromeTraceShape) {
  SpanProfiler::global().enable();
  { OBS_SPAN("shape_check"); }
  std::string json = chrome_json();
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  const std::string tail = "],\"otherData\":{\"spans_dropped\":0}}\n";
  ASSERT_GE(json.size(), tail.size());
  EXPECT_EQ(json.substr(json.size() - tail.size()), tail);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"p2p\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
}

TEST_F(ObsProfile, ResetClearsSpansAndCounts) {
  SpanProfiler::global().enable();
  { OBS_SPAN("gone"); }
  EXPECT_EQ(SpanProfiler::global().total_spans(), 1u);
  SpanProfiler::global().reset();
  EXPECT_EQ(SpanProfiler::global().total_spans(), 0u);
  EXPECT_EQ(SpanProfiler::global().total_dropped(), 0u);
  EXPECT_EQ(chrome_json().find("\"gone\""), std::string::npos);
}

}  // namespace
}  // namespace p2p::obs
