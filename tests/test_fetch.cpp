// FetchPipeline mechanics against a scripted fake source: the test decides
// when and how every download resolves, on a bare sim::Network whose only
// node is the vantage the pipeline's timers run on.
#include "crawler/fetch.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "files/hash.h"

namespace p2p::crawler {
namespace {

struct FakeSource {
  std::string host;
};

struct FakeOutcome {
  std::uint64_t request_id = 0;
  bool success = false;
  util::Bytes content;
};

class IdleNode : public sim::Node {
 public:
  void on_message(sim::ConnId, const util::Payload&) override {}
};

std::string md5_key(util::ByteView content) { return files::hex(files::md5(content)); }

util::Bytes content_of(const std::string& text) {
  return util::Bytes(text.begin(), text.end());
}

/// One pipeline whose downloads only resolve when the test says so.
struct Rig {
  struct Download {
    std::uint64_t request;
    std::string host;
    sim::SimTime at;
  };

  sim::Network net{7};
  QueryItem query{"setup", "software"};
  std::vector<Download> downloads;
  std::uint64_t next_request = 100;
  FetchPipeline<FakeSource> pipe;

  explicit Rig(FetchPolicy policy, int max_attempts = 10)
      : pipe(net, QueryWorkload({query}),
             std::make_shared<malware::Scanner>(std::vector<malware::Strain>{}),
             config(policy, max_attempts), "test",
             {.send_query = [](const std::string&) { return std::uint64_t{1}; },
              .download =
                  [this](const FakeSource& s) {
                    downloads.push_back({next_request, s.host, net.now()});
                    return next_request++;
                  },
              .host = [](const FakeSource& s) { return s.host; },
              .content_key = md5_key}) {
    pipe.attach(net.add_node(std::make_unique<IdleNode>(), sim::HostProfile{}));
  }

  static CrawlConfig config(FetchPolicy policy, int max_attempts) {
    CrawlConfig c;
    c.fetch = policy;
    c.max_download_attempts = max_attempts;
    return c;
  }

  /// `host` advertises `content` under the name setup.exe (a study type).
  void respond(const std::string& content, const std::string& host) {
    ResponseRecord rec = pipe.new_record(query, net.now());
    rec.filename = "setup.exe";
    rec.type_by_name = files::FileType::kExecutable;
    rec.content_key = md5_key(content_of(content));
    pipe.on_response(std::move(rec), FakeSource{host});
  }

  /// Resolve the i-th download: `served` is what the source sent back.
  void resolve(std::size_t i, bool success, const std::string& served = "") {
    pipe.on_download(FakeOutcome{downloads.at(i).request, success, content_of(served)});
  }

  void advance(sim::SimDuration d) { net.engine().run_until(net.now() + d); }
};

FetchPolicy backoff_policy(sim::SimDuration base, sim::SimDuration max) {
  FetchPolicy p;
  p.retry_backoff = base;
  p.retry_backoff_max = max;
  return p;
}

TEST(FetchPipeline, BackoffDoublesAndIsCappedAtMax) {
  Rig rig(backoff_policy(sim::SimDuration::seconds(1), sim::SimDuration::seconds(3)));
  rig.respond("payload", "a");
  for (const char* host : {"b", "c", "d", "e"}) rig.respond("payload", host);
  ASSERT_EQ(rig.downloads.size(), 1u);

  // Each failure schedules the next alternate after 1 s, 2 s, then the
  // 3 s cap instead of 4 s and 8 s.
  const std::int64_t expected_ms[] = {1000, 2000, 3000, 3000};
  for (std::size_t i = 0; i < 4; ++i) {
    SCOPED_TRACE(i);
    sim::SimTime failed_at = rig.net.now();
    rig.resolve(i, /*success=*/false);
    EXPECT_EQ(rig.downloads.size(), i + 1) << "a backed-off retry is not immediate";
    rig.advance(sim::SimDuration::seconds(10));
    ASSERT_EQ(rig.downloads.size(), i + 2);
    EXPECT_EQ((rig.downloads[i + 1].at - failed_at).count_ms(), expected_ms[i]);
  }
  // Alternates are spent newest first.
  EXPECT_EQ(rig.downloads[1].host, "e");
  EXPECT_EQ(rig.downloads[4].host, "b");
  EXPECT_EQ(rig.pipe.stats().retries_spent, 4u);
  EXPECT_EQ(rig.pipe.stats().downloads_failed, 4u);
}

TEST(FetchPipeline, BreakerTripsAtThresholdAndClearsAfterCooldown) {
  FetchPolicy p;
  p.breaker_threshold = 2;
  p.breaker_cooldown = sim::SimDuration::minutes(10);
  Rig rig(p);

  // Strikes count consecutive failures: a success in between resets them.
  rig.respond("one", "bad");
  rig.resolve(0, /*success=*/false);
  rig.respond("two", "bad");
  rig.resolve(1, /*success=*/true, "two");
  rig.respond("three", "bad");
  rig.resolve(2, /*success=*/false);
  EXPECT_EQ(rig.pipe.stats().hosts_quarantined, 0u) << "one strike is below threshold";
  rig.respond("four", "bad");
  rig.resolve(3, /*success=*/false);
  EXPECT_EQ(rig.pipe.stats().hosts_quarantined, 1u);

  // Quarantined: neither fetched from nor remembered as an alternate.
  rig.respond("five", "bad");
  EXPECT_EQ(rig.downloads.size(), 4u);
  rig.advance(sim::SimDuration::minutes(9));
  rig.respond("five", "bad");
  EXPECT_EQ(rig.downloads.size(), 4u);

  // The cooldown elapses and the host is trusted again.
  rig.advance(sim::SimDuration::minutes(1));
  rig.respond("five", "bad");
  ASSERT_EQ(rig.downloads.size(), 5u);
  EXPECT_EQ(rig.downloads[4].host, "bad");
  EXPECT_EQ(rig.pipe.stats().distinct_contents, 1u);
}

TEST(FetchPipeline, StalledOutcomeIsSuppressedUntilTheWatchdogResolvesIt) {
  FetchPolicy p;
  p.fetch_timeout = sim::SimDuration::seconds(60);
  Rig rig(p);
  fault::FaultSpec spec;
  spec.download_stall = 1.0;
  fault::FaultInjector faults(spec, 1);
  rig.pipe.set_fault_injector(&faults);

  rig.respond("payload", "a");
  ASSERT_EQ(rig.downloads.size(), 1u);
  rig.advance(sim::SimDuration::seconds(5));
  rig.resolve(0, /*success=*/true, "payload");
  EXPECT_EQ(rig.pipe.stats().downloads_ok, 0u) << "stalled outcome must be suppressed";
  EXPECT_FALSE(rig.pipe.labels().has(md5_key(content_of("payload"))));

  rig.advance(sim::SimDuration::seconds(60));
  EXPECT_EQ(rig.pipe.stats().downloads_abandoned, 1u);
  // Abandonment spent an attempt; the content is wanted again.
  EXPECT_TRUE(rig.pipe.labels().want_download(md5_key(content_of("payload"))));
  // A late outcome for the abandoned request changes nothing.
  rig.resolve(0, /*success=*/true, "payload");
  EXPECT_EQ(rig.pipe.stats().downloads_ok, 0u);
  EXPECT_EQ(rig.pipe.stats().downloads_failed, 0u);
}

TEST(FetchPipeline, ZeroBackoffRetriesInsideTheFailureCallback) {
  Rig rig(FetchPolicy{});
  rig.respond("payload", "a");
  rig.respond("payload", "b");
  rig.respond("payload", "b");  // one alternate per host
  ASSERT_EQ(rig.downloads.size(), 1u);
  rig.resolve(0, /*success=*/false);
  // The retry was issued synchronously, at the failure's own instant.
  ASSERT_EQ(rig.downloads.size(), 2u);
  EXPECT_EQ(rig.downloads[1].host, "b");
  EXPECT_EQ(rig.downloads[1].at, rig.net.now());
  EXPECT_EQ(rig.pipe.stats().retries_spent, 1u);
  rig.resolve(1, /*success=*/false);
  EXPECT_EQ(rig.downloads.size(), 2u) << "no alternates left";
}

TEST(FetchPipeline, HashMismatchIsAStrikeOnlyWhenThePolicyIsActive) {
  // Policy off: the mismatch fails the fetch and spends an attempt, but
  // neither retries nor counts against the host.
  Rig off(FetchPolicy{});
  ASSERT_FALSE(FetchPolicy{}.active());
  off.respond("payload", "a");
  off.respond("payload", "b");
  off.resolve(0, /*success=*/true, "corrupted");
  EXPECT_EQ(off.downloads.size(), 1u);
  EXPECT_EQ(off.pipe.stats().downloads_ok, 1u);
  EXPECT_EQ(off.pipe.stats().distinct_contents, 0u);
  EXPECT_EQ(off.pipe.stats().hosts_quarantined, 0u);
  EXPECT_TRUE(off.pipe.labels().want_download(md5_key(content_of("payload"))));

  // Policy on (a hair-trigger breaker): the same mismatch quarantines the
  // host. The transfer itself succeeded, which already dropped the
  // content's alternates, so the retry finds none; the next responder
  // serves it.
  FetchPolicy p;
  p.breaker_threshold = 1;
  Rig on(p);
  on.respond("payload", "a");
  on.respond("payload", "b");
  on.resolve(0, /*success=*/true, "corrupted");
  EXPECT_EQ(on.pipe.stats().hosts_quarantined, 1u);
  EXPECT_EQ(on.downloads.size(), 1u);
  on.respond("payload", "a");
  EXPECT_EQ(on.downloads.size(), 1u) << "the corrupting host is quarantined";
  on.respond("payload", "c");
  ASSERT_EQ(on.downloads.size(), 2u);
  on.resolve(1, /*success=*/true, "payload");
  EXPECT_EQ(on.pipe.stats().distinct_contents, 1u);
}

TEST(FetchPipeline, FinalizeLabelsStudyRecordsAndStreamsThemToTheSink) {
  struct Collect : RecordSink {
    std::vector<ResponseRecord> seen;
    void on_record(const ResponseRecord& r) override { seen.push_back(r); }
  } sink;
  Rig rig(FetchPolicy{});
  rig.respond("payload", "a");
  rig.respond("other", "b");
  rig.resolve(0, /*success=*/true, "payload");
  rig.pipe.finalize();
  // The pipeline only labels; the study's one merge streams the log.
  std::vector<std::vector<ResponseRecord>> logs;
  logs.push_back(std::move(rig.pipe.records()));
  auto log = merge_logs(std::move(logs), &sink);
  ASSERT_EQ(log.size(), 2u);
  ASSERT_EQ(sink.seen.size(), 2u);
  EXPECT_EQ(sink.seen[0].id, 1u);
  EXPECT_EQ(sink.seen[0].network, "test");
  EXPECT_TRUE(sink.seen[0].downloaded);
  EXPECT_TRUE(sink.seen[1].download_attempted);
  EXPECT_FALSE(sink.seen[1].downloaded) << "its download never resolved";
}

TEST(FetchPipeline, CrawlStatsSumFieldWise) {
  CrawlStats a;
  a.queries_sent = 1;
  a.scan_timeouts = 2;
  CrawlStats b;
  b.queries_sent = 10;
  b.hosts_quarantined = 3;
  a += b;
  EXPECT_EQ(a.queries_sent, 11u);
  EXPECT_EQ(a.scan_timeouts, 2u);
  EXPECT_EQ(a.hosts_quarantined, 3u);
}

}  // namespace
}  // namespace p2p::crawler
