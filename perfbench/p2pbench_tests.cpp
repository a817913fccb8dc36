// The benchmark's own tests, on seconds-long versions of its workloads:
// the traced composition must reproduce each real study driver byte for
// byte, lw_scale's model must not depend on the shard count, and capture
// replay must not depend on the job count. Run by `python3 perfbench/run.py
// --self-test`, which also checks the emitted metric names and units.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>

#include "capture.h"
#include "compose.h"
#include "core/replay.h"
#include "ledger.h"
#include "workloads.h"

namespace p2pbench {
namespace {

std::string document(const core::StudyResult& result, sweep::NetworkKind network) {
  return study_document(result, report_json(study_report(result, network)));
}

std::string composed_document(const sweep::StudyTask& task, Ledger* ledger) {
  StudyProbe probe;
  core::StudyResult result = compose_study(task, task.index, ledger, probe);
  EXPECT_GT(probe.peers, 0u);
  EXPECT_GT(probe.run_wall_s, 0.0);
  return document(result, task.network);
}

class ComposeMatchesDriver : public ::testing::TestWithParam<int> {};

TEST_P(ComposeMatchesDriver, DocumentsAreByteIdentical) {
  auto plan = sweep_bands_plans(7, Scale::small())[static_cast<std::size_t>(GetParam())];
  plan.duration = p2p::util::SimDuration::hours(3);
  sweep::StudyTask task = sweep::plan(plan).front();
  Ledger ledger;
  std::string composed = composed_document(task, &ledger);
  std::string real = document(run_real_study(task), task.network);
  EXPECT_FALSE(real.empty());
  EXPECT_EQ(composed, real) << sweep::network_name(task.network);
  // Every layer call of the composition left a leaf span under the one
  // composite core.study root.
  std::size_t roots = 0, composites = 0;
  for (const auto& site : ledger.sites()) {
    roots += site.root ? 1 : 0;
    composites += site.composite ? 1 : 0;
  }
  EXPECT_EQ(roots, 1u);
  EXPECT_EQ(composites, 1u);
  EXPECT_GE(ledger.sites().size(), 8u);
}

INSTANTIATE_TEST_SUITE_P(Networks, ComposeMatchesDriver, ::testing::Values(0, 1, 2));

TEST(LwScale, ComposedShardedStudyMatchesDriver) {
  sweep::StudyTask task = lw_scale_task(3, Scale::small(), 2);
  EXPECT_EQ(composed_document(task, nullptr),
            document(run_real_study(task), task.network));
}

TEST(LwScale, OneAndTwoShardsGiveIdenticalReports) {
  std::string one = document(run_real_study(lw_scale_task(5, Scale::small(), 1)),
                             sweep::NetworkKind::kLimewire);
  std::string two = document(run_real_study(lw_scale_task(5, Scale::small(), 2)),
                             sweep::NetworkKind::kLimewire);
  EXPECT_EQ(one, two);
}

TEST(LwScale, SeedChangesTheInputs) {
  std::string a = document(run_real_study(lw_scale_task(1, Scale::small())),
                           sweep::NetworkKind::kLimewire);
  std::string b = document(run_real_study(lw_scale_task(2, Scale::small())),
                           sweep::NetworkKind::kLimewire);
  EXPECT_NE(a, b);
}

class CaptureReplay : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::current_path() /
            ("p2pbench_test_" + std::to_string(::getpid()) + ".p2ps"))
               .string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(CaptureReplay, ReportIsJobsInvariantAndSane) {
  CaptureSpec spec;
  spec.seed = 11;
  spec.records = Scale::small().capture_records;
  spec.days = Scale::small().capture_days;
  CaptureStats stats = write_capture(dir_, spec);
  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(stats.records, spec.records);
  EXPECT_EQ(stats.segments, static_cast<std::uint64_t>(spec.days));
  // The standard KAD preset's mix: 1,960,166 honeypot observations among
  // 2,070,955 records.
  EXPECT_NEAR(static_cast<double>(stats.honeypot_records) / static_cast<double>(stats.records),
              0.9465, 0.01);

  core::ReplayOptions one;
  one.jobs = 1;
  core::ReplayOptions two;
  two.jobs = 2;
  core::ReplayResult r1 = core::replay_segment_dir(dir_, one);
  core::ReplayResult r2 = core::replay_segment_dir(dir_, two);
  ASSERT_TRUE(r1.ok) << r1.error;
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_EQ(report_json(r1.report), report_json(r2.report));
  EXPECT_EQ(r2.stats.records_read, spec.records);
  EXPECT_EQ(check_headline(headline(r2.report), "capture"), "");
  ASSERT_TRUE(r2.report.honeypots.enabled);
  EXPECT_LE(r2.report.honeypots.curve.front().mean_coverage,
            r2.report.honeypots.curve.back().mean_coverage);
}

TEST_F(CaptureReplay, SameSeedWritesSameBytes) {
  CaptureSpec spec;
  spec.seed = 4;
  spec.records = 5'000;
  spec.days = 2;
  ASSERT_TRUE(write_capture(dir_, spec).ok);
  std::string first = report_json(core::replay_segment_dir(dir_).report);
  ASSERT_TRUE(write_capture(dir_, spec).ok);
  EXPECT_EQ(report_json(core::replay_segment_dir(dir_).report), first);
  spec.seed = 5;
  ASSERT_TRUE(write_capture(dir_, spec).ok);
  EXPECT_NE(report_json(core::replay_segment_dir(dir_).report), first);
}

TEST(Ledger, SelfTimeExcludesChildrenAndResidualIsCompositeSelf) {
  Ledger ledger;
  {
    Ledger::Span root(&ledger, "root", 1);
    Ledger::Span child(&ledger, "child", 1);
  }
  auto sites = ledger.sites();
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_TRUE(sites[0].root);
  EXPECT_TRUE(sites[0].composite);
  EXPECT_FALSE(sites[1].root);
  EXPECT_FALSE(sites[1].composite);
  EXPECT_NEAR(sites[0].self_s + sites[1].self_s, ledger.roots_s(), 1e-9);
  EXPECT_NEAR(ledger.residual_s(), sites[0].self_s, 1e-12);
  auto records = ledger.records();
  EXPECT_EQ(records[1].parent, 0);
  EXPECT_EQ(records[1].id, 1u);
}

TEST(Ledger, NullLedgerSpansAreNoOps) {
  Ledger::Span span(nullptr, "ignored");
  SUCCEED();
}

}  // namespace
}  // namespace p2pbench
