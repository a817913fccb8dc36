#include "core/replay.h"

#include <memory>
#include <optional>

#include "analysis/incremental.h"
#include "filter/evaluation.h"
#include "filter/limewire_builtin.h"
#include "filter/size_filter.h"
#include "obs/metrics.h"
#include "trace/codec.h"
#include "trace/reader.h"
#include "trace/segment.h"
#include "util/bytes.h"
#include "util/pool.h"

namespace p2p::core {

namespace {

// Everything one worker gathers from a single streamed pass over its
// segment. Slots are per-index: completion order never shows in the merge.
struct SegmentPartial {
  bool corrupt = false;  // unopenable, or header disagrees with the manifest
  trace::ReadStats stats;
  std::uint64_t active = 0;  // non-honeypot records decoded
  analysis::RecordAccumulator families;
  analysis::WindowedAccumulator windows;
  KadCoverageAccumulator honeypots;
  filter::SizeTrainingCounts size_training;
  filter::BuiltinTrainingCounts builtin_training;
  /// The active records the filter split may still need — downloaded and
  /// either infected (training) or of a study type (evaluation) — each as a
  /// varint of its active ordinal within the segment followed by its
  /// trace::encode_record bytes; encoded, since it lives until the reduce.
  util::Bytes candidates;

  explicit SegmentPartial(std::int64_t window_ms) : windows(window_ms) {}
};

// Open one listed segment with the same acceptance rule SegmentReader uses:
// readable and carrying the capture's header, else dropped whole.
std::unique_ptr<trace::TraceReader> open_segment(
    const std::string& dir, const trace::SegmentManifest& manifest,
    const trace::SegmentEntry& entry) {
  auto reader =
      std::make_unique<trace::TraceReader>(trace::segment_path(dir, entry));
  if (!reader->ok()) return nullptr;
  if (reader->header().config_hash != manifest.header.config_hash ||
      reader->header().network != manifest.header.network) {
    return nullptr;
  }
  return reader;
}

// Feed one segment's retained candidates, in stream order, to
// fn(active ordinal within the segment, record).
template <typename Fn>
void for_each_candidate(const util::Bytes& candidates, Fn&& fn) {
  util::ByteReader r(candidates);
  crawler::ResponseRecord rec;
  while (!r.empty()) {
    const std::uint64_t ordinal = r.varint();
    trace::decode_record(r, rec);
    fn(ordinal, rec);
  }
}

void fold_stats(trace::ReadStats& agg, const trace::ReadStats& s) {
  agg.blocks_read += s.blocks_read;
  agg.blocks_corrupt += s.blocks_corrupt;
  agg.blocks_skipped += s.blocks_skipped;
  agg.records_read += s.records_read;
  agg.bytes_read += s.bytes_read;
  agg.truncated_tail = agg.truncated_tail || s.truncated_tail;
}

}  // namespace

ReplayResult replay_segment_dir(const std::string& dir,
                                const ReplayOptions& options) {
  ReplayResult out;
  auto data = trace::read_manifest(dir);
  if (!data.ok()) {
    out.error = data.error_message;
    return out;
  }
  const trace::SegmentManifest& manifest = data.manifest;
  const std::size_t n = manifest.segments.size();
  const bool limewire = manifest.header.network == "limewire";
  const std::int64_t window_ms =
      options.window_ms > 0 ? options.window_ms
                            : (manifest.window_ms > 0 ? manifest.window_ms
                                                      : 24 * 3'600'000ll);
  const std::size_t jobs = options.jobs < 1 ? 1 : options.jobs;
  out.segments_total = n;

  // Map: each worker streams one segment into its slot's accumulators,
  // under a thread-local metrics registry (obs counters are not atomic).
  std::vector<SegmentPartial> partials;
  partials.reserve(n);
  for (std::size_t i = 0; i < n; ++i) partials.emplace_back(window_ms);
  util::parallel_for(n, jobs, [&](std::size_t i) {
    obs::MetricsRegistry task_registry;
    obs::ScopedMetricsRegistry scope(task_registry);
    SegmentPartial& part = partials[i];
    auto reader = open_segment(dir, manifest, manifest.segments[i]);
    if (reader == nullptr) {
      part.corrupt = true;
      return;
    }
    crawler::ResponseRecord rec;
    util::ByteWriter candidates;
    while (reader->next(rec)) {
      part.windows.add(rec);
      part.honeypots.add(rec);
      if (rec.query_category == "honeypot") continue;
      const std::uint64_t ordinal = part.active++;
      part.families.add(rec);
      part.size_training.add(rec);
      if (limewire) {
        part.builtin_training.add(rec, vendor_known_strains(),
                                  vendor_partial_strains());
      }
      if (rec.downloaded && (rec.infected || rec.is_study_type())) {
        candidates.varint(ordinal);
        trace::encode_record(candidates, rec);
      }
    }
    part.stats = reader->stats();
    part.candidates = std::move(candidates).take();
    part.candidates.shrink_to_fit();
  });

  // Reduce in manifest (= stream) order: sums and set unions, plus the
  // active-record prefix the filter split below needs.
  analysis::RecordAccumulator families;
  analysis::WindowedAccumulator windows(window_ms);
  KadCoverageAccumulator honeypots;
  std::vector<std::uint64_t> prefix_active(n, 0);
  std::uint64_t total_active = 0;
  for (std::size_t i = 0; i < n; ++i) {
    prefix_active[i] = total_active;
    const SegmentPartial& part = partials[i];
    if (part.corrupt) {
      ++out.stats.segments_corrupt;
      continue;
    }
    ++out.stats.segments_read;
    fold_stats(out.stats, part.stats);
    families.merge(part.families);
    windows.merge(part.windows);
    honeypots.merge(part.honeypots);
    total_active += part.active;
  }

  // The E5 protocol splits the active stream at its first quarter — the
  // same index arithmetic as filter::split_at_fraction, applied to actual
  // decoded counts, so a dropped segment or block moves the split exactly
  // as it moves a materialized stream's. Whole prefix segments contribute
  // their pass-1 training counts; the boundary segment's training share and
  // the evaluation come from the retained candidates. No segment is read
  // twice and no record span is ever materialized.
  const auto split =
      static_cast<std::uint64_t>(static_cast<double>(total_active) * 0.25);
  filter::SizeTrainingCounts size_training;
  filter::BuiltinTrainingCounts builtin_training;
  for (std::size_t i = 0; i < n; ++i) {
    const SegmentPartial& part = partials[i];
    if (part.corrupt || prefix_active[i] >= split) continue;
    if (prefix_active[i] + part.active <= split) {
      size_training.merge(part.size_training);
      if (limewire) builtin_training.merge(part.builtin_training);
      continue;
    }
    const std::uint64_t need = split - prefix_active[i];
    for_each_candidate(part.candidates, [&](std::uint64_t ordinal,
                                            const crawler::ResponseRecord& rec) {
      if (ordinal >= need) return;
      size_training.add(rec);
      if (limewire) {
        builtin_training.add(rec, vendor_known_strains(),
                             vendor_partial_strains());
      }
    });
  }

  auto size_filter = filter::SizeFilter::learn_from_counts(size_training);
  std::optional<filter::LimewireBuiltinFilter> builtin;
  if (limewire) builtin = filter::make_builtin_filter_from_counts(builtin_training);

  // Evaluate the learned filters over the post-split candidates, skipping
  // the boundary segment's training share. The tallies are pure sums.
  filter::FilterEvaluation size_eval;
  size_eval.filter_name = size_filter.name();
  filter::FilterEvaluation builtin_eval;
  if (builtin) builtin_eval.filter_name = builtin->name();
  for (std::size_t i = 0; i < n; ++i) {
    const SegmentPartial& part = partials[i];
    if (part.corrupt || prefix_active[i] + part.active <= split) continue;
    const std::uint64_t skip =
        split > prefix_active[i] ? split - prefix_active[i] : 0;
    for_each_candidate(part.candidates, [&](std::uint64_t ordinal,
                                            const crawler::ResponseRecord& rec) {
      if (ordinal < skip) return;
      filter::accumulate_evaluation(size_filter, rec, size_eval);
      if (builtin) filter::accumulate_evaluation(*builtin, rec, builtin_eval);
    });
  }

  // Assemble the same Report build_report produces over a materialized
  // stream (see the wrappers in analysis/stats.cpp — one arithmetic).
  Report& report = out.report;
  report.network = manifest.header.network;
  report.records = out.stats.records_read;
  report.prevalence = families.prevalence.finalize();
  report.strain_ranking = families.strain_ranking.finalize();
  report.sources = families.sources.finalize();
  report.strain_sources = families.strain_sources.finalize();
  report.size_buckets = families.size_dist.finalize();
  report.sizes_per_strain = families.sizes_per_strain.finalize();
  report.categories = families.categories.finalize();
  report.days = families.days.finalize();
  report.filter_evals.push_back(std::move(size_eval));
  if (builtin) report.filter_evals.push_back(std::move(builtin_eval));
  if (manifest.summary) {
    attach_fault_report(report, manifest.summary->faults_enabled,
                        manifest.summary->fault_counters,
                        manifest.summary->crawl_stats);
    if (report.network == "kad") {
      report.honeypots = honeypots.finalize(manifest.summary->metrics);
    }
    report.timeseries = manifest.summary->timeseries;
  }
  out.windows = windows.finalize();

  // The workers' registries died with their threads; surface the aggregate
  // in the caller's registry, mirroring what a serial streaming read plus
  // filter::evaluate would have recorded.
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("trace.records_read").add(out.stats.records_read);
  registry.counter("trace.blocks_read").add(out.stats.blocks_read);
  registry.counter("trace.blocks_corrupt").add(out.stats.blocks_corrupt);
  registry.counter("trace.segments_read").add(out.stats.segments_read);
  registry.counter("trace.segments_corrupt").add(out.stats.segments_corrupt);
  for (const auto& eval : report.filter_evals) {
    std::string suffix = filter::filter_metric_suffix(eval.filter_name);
    registry.counter("filter." + suffix + ".blocked")
        .add(eval.true_positives + eval.false_positives);
    registry.counter("filter." + suffix + ".passed")
        .add(eval.malicious + eval.clean - eval.true_positives -
             eval.false_positives);
  }

  out.ok = true;
  return out;
}

}  // namespace p2p::core
