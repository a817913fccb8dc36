// Paper-table emitters: render each reproduced experiment in the same
// rows/series the paper reports. Used by the example CLIs.
// Also the canonical Report struct — every analysis family computed once
// over a record stream — shared by the live and trace-replay paths so the
// two produce byte-identical JSON for the same records.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "analysis/stats.h"
#include "crawler/fetch.h"             // CrawlStats
#include "fault/fault.h"               // FaultCounters
#include "filter/evaluation.h"
#include "obs/export.h"
#include "obs/timeseries.h"

namespace p2p::core {

/// Fault-injection appendix: what the injector did and how the crawler
/// degraded. Attached (and emitted in the JSON) only for runs that injected
/// faults, so fault-free reports stay byte-identical to pre-fault builds.
struct FaultReport {
  bool enabled = false;
  fault::FaultCounters injected;
  // Crawler degradation under fault load.
  std::uint64_t downloads_started = 0;
  std::uint64_t downloads_ok = 0;
  std::uint64_t downloads_failed = 0;
  std::uint64_t downloads_abandoned = 0;
  std::uint64_t retries_spent = 0;
  std::uint64_t hosts_quarantined = 0;
  std::uint64_t scan_timeouts = 0;
};

/// E9/E10 (KAD): distributed-honeypot coverage and sampling bias. Computed
/// from the honeypot half of a KAD record stream plus the run's ground-truth
/// counters ("kad.population.infected_users", "kad.honeypot.vantages" in the
/// metrics snapshot — persisted in trace summaries, so replay reproduces it).
struct KadCoveragePoint {
  /// Vantage-subset size k (the "how many honeypots do you need" axis).
  std::uint64_t vantages = 0;
  /// Expected fraction of infected peers observed by at least one vantage
  /// of a uniformly random k-subset of the deployed vantages. Exact (hyper-
  /// geometric over each peer's observer count), not a sampled estimate.
  double mean_coverage = 0.0;
};

struct KadCoverageReport {
  bool enabled = false;
  std::uint64_t vantages = 0;          // deployed vantage points (N)
  std::uint64_t observations = 0;      // honeypot records in the stream
  std::uint64_t stores = 0;            // publish (STORE) observations
  std::uint64_t queries = 0;           // keyword (FIND_VALUE) observations
  std::uint64_t infected_total = 0;    // ground truth (denominator)
  std::uint64_t infected_observed = 0; // seen by >= 1 deployed vantage
  /// Coverage curve at k in {1, 2, 4, 8, 16} clamped to [1, N].
  std::vector<KadCoveragePoint> curve;
  /// Per-vantage sampling bias: mean pairwise Jaccard overlap of the
  /// keyword sets the vantages observed (1 = every vantage sees the same
  /// keywords; near 0 = disjoint slices of the keyword space).
  double keyword_overlap = 0.0;
};

/// Every table of the study computed from one response log. build_report is
/// the single analysis entry point for both a live StudyResult and a
/// replayed trace, which is what makes replay-vs-live byte comparison
/// meaningful.
struct Report {
  std::string network;
  std::uint64_t records = 0;
  analysis::PrevalenceSummary prevalence;
  std::vector<analysis::StrainCount> strain_ranking;
  analysis::SourceSummary sources;
  std::vector<analysis::StrainSourceConcentration> strain_sources;
  std::vector<analysis::SizeBucket> size_buckets;
  std::map<std::string, std::set<std::uint64_t>> sizes_per_strain;
  std::vector<analysis::CategoryBin> categories;
  std::vector<analysis::DayBin> days;
  /// E5 protocol: filters learned on the first quarter, evaluated on the
  /// rest. Size filter always; LimeWire additionally gets the 2006-era
  /// builtin filter with the vendor strain lists below.
  std::vector<filter::FilterEvaluation> filter_evals;
  /// Set via attach_fault_report; default (disabled) emits nothing.
  FaultReport faults;
  /// Set via attach_kad_coverage; default (disabled) emits nothing, so
  /// LimeWire/OpenFT reports are byte-identical to pre-KAD builds.
  KadCoverageReport honeypots;
  /// Windowed counter/gauge series from the run. Emitted in the JSON only
  /// when non-empty, so unrecorded reports stay byte-identical to
  /// pre-timeseries builds.
  obs::TimeSeries timeseries;
};

/// Fill the report's fault appendix from a run's fault record — works for
/// both the live path (StudyResult fields) and the replay path (decoded
/// trace summary). No-op when `enabled` is false.
void attach_fault_report(Report& report, bool enabled,
                         const fault::FaultCounters& injected,
                         const crawler::CrawlStats& stats);

/// The vendor's strain knowledge used for the builtin-filter baseline
/// (shared by build_report and the sweep observables — one list, kept in
/// sync by construction).
[[nodiscard]] const std::vector<std::string>& vendor_known_strains();
[[nodiscard]] const std::vector<std::string>& vendor_partial_strains();

/// Run every analysis family over a time-ordered record stream. `network`
/// is "limewire", "openft" or "kad" (limewire selects the builtin-filter
/// baseline). A KAD stream interleaves honeypot observations with the
/// active client's responses; the standard families run on the active
/// (non-honeypot) subset while `records` counts the full stream.
[[nodiscard]] Report build_report(std::span<const crawler::ResponseRecord> records,
                                  const std::string& network);

/// Mergeable sufficient statistics of kad_coverage: per-peer observer sets
/// and per-vantage keyword sets over the honeypot half of a KAD stream.
/// add() ignores non-honeypot records, merge() is a union, and finalize()
/// computes the coverage curve and overlap — so out-of-core replay gathers
/// these per segment and reproduces the serial analysis exactly.
struct KadCoverageAccumulator {
  std::uint64_t observations = 0;
  std::uint64_t stores = 0;
  std::uint64_t queries = 0;
  /// Which vantages observed each infected peer (ordered: byte-stable).
  std::map<std::string, std::set<std::uint64_t>> observers;
  /// Which keywords each vantage saw.
  std::map<std::uint64_t, std::set<std::string>> keywords;

  void add(const crawler::ResponseRecord& record);
  void merge(const KadCoverageAccumulator& other);
  [[nodiscard]] KadCoverageReport finalize(const obs::MetricsSnapshot& metrics) const;
};

/// Compute the E9/E10 coverage analysis from a KAD record stream and the
/// run's metrics snapshot (ground-truth denominators).
[[nodiscard]] KadCoverageReport kad_coverage(
    std::span<const crawler::ResponseRecord> records,
    const obs::MetricsSnapshot& metrics);

/// Attach the honeypot coverage block to a report. No-op unless the
/// report's network is "kad", so other networks' JSON stays unchanged.
void attach_kad_coverage(Report& report,
                         std::span<const crawler::ResponseRecord> records,
                         const obs::MetricsSnapshot& metrics);

/// Deterministic single-line JSON ("p2p-report-1"): doubles rendered
/// shortest-round-trip, map iteration ordered — identical records in,
/// identical bytes out.
void write_report_json(std::ostream& out, const Report& report);

/// The four study presets (limewire/openft × quick/standard) with their key
/// parameters — the `--list-presets` output shared by the example CLIs.
void print_presets(std::ostream& out);

/// Observability appendix: the run's metrics snapshot as aligned tables
/// (counters, gauges, histogram summaries). Deterministic for a fixed seed
/// unless `options.include_wall_clock` is set.
void print_metrics(std::ostream& out, const std::string& network,
                   const obs::MetricsSnapshot& snapshot,
                   const obs::ExportOptions& options = {});

/// E1/E3: prevalence of malware among downloadable (exe/archive) responses.
void print_prevalence(std::ostream& out, const std::string& network,
                      const analysis::PrevalenceSummary& summary);

/// E2: strain ranking with top-k concentration lines.
void print_strain_ranking(std::ostream& out, const std::string& network,
                          const std::vector<analysis::StrainCount>& ranking);

/// E4: source analysis — address classes and per-strain host concentration.
void print_sources(std::ostream& out, const std::string& network,
                   const analysis::SourceSummary& summary,
                   const std::vector<analysis::StrainSourceConcentration>& strains);

/// E5: filter comparison.
void print_filter_comparison(std::ostream& out, const std::string& network,
                             std::span<const filter::FilterEvaluation> evals);

/// E11: per-query-category exposure (formerly E9).
void print_category_breakdown(std::ostream& out, const std::string& network,
                              const std::vector<analysis::CategoryBin>& bins);

/// E9/E10: honeypot coverage curve and vantage bias (KAD only).
void print_honeypot_coverage(std::ostream& out, const std::string& network,
                             const KadCoverageReport& coverage);

/// E6/E8: daily series (malicious fraction and strain discovery).
void print_daily_series(std::ostream& out, const std::string& network,
                        const std::vector<analysis::DayBin>& series);

/// E7: the most common exact sizes, split malicious/clean, plus the
/// distinct-size count per strain.
void print_size_analysis(std::ostream& out, const std::string& network,
                         const std::vector<analysis::SizeBucket>& buckets,
                         const std::map<std::string, std::set<std::uint64_t>>& per_strain,
                         std::size_t top_n = 12);

}  // namespace p2p::core
