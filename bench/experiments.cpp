// experiments — regenerates the paper tables of EXPERIMENTS.md.
//
//   experiments FILE          rewrite every <!-- experiments:NAME --> ...
//                             <!-- /experiments --> block of FILE in place
//   experiments --check FILE  regenerate in memory and leave FILE alone;
//                             exit 1 naming each block that differs
//
// Each section below renders one Markdown block. Its inputs are computed
// once per process, before any block renders: the two standard studies
// (with the 1-day time series E6 reads), the fresh A2–A4 crawls and one
// 16-seed sweep per network. Numbers the study report already carries are
// read from core::build_report. An unknown section name or an unclosed
// block exits 2 with its line number, before any study runs. E6's
// recorder-vs-log cross-check failing exits 1 without writing anything.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/stats.h"
#include "core/report.h"
#include "core/study.h"
#include "filter/evaluation.h"
#include "filter/hash_blocklist.h"
#include "filter/size_filter.h"
#include "obs/metrics.h"
#include "sweep/sweep.h"
#include "util/pool.h"
#include "util/strings.h"

namespace {

using namespace p2p;
using util::format_count;
using util::format_pct;

constexpr std::size_t kBandSeeds = 16;

// ---------------------------------------------------------------------------
// Inputs

struct Study {
  const char* name;
  core::StudyResult result;
  core::Report report;
};

struct Inputs {
  Study lw{"LimeWire", {}, {}}, ft{"OpenFT", {}, {}};  // standard presets, daily series
  sweep::SweepResult lw_bands, ft_bands;
  core::LimewireStudyConfig a2_base, a3_base, a4_base;
  std::vector<std::string> a2_labels;
  std::vector<core::StudyResult> a2, a3, a4;
};

core::LimewireStudyConfig ablation_base(int hours, int query_interval_s) {
  auto cfg = core::limewire_quick();
  cfg.population.ultrapeers = 12;
  cfg.population.leaves = 240;
  cfg.crawl.duration = sim::SimDuration::hours(hours);
  cfg.crawl.query_interval = sim::SimDuration::seconds(query_interval_s);
  return cfg;
}

constexpr std::uint32_t kPolymorphicJitter = 4096;

std::size_t workers() {
  return std::max(1u, std::thread::hardware_concurrency());
}

// Runs every study on the worker pool, each under its own metrics registry
// (as sweep tasks do), so concurrent runs never share counters.
std::vector<core::StudyResult> run_all(
    const std::vector<std::function<core::StudyResult()>>& runs) {
  std::vector<core::StudyResult> results(runs.size());
  std::vector<std::exception_ptr> errors(runs.size());
  util::parallel_for(runs.size(), workers(), [&](std::size_t i) {
    try {
      obs::MetricsRegistry registry;
      obs::ScopedMetricsRegistry scope(registry);
      results[i] = runs[i]();
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return results;
}

sweep::SweepResult seed_bands(sweep::NetworkKind network, std::uint64_t base_seed) {
  sweep::PlanConfig plan;
  plan.network = network;
  plan.quick = false;
  for (std::size_t i = 0; i < kBandSeeds; ++i) plan.seeds.push_back(base_seed + i);
  sweep::SweepOptions options;
  options.jobs = workers();
  auto result = sweep::run(sweep::plan(plan), options);
  if (!result.all_ok()) {
    throw std::runtime_error(std::string(sweep::network_name(network)) +
                             " seed sweep: " + std::to_string(result.failed) +
                             " replication(s) failed");
  }
  return result;
}

Inputs compute_inputs() {
  Inputs in;
  auto lw_cfg = core::limewire_standard();
  auto ft_cfg = core::openft_standard();
  // The sweeps run first, so no standard crawl is held in memory while
  // their workers run.
  std::fprintf(stderr, "[experiments] %zu-seed sweeps of both standard presets...\n",
               kBandSeeds);
  in.lw_bands = seed_bands(sweep::NetworkKind::kLimewire, lw_cfg.seed);
  in.ft_bands = seed_bands(sweep::NetworkKind::kOpenFt, ft_cfg.seed);

  lw_cfg.timeseries.window = sim::SimDuration::days(1);
  ft_cfg.timeseries.window = sim::SimDuration::days(1);

  in.a2_base = ablation_base(6, 120);
  in.a3_base = ablation_base(24, 120);
  in.a4_base = ablation_base(12, 180);
  std::vector<core::LimewireStudyConfig> a2, a3, a4;
  for (bool qrp : {true, false}) {
    auto cfg = in.a2_base;
    cfg.population.ultrapeer_config.use_qrp = qrp;
    a2.push_back(cfg);
    in.a2_labels.push_back(std::string("QRP ") + (qrp ? "on" : "off") + ", TTL " +
                           std::to_string(cfg.crawl.query_ttl));
  }
  for (std::uint8_t ttl : {2, 3, 5, 7}) {
    auto cfg = in.a2_base;
    cfg.crawl.query_ttl = ttl;
    a2.push_back(cfg);
    in.a2_labels.push_back("QRP on, TTL " + std::to_string(ttl));
  }
  for (std::uint32_t jitter : {0u, kPolymorphicJitter}) {
    auto cfg = in.a3_base;
    cfg.population.polymorphic_jitter = jitter;
    a3.push_back(cfg);
  }
  for (bool dynamic : {false, true}) {
    auto cfg = in.a4_base;
    cfg.crawl.dynamic_querying = dynamic;
    a4.push_back(cfg);
  }

  // Longest first, so the pool's tail is the short ablation crawls.
  std::vector<std::function<core::StudyResult()>> runs = {
      [&] { return core::run_limewire_study(lw_cfg); },
      [&] { return core::run_openft_study(ft_cfg); }};
  std::vector<std::vector<core::StudyResult>*> targets;
  for (auto [configs, target] : {std::pair{&a3, &in.a3}, {&a4, &in.a4}, {&a2, &in.a2}}) {
    for (const auto& cfg : *configs) {
      runs.push_back([&cfg] { return core::run_limewire_study(cfg); });
      targets.push_back(target);
    }
  }
  std::fprintf(stderr, "[experiments] %zu studies on %zu worker(s)...\n",
               runs.size(), workers());
  auto results = run_all(runs);
  in.lw.result = std::move(results[0]);
  in.ft.result = std::move(results[1]);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    targets[i]->push_back(std::move(results[2 + i]));
  }
  in.lw.report = core::build_report(in.lw.result.records, "limewire");
  in.ft.report = core::build_report(in.ft.result.records, "openft");
  return in;
}

// ---------------------------------------------------------------------------
// Markdown helpers

using Row = std::vector<std::string>;

std::string table(const Row& header, const std::vector<Row>& rows) {
  auto line = [](const Row& cells) {
    std::string out = "|";
    for (const auto& c : cells) out += " " + c + " |";
    return out + "\n";
  };
  std::string out = line(header) + "|";
  for (std::size_t i = 0; i < header.size(); ++i) out += "---|";
  out += "\n";
  for (const auto& r : rows) out += line(r);
  return out;
}

std::string bold(const std::string& s) { return "**" + s + "**"; }

std::string ci(double lo, double hi, int decimals = 1) {
  std::string out = "[";
  return out + format_pct(lo, decimals) + ", " + format_pct(hi, decimals) + "]";
}

// Per-query overlay cost and yield, truncated to whole numbers.
std::string per_query(std::uint64_t total, const core::StudyResult& r) {
  auto queries = r.crawl_stats.queries_sent;
  return queries == 0 ? "-" : std::to_string(total / queries);
}

// ---------------------------------------------------------------------------
// Sections

std::string render_headline(const Inputs& in) {
  const auto& lw = in.lw.report;
  const auto& ft = in.ft.report;
  auto lw_ci = analysis::bootstrap_malicious_fraction(in.lw.result.records);
  auto ft_ci = analysis::bootstrap_malicious_fraction(in.ft.result.records);
  std::string ft_top_host = "n/a";
  if (!ft.strain_sources.empty()) {
    const auto& top = ft.strain_sources.front();
    ft_top_host = format_count(top.distinct_sources) +
                  (top.distinct_sources == 1 ? " host" : " hosts") + " (" +
                  format_pct(top.top_source_share) + " of its responses)";
  }
  auto pct = [](double x, int decimals = 1) { return bold(format_pct(x, decimals)); };
  // build_report evaluates the size filter first, then LimeWire's builtin.
  const auto& size_eval = lw.filter_evals.at(0);
  const auto& builtin_eval = lw.filter_evals.at(1);
  return table(
      {"Experiment", "Metric", "Paper", "Measured"},
      {{"E1", "LimeWire: malicious fraction of downloadable exe/zip responses", "68%",
        pct(lw.prevalence.malicious_fraction()) + " (95% CI " +
            ci(lw_ci.lo, lw_ci.hi) + ", day bootstrap)"},
       {"E1", "OpenFT: malicious fraction", "3%",
        pct(ft.prevalence.malicious_fraction()) + " (95% CI " +
            ci(ft_ci.lo, ft_ci.hi) + ")"},
       {"E2", "LimeWire: top-3 strain share of malicious responses", "99%",
        pct(analysis::topk_share(lw.strain_ranking, 3))},
       {"E2", "OpenFT: top-1 strain share", "67%",
        pct(analysis::topk_share(ft.strain_ranking, 1))},
       {"E2", "OpenFT: top-3 strain share", "75%",
        pct(analysis::topk_share(ft.strain_ranking, 3))},
       {"E4", "LimeWire: malicious responses from private address ranges", "28%",
        pct(lw.sources.private_fraction)},
       {"E4", "OpenFT: top strain served by", "a single host", bold(ft_top_host)},
       {"E5", "LimeWire built-in filter detection", "~6%",
        pct(builtin_eval.detection_rate())},
       {"E5", "Size-based filter detection", ">99%",
        pct(size_eval.detection_rate())},
       {"E5", "Size-based filter false positives", "very low",
        pct(size_eval.false_positive_rate(), 3)}});
}

std::string render_bands(const Inputs& in) {
  auto band = [](const sweep::SweepResult& sweep, const char* metric, int decimals) {
    const sweep::MetricSummary* s = sweep.summary(metric);
    if (s == nullptr) throw std::runtime_error(std::string("no sweep metric ") + metric);
    return Row{bold(format_pct(s->moments.mean, decimals)),
               ci(s->ci.lo, s->ci.hi, decimals),
               format_pct(s->moments.min, decimals) + " – " +
                   format_pct(s->moments.max, decimals)};
  };
  auto row = [&](Row head, const sweep::SweepResult& sweep, const char* metric,
                 int decimals = 1) {
    for (auto& cell : band(sweep, metric, decimals)) head.push_back(cell);
    return head;
  };
  auto seeds = [](const sweep::SweepResult& sweep) {
    return std::to_string(sweep.tasks.front().seed) + "–" +
           std::to_string(sweep.tasks.back().seed);
  };
  const auto& lw = in.lw_bands;
  const auto& ft = in.ft_bands;
  return std::to_string(kBandSeeds) + " seeds per network: LimeWire " + seeds(lw) +
         ", OpenFT " + seeds(ft) + ".\n\n### E1 — prevalence\n\n" +
         table({"Network", "Paper", "Mean", "95% CI", "Range over seeds"},
               {row({"LimeWire", "68%"}, lw, "prevalence.malicious_fraction"),
                row({"OpenFT", "3%"}, ft, "prevalence.malicious_fraction")}) +
         "\n### E2 — strain concentration\n\n" +
         table({"Metric", "Paper", "Mean", "95% CI", "Range over seeds"},
               {row({"LimeWire top-3 share", "99%"}, lw, "strains.top3_share"),
                row({"OpenFT top-1 share", "67%"}, ft, "strains.top1_share"),
                row({"OpenFT top-3 share", "75%"}, ft, "strains.top3_share")}) +
         "\n### E5 — filtering\n\n" +
         table({"Metric", "Paper", "Mean", "95% CI", "Range over seeds"},
               {row({"LimeWire builtin detection", "~6%"}, lw,
                    "filter.builtin_detection"),
                row({"Size-based detection", ">99%"}, lw, "filter.size_detection"),
                row({"Size-based false positives", "very low"}, lw,
                    "filter.size_false_positives", 3)});
}

std::string render_e3(const Inputs& in) {
  auto of = [](double fraction, std::uint64_t labeled) {
    return format_pct(fraction) + " of " + format_count(labeled);
  };
  std::vector<Row> types, cross;
  for (const auto* study : {&in.lw, &in.ft}) {
    const auto& s = study->report.prevalence;
    types.push_back({study->name, of(s.exe_fraction(), s.exe_labeled),
                     of(s.archive_fraction(), s.archive_labeled),
                     of(s.malicious_fraction(), s.labeled)});
    // Advertised extension vs content magic of the malicious responses.
    std::map<std::pair<std::string, std::string>, std::uint64_t> by_type;
    for (const auto& r : study->result.records) {
      if (!r.downloaded || !r.infected) continue;
      by_type[{std::string(files::to_string(r.type_by_name)),
               std::string(files::to_string(r.type_by_magic))}]++;
    }
    for (const auto& [types_seen, count] : by_type) {
      cross.push_back(
          {study->name, types_seen.first, types_seen.second, format_count(count)});
    }
  }
  return table({"Network", "Executables malicious", "Archives malicious", "Combined"},
               types) +
         "\n" +
         table({"Network", "Advertised type", "Content magic", "Malicious responses"},
               cross);
}

std::uint64_t recorded_responses(const obs::TimeSeries& series) {
  std::uint64_t total = 0;
  for (const auto& w : series.windows) {
    for (const auto& [name, delta] : w.counters) {
      if (name == "crawler.responses_logged") total += delta;
    }
  }
  return total;
}

std::string render_e6(const Inputs& in) {
  std::vector<Row> rows;
  for (const auto* study : {&in.lw, &in.ft}) {
    const auto& series = study->result.timeseries;
    std::uint64_t recorded = recorded_responses(series);
    // The recorder and the response log observe the same crawl by two paths;
    // their response totals must agree exactly.
    if (series.empty() || recorded != study->result.records.size()) {
      throw std::runtime_error(std::string("E6: ") + study->name +
                               " recorder counts " + format_count(recorded) +
                               " responses, the log holds " +
                               format_count(study->result.records.size()));
    }
    double lo = 1.0, hi = 0.0;
    for (const auto& d : study->report.days) {
      if (d.labeled < 100) continue;
      lo = std::min(lo, d.malicious_fraction());
      hi = std::max(hi, d.malicious_fraction());
    }
    rows.push_back({study->name, format_count(recorded),
                    format_count(study->result.records.size()),
                    format_pct(lo) + " – " + format_pct(hi)});
  }
  return table({"Network", "Recorder responses", "Log records",
                "Daily malicious fraction (days with ≥100 labeled)"},
               rows);
}

std::string render_e7(const Inputs& in) {
  std::vector<Row> rows;
  for (const auto* study : {&in.lw, &in.ft}) {
    std::vector<std::uint64_t> malicious, clean;
    for (const auto& b : study->report.size_buckets) {
      if (b.malicious > 0) malicious.push_back(b.malicious);
      if (b.clean > 0) clean.push_back(b.clean);
    }
    auto top10_share = [](std::vector<std::uint64_t>& counts) {
      std::sort(counts.rbegin(), counts.rend());
      std::uint64_t total = 0, top = 0;
      for (std::size_t i = 0; i < counts.size(); ++i) {
        total += counts[i];
        if (i < 10) top += counts[i];
      }
      return total == 0 ? 0.0 : static_cast<double>(top) / static_cast<double>(total);
    };
    rows.push_back({study->name, format_pct(top10_share(malicious)),
                    std::to_string(malicious.size()), format_pct(top10_share(clean)),
                    std::to_string(clean.size())});
  }
  return table({"Network", "Top-10 sizes' share of malicious", "Distinct malicious sizes",
                "Top-10 sizes' share of clean", "Distinct clean sizes"},
               rows);
}

std::string render_e8(const Inputs& in) {
  std::vector<Row> rows;
  for (const auto* study : {&in.lw, &in.ft}) {
    const auto& days = study->report.days;
    std::uint64_t final_count = days.empty() ? 0 : days.back().cumulative_strains;
    std::string saturated = "-";
    for (const auto& d : days) {
      if (d.cumulative_strains == final_count) {
        saturated = std::to_string(d.day);
        break;
      }
    }
    rows.push_back({study->name, std::to_string(final_count), saturated});
  }
  return table({"Network", "Distinct strains at month end", "Saturated on day"}, rows);
}

std::string render_e11(const Inputs& in) {
  std::map<std::string, Row> by_category;
  for (const auto* study : {&in.lw, &in.ft}) {
    std::size_t column = study == &in.lw ? 0 : 2;
    for (const auto& bin : study->report.categories) {
      Row& row = by_category.try_emplace(bin.category, Row(4, "-")).first->second;
      row[column] = format_count(bin.labeled);
      row[column + 1] = format_pct(bin.malicious_fraction());
    }
  }
  std::vector<Row> rows;
  for (auto& [category, cells] : by_category) {
    Row row = {category};
    row.insert(row.end(), cells.begin(), cells.end());
    rows.push_back(std::move(row));
  }
  return table({"Query category", "LimeWire labeled", "LimeWire malicious",
                "OpenFT labeled", "OpenFT malicious"},
               rows);
}

std::string render_a1(const Inputs& in) {
  auto split = filter::split_at_fraction(in.lw.result.records, 0.25);
  std::vector<Row> rows;
  for (std::size_t top : {1, 2, 3, 5, 10}) {
    for (std::size_t per : {1, 2, 3, 5}) {
      filter::SizeFilterConfig cfg;
      cfg.top_strains = top;
      cfg.sizes_per_strain = per;
      auto f = filter::SizeFilter::learn(split.training, cfg);
      auto e = filter::evaluate(f, split.evaluation);
      rows.push_back({std::to_string(top), std::to_string(per),
                      std::to_string(f.blocked_sizes().size()),
                      format_pct(e.detection_rate()),
                      format_pct(e.false_positive_rate(), 3)});
    }
  }
  return "Standard LimeWire crawl; learned on its first quarter, evaluated on the "
         "rest.\n\n" +
         table({"Top strains", "Sizes/strain", "Blocked sizes", "Detection", "FP rate"},
               rows);
}

std::string crawl_caption(const core::LimewireStudyConfig& cfg) {
  return format_count(static_cast<std::uint64_t>(cfg.crawl.duration.count_ms() /
                                                 3'600'000)) +
         " h crawls, " + format_count(cfg.population.leaves) + " leaves, " +
         format_count(cfg.population.ultrapeers) + " ultrapeers, one query every " +
         format_count(static_cast<std::uint64_t>(cfg.crawl.query_interval.count_ms() /
                                                 1000)) +
         " s";
}

std::string render_a2(const Inputs& in) {
  std::vector<Row> rows;
  for (std::size_t i = 0; i < in.a2.size(); ++i) {
    const auto& r = in.a2[i];
    rows.push_back({in.a2_labels[i], format_count(r.messages_delivered),
                    per_query(r.messages_delivered, r),
                    per_query(r.crawl_stats.responses, r),
                    format_pct(analysis::prevalence(r.records).malicious_fraction())});
  }
  return crawl_caption(in.a2_base) + ".\n\n" +
         table({"Config", "Messages", "Msgs/query", "Responses/query", "Mal. fraction"},
               rows);
}

std::string render_a3(const Inputs& in) {
  std::vector<Row> rows;
  for (std::size_t i = 0; i < in.a3.size(); ++i) {
    const auto& r = in.a3[i];
    auto split = filter::split_at_fraction(r.records, 0.4);
    auto size_e = filter::evaluate(filter::SizeFilter::learn(split.training),
                                   split.evaluation);
    auto hash_e = filter::evaluate(filter::HashBlocklistFilter::learn(split.training, 3),
                                   split.evaluation);
    std::uint64_t contents = 0;
    for (const auto& s : analysis::strain_ranking(r.records)) {
      contents += s.distinct_contents;
    }
    rows.push_back({i == 0 ? "base (fixed variants)" : "polymorphic (per-copy padding)",
                    format_count(contents), format_pct(size_e.detection_rate()),
                    format_pct(hash_e.detection_rate()),
                    format_pct(size_e.false_positive_rate(), 3)});
  }
  return crawl_caption(in.a3_base) + "; filters learned on the first 40% of each "
         "crawl; polymorphic echo strains pad every served copy with up to " +
         format_count(kPolymorphicJitter) + " random bytes.\n\n" +
         table({"Population", "Distinct mal. contents", "Size-filter det.",
                "Hash-blocklist det.", "FP rate (size)"},
               rows);
}

std::string render_a4(const Inputs& in) {
  std::vector<Row> rows;
  for (std::size_t i = 0; i < in.a4.size(); ++i) {
    const auto& r = in.a4[i];
    auto s = analysis::prevalence(r.records);
    rows.push_back({i == 0 ? "flood all ultrapeers"
                           : "dynamic (target " +
                                 std::to_string(in.a4_base.crawl.dynamic_target_results) +
                                 ")",
                    format_count(r.messages_delivered),
                    per_query(r.messages_delivered, r),
                    per_query(r.crawl_stats.responses, r), format_count(s.labeled),
                    format_pct(s.malicious_fraction())});
  }
  return crawl_caption(in.a4_base) + ".\n\n" +
         table({"Strategy", "Messages", "Msgs/query", "Responses/query", "Labeled",
                "Mal. fraction"},
               rows);
}

struct Section {
  const char* name;
  std::string (*render)(const Inputs&);
};

constexpr Section kSections[] = {
    {"headline", render_headline}, {"bands", render_bands}, {"e3", render_e3},
    {"e6", render_e6},             {"e7", render_e7},       {"e8", render_e8},
    {"e11", render_e11},           {"a1", render_a1},       {"a2", render_a2},
    {"a3", render_a3},             {"a4", render_a4},
};

const Section* find_section(const std::string& name) {
  for (const auto& s : kSections) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Marker parsing

constexpr std::string_view kOpenPrefix = "<!-- experiments:";
constexpr std::string_view kClose = "<!-- /experiments -->";

// A Markdown file cut at its markers: literal text alternates with blocks.
struct Piece {
  std::string text;                  // literal text, or the block's current body
  const Section* section = nullptr;  // null for literal text
  std::size_t line = 0;              // the opening marker's line number
};

struct ParseError : std::runtime_error {
  ParseError(std::size_t at, const std::string& message)
      : std::runtime_error(message), line(at) {}
  std::size_t line;
};

std::vector<Piece> parse(const std::string& content) {
  std::vector<Piece> pieces(1);
  bool in_block = false;
  std::size_t line_no = 0;
  std::istringstream lines(content);
  for (std::string line; std::getline(lines, line);) {
    ++line_no;
    const bool open = line.starts_with(kOpenPrefix);
    const bool close = line.starts_with("<!-- /experiments");
    if (open) {
      if (in_block) {
        throw ParseError(line_no, "block opened at line " +
                                      std::to_string(pieces.back().line) +
                                      " is not closed");
      }
      std::string name = line.substr(kOpenPrefix.size());
      if (!name.ends_with(" -->")) throw ParseError(line_no, "malformed marker");
      name.resize(name.size() - 4);
      const Section* section = find_section(name);
      if (section == nullptr) throw ParseError(line_no, "unknown section '" + name + "'");
      pieces.back().text += line + "\n";
      pieces.push_back({"", section, line_no});
      in_block = true;
    } else if (close) {
      if (line != kClose) throw ParseError(line_no, "malformed marker");
      if (!in_block) throw ParseError(line_no, "closing marker without an open block");
      pieces.push_back({line + "\n", nullptr, line_no});
      in_block = false;
    } else {
      pieces.back().text += line + "\n";
    }
  }
  if (in_block) {
    throw ParseError(pieces.back().line,
                     std::string("block '") + pieces.back().section->name +
                         "' is not closed");
  }
  return pieces;
}

int usage() {
  std::fprintf(stderr, "usage: experiments [--check] FILE\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--check" && !check) {
      check = true;
    } else if (arg.starts_with("-") || !path.empty()) {
      return usage();
    } else {
      path = arg;
    }
  }
  if (path.empty()) return usage();

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "%s: cannot read\n", path.c_str());
    return 2;
  }
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  std::vector<Piece> pieces;
  try {
    pieces = parse(content);
  } catch (const ParseError& e) {
    std::fprintf(stderr, "%s:%zu: %s\n", path.c_str(), e.line, e.what());
    return 2;
  }

  std::map<const Section*, std::string> rendered;
  try {
    Inputs inputs = compute_inputs();
    for (const auto& piece : pieces) {
      if (piece.section != nullptr && !rendered.contains(piece.section)) {
        rendered[piece.section] = piece.section->render(inputs);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "experiments: %s\n", e.what());
    return 1;
  }

  std::string out;
  int stale = 0;
  for (const auto& piece : pieces) {
    if (piece.section == nullptr) {
      out += piece.text;
      continue;
    }
    const std::string& fresh = rendered[piece.section];
    if (piece.text != fresh) {
      ++stale;
      std::fprintf(stderr, "%s:%zu: block '%s' differs from the generated one\n",
                   path.c_str(), piece.line, piece.section->name);
    }
    out += fresh;
  }
  if (check) {
    std::fprintf(stderr, "%s: %d stale block(s)\n", path.c_str(), stale);
    return stale == 0 ? 0 : 1;
  }
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << out;
  file.close();
  if (!file) {
    std::fprintf(stderr, "%s: cannot write\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr, "%s: rewrote %d stale block(s)\n", path.c_str(), stale);
  return 0;
}
