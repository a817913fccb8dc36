// p2pbench: one benchmark operation per process, so every timed run starts
// cold (no population, interner or allocator state from an earlier one).
// perfbench/run.py drives it; each invocation prints one JSON line.
//
//   p2pbench info
//   p2pbench setup --workload W --seed N [--dir D] [--small]
//   p2pbench run   --workload W --seed N [--dir D] [--out F] [--documents F]
//                  [--jobs J] [--shards S] [--small]
//   p2pbench trace --workload W --seed N [--dir D] [--out F] [--documents F]
//                  [--spans F] [--shards S] [--small]
//
// setup times the workload's set-up (lw_scale: one cold population build;
// sweep_bands: the three quick populations; capture_replay: the segment
// writer's calls while the capture is recorded into --dir). --shards sets
// lw_scale's shard count (default kLwShards). run times the workload's
// operation through the library's real entry points and writes the bytes it
// is judged by to --out
// (a study document, the sweep JSON, or the replayed report). trace runs
// the traced composition of the same operation: its output bytes must equal
// run's, and its JSON line carries the per-layer metrics. Exit status is 0
// whenever the JSON line was printed; "ok":false reports a failed operation.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "capture.h"
#include "compose.h"
#include "core/replay.h"
#include "ledger.h"
#include "obs/json.h"
#include "trace/segment.h"
#include "workloads.h"

namespace {

using namespace p2pbench;
namespace agents = p2p::agents;
namespace obs = p2p::obs;
namespace sim = p2p::sim;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One flat JSON object, keys in insertion order.
class JsonLine {
 public:
  void num(const std::string& key, double v) { raw(key, obs::json_number(v)); }
  void count(const std::string& key, std::uint64_t v) { raw(key, std::to_string(v)); }
  void str(const std::string& key, const std::string& v) {
    raw(key, "\"" + obs::json_escape(v) + "\"");
  }
  void flag(const std::string& key, bool v) { raw(key, v ? "true" : "false"); }
  void raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + obs::json_escape(key) + "\":" + json);
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

struct Args {
  std::string op;
  std::string workload;
  std::uint64_t seed = 1;
  std::string dir;
  std::string out;
  std::string documents;
  std::string spans;
  std::size_t jobs = kThreads;
  std::size_t shards = kLwShards;  // lw_scale only
  bool small = false;
};

// FNV-1a over the output bytes: a short handle for logs; run.py
// compares the files themselves.
std::string digest(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

void write_file(const std::string& path, const std::string& bytes) {
  if (path.empty()) return;
  std::ofstream out(path, std::ios::binary);
  out << bytes;
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::string band_of(sweep::NetworkKind network) {
  return std::string(sweep::network_name(network));
}

CaptureSpec capture_spec(const Args& args, const Scale& scale) {
  CaptureSpec spec;
  spec.seed = args.seed;
  spec.records = scale.capture_records;
  spec.days = scale.capture_days;
  return spec;
}

std::vector<std::vector<sweep::StudyTask>> sweep_tasks(const Args& args,
                                                       const Scale& scale) {
  std::vector<std::vector<sweep::StudyTask>> out;
  for (const auto& plan : sweep_bands_plans(args.seed, scale)) {
    out.push_back(sweep::plan(plan));
  }
  return out;
}

// Study ids of sweep tasks: unique across the three sweeps.
std::uint64_t sweep_study_id(std::size_t plan, const sweep::StudyTask& task) {
  return static_cast<std::uint64_t>(plan) * 1000 + task.index;
}

// -- Set-up ------------------------------------------------------------------

/// One cold population build of `task`'s network on a fresh network of the
/// task's executor. Returns the build call's seconds; adds peers and the
/// resident-set growth to the totals.
double build_population_once(const sweep::StudyTask& task, std::uint64_t& peers,
                             double& rss_kib) {
  double rss0 = current_rss_kib();
  double seconds = 0.0;
  auto timed = [&seconds](auto&& build) {
    auto t0 = Clock::now();
    auto pop = build();
    seconds = since(t0);
    return pop;
  };
  switch (task.network) {
    case sweep::NetworkKind::kLimewire: {
      sim::ShardingConfig sharding;
      sharding.shards = task.limewire.shards;
      sim::Network net(task.limewire.seed, sharding);
      auto pop = timed(
          [&] { return agents::build_gnutella_population(net, task.limewire.population); });
      peers += pop.ultrapeer_ids.size() + pop.leaf_specs.size();
      rss_kib += current_rss_kib() - rss0;
      break;
    }
    case sweep::NetworkKind::kOpenFt: {
      sim::ShardingConfig sharding;
      sharding.shards = task.openft.shards;
      sim::Network net(task.openft.seed, sharding);
      auto pop = timed(
          [&] { return agents::build_openft_population(net, task.openft.population); });
      peers += pop.search_node_ids.size() + pop.index_node_ids.size() +
               pop.user_specs.size();
      rss_kib += current_rss_kib() - rss0;
      break;
    }
    case sweep::NetworkKind::kKad: {
      sim::Network net(task.kad.seed);
      auto pop =
          timed([&] { return agents::build_kad_population(net, task.kad.population); });
      peers += pop.server_ids.size() + pop.user_specs.size();
      rss_kib += current_rss_kib() - rss0;
      break;
    }
  }
  return seconds;
}

void setup_op(const Args& args, const Scale& scale, JsonLine& line) {
  if (args.workload == "capture_replay") {
    auto t0 = Clock::now();
    CaptureStats stats = write_capture(args.dir, capture_spec(args, scale));
    line.num("setup_s", stats.write_s);
    line.num("capture_s", since(t0));  // generator included
    line.flag("ok", stats.ok);
    if (!stats.ok) line.str("error", "capture write failed");
    line.count("records", stats.records);
    line.count("bytes", stats.bytes);
    line.count("segments", stats.segments);
    line.num("sim_hours", stats.sim_hours);
    return;
  }
  std::vector<sweep::StudyTask> tasks;
  if (args.workload == "lw_scale") {
    tasks.push_back(lw_scale_task(args.seed, scale));
  } else {
    for (auto& plan_tasks : sweep_tasks(args, scale)) tasks.push_back(plan_tasks.front());
  }
  std::uint64_t peers = 0;
  double rss_kib = 0.0;
  double seconds = 0.0;
  for (const auto& task : tasks) seconds += build_population_once(task, peers, rss_kib);
  line.num("setup_s", seconds);
  line.flag("ok", peers > 0);
  line.count("peers", peers);
  line.num("rss_per_peer_kib", peers > 0 ? rss_kib / static_cast<double>(peers) : 0.0);
}

// -- Layer totals -------------------------------------------------------------

/// Per-layer counts summed over every study of a traced run.
struct Totals {
  std::mutex mutex;  // guards everything below (sweep workers add concurrently)
  std::map<std::string, double> counters;
  double scan_ns = 0.0;
  std::uint64_t peers = 0;
  double build_rss_kib = 0.0;
  double run_wall_s = 0.0;
  double run_cpu_s = 0.0;
  double run_capacity_s = 0.0;  // run wall x threads the engine ran on
  std::uint64_t rounds = 0;
  std::uint64_t cross_shard = 0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t message_bytes = 0;
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  double gnutella_connects = 0.0;
  double gnutella_peer_hours = 0.0;
  std::uint64_t queries_sent = 0;
  std::uint64_t responses = 0;
  std::uint64_t downloads_started = 0;
  std::uint64_t downloads_ok = 0;
  std::uint64_t report_bytes = 0;
  std::uint64_t trace_bytes = 0;
  std::uint64_t trace_segments = 0;
  std::uint64_t records_read = 0;
  std::uint64_t blocks_corrupt = 0;

  void add(const sweep::StudyTask& task, const core::StudyResult& result,
           const StudyProbe& probe, std::size_t report_size) {
    std::lock_guard<std::mutex> lock(mutex);
    for (const auto& c : result.metrics.counters) {
      counters[c.name] += static_cast<double>(c.value);
    }
    for (const auto& h : result.metrics.histograms) {
      if (h.name == "scanner.scan_wall_ns") scan_ns += static_cast<double>(h.sum);
    }
    peers += probe.peers;
    build_rss_kib += probe.build_rss_kib;
    run_wall_s += probe.run_wall_s;
    run_cpu_s += probe.run_cpu_s;
    run_capacity_s += probe.run_wall_s * static_cast<double>(std::max<std::size_t>(1, probe.shards));
    rounds += probe.rounds;
    cross_shard += probe.cross_shard_messages;
    events += result.events_executed;
    messages += result.messages_delivered;
    message_bytes += result.bytes_delivered;
    joins += result.churn_joins;
    leaves += result.churn_leaves;
    if (task.network == sweep::NetworkKind::kLimewire) {
      for (const auto& c : result.metrics.counters) {
        if (c.name == "net.connects_attempted") {
          gnutella_connects += static_cast<double>(c.value);
        }
      }
      gnutella_peer_hours += static_cast<double>(probe.peers) * task_sim_hours(task);
    }
    queries_sent += result.crawl_stats.queries_sent;
    responses += result.crawl_stats.responses;
    downloads_started += result.crawl_stats.downloads_started;
    downloads_ok += result.crawl_stats.downloads_ok;
    report_bytes += report_size;
  }

  [[nodiscard]] double counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The per-layer metrics of a traced run, in BENCHMARK.json order. Layer
/// times are shares of the root spans' summed duration; obs.trace_overhead
/// is added by run.py, which owns the untraced run.
std::string layer_metrics(const Ledger& ledger, const Totals& t,
                          const std::map<std::string, double>& sweep_shares,
                          double parallel_eff, std::uint64_t sweep_tasks,
                          double traced_wall_s) {
  double roots = ledger.roots_s();
  std::map<std::string, double> self;
  std::map<std::string, double> total;
  for (const auto& site : ledger.sites()) {
    self[site.name] = site.self_s;
    total[site.name] = site.total_s;
  }
  auto share = [&](const std::string& site) { return ratio(self[site], roots); };
  std::string body;
  auto add = [&body](const std::string& name, double value, const char* unit) {
    body += (body.empty() ? "" : ",") + ("\"" + name + "\":{\"value\":" +
                                         obs::json_number(value) + ",\"unit\":\"" +
                                         unit + "\"}");
  };
  double peers = static_cast<double>(t.peers);
  add("agents.build_population_share", share("agents.build_population"), "share");
  add("agents.peers", peers, "count");
  add("agents.rss_per_peer_kib", ratio(t.build_rss_kib, peers), "KiB");
  add("agents.churn_joins", static_cast<double>(t.joins), "count");
  add("agents.churn_leaves", static_cast<double>(t.leaves), "count");

  add("sim.run_share", share("sim.run"), "share");
  add("sim.events", static_cast<double>(t.events), "count");
  add("sim.events_per_s", ratio(static_cast<double>(t.events), t.run_wall_s), "1/s");
  add("sim.rounds", static_cast<double>(t.rounds), "count");
  add("sim.events_per_round",
      ratio(static_cast<double>(t.events), static_cast<double>(t.rounds)), "count");
  add("sim.cross_shard_messages", static_cast<double>(t.cross_shard), "count");
  add("sim.cpu_util", ratio(t.run_cpu_s, t.run_capacity_s), "ratio");
  add("sim.messages", static_cast<double>(t.messages), "count");
  add("sim.message_bytes", static_cast<double>(t.message_bytes), "bytes");
  add("sim.connects_attempted", t.counter("net.connects_attempted"), "count");
  add("sim.connect_ok_ratio",
      ratio(t.counter("net.connections_opened"), t.counter("net.connects_attempted")),
      "ratio");

  for (const char* name : {"queries_received", "queries_routed", "qrp_suppressed",
                           "hits_sent", "links_established", "links_closed"}) {
    add(std::string("gnutella.") + name, t.counter(std::string("gnutella.") + name),
        "count");
  }
  add("gnutella.connects_per_peer_hour", ratio(t.gnutella_connects, t.gnutella_peer_hours),
      "1/h");

  for (const char* name :
       {"searches_handled", "searches_forwarded", "results_sent", "sessions_established"}) {
    add(std::string("openft.") + name, t.counter(std::string("openft.") + name), "count");
  }

  add("kad.rpcs_sent", t.counter("kad.rpcs_sent"), "count");
  add("kad.rpc_ok_ratio",
      t.counter("kad.rpcs_sent") > 0
          ? 1.0 - ratio(t.counter("kad.rpcs_failed"), t.counter("kad.rpcs_sent"))
          : 0.0,
      "ratio");
  add("kad.lookups", t.counter("kad.lookups"), "count");
  add("kad.stores_received", t.counter("kad.stores_received"), "count");

  add("crawler.setup_share", share("crawler.setup") + share("crawler.start"), "share");
  add("crawler.finalize_share", share("crawler.finalize"), "share");
  add("crawler.queries_sent", static_cast<double>(t.queries_sent), "count");
  add("crawler.responses", static_cast<double>(t.responses), "count");
  add("crawler.downloads_started", static_cast<double>(t.downloads_started), "count");
  add("crawler.download_ok_ratio",
      ratio(static_cast<double>(t.downloads_ok), static_cast<double>(t.downloads_started)),
      "ratio");

  add("malware.scanner_build_share", share("malware.scanner_build"), "share");
  add("malware.scans", t.counter("scanner.scans"), "count");
  add("malware.scan_share", ratio(t.scan_ns * 1e-9, roots), "share");

  add("core.study_share", ratio(total["core.study"], roots), "share");
  add("core.build_report_share", share("core.build_report"), "share");
  add("core.write_report_json_share", share("core.write_report_json"), "share");
  add("core.report_bytes", static_cast<double>(t.report_bytes), "bytes");
  add("core.residual_share", ratio(ledger.residual_s(), roots), "share");
  add("core.residual_s", ledger.residual_s(), "s");

  add("trace.write_share", share("trace.write"), "share");
  add("trace.bytes_written", static_cast<double>(t.trace_bytes), "bytes");
  add("trace.segments_written", static_cast<double>(t.trace_segments), "count");
  add("trace.replay_share", share("trace.replay"), "share");
  add("trace.records_read", static_cast<double>(t.records_read), "count");
  add("trace.blocks_corrupt", static_cast<double>(t.blocks_corrupt), "count");

  add("sweep.tasks", static_cast<double>(sweep_tasks), "count");
  for (const char* net : {"limewire", "openft", "kad"}) {
    auto it = sweep_shares.find(net);
    add(std::string("sweep.task_share.") + net,
        it == sweep_shares.end() ? 0.0 : it->second, "share");
  }
  add("sweep.parallel_eff", parallel_eff, "ratio");

  add("obs.traced_wall_s", traced_wall_s, "s");
  add("obs.spans", static_cast<double>(ledger.records().size()), "count");
  return "{" + body + "}";
}

/// A traced run's outputs: the per-layer metrics on its JSON line, the
/// ledger table on stderr, and the spans as Chrome trace-event JSON.
void emit_ledger(const Ledger& ledger, const std::string& layers, const Args& args,
                 const std::string& what, JsonLine& line) {
  line.raw("layers", layers);
  std::cerr << args.workload << " per-layer ledger (seed " << args.seed << what << "):\n";
  ledger.print_table(std::cerr);
  if (!args.spans.empty()) {
    std::ofstream spans(args.spans);
    ledger.write_chrome_json(spans);
  }
}

// -- Study workloads -----------------------------------------------------------

/// A study's report and document, with the report under the two core spans.
std::string study_output(const core::StudyResult& result, sweep::NetworkKind network,
                         Ledger* ledger, std::uint64_t id, Headline& h) {
  core::Report report;
  {
    Ledger::Span span(ledger, "core.build_report", id);
    report = study_report(result, network);
  }
  std::string json;
  {
    Ledger::Span span(ledger, "core.write_report_json", id);
    json = report_json(report);
  }
  h = headline(report);
  return study_document(result, json);
}

void lw_scale_op(const Args& args, const Scale& scale, bool traced, JsonLine& line) {
  sweep::StudyTask task = lw_scale_task(args.seed, scale, args.shards);
  Ledger ledger;
  Totals totals;
  StudyProbe probe;
  double cpu0 = process_cpu_s();
  auto t0 = Clock::now();
  std::optional<Ledger::Span> root;
  if (traced) root.emplace(&ledger, "bench.operation");
  core::StudyResult result =
      traced ? compose_study(task, 0, &ledger, probe) : run_real_study(task);
  double wall = since(t0);
  double cpu = process_cpu_s() - cpu0;
  Headline h;
  std::string doc =
      study_output(result, task.network, traced ? &ledger : nullptr, 0, h);
  root.reset();
  double traced_wall = since(t0);
  write_file(args.out, doc);
  std::string why = check_headline(h, "limewire");
  line.flag("ok", why.empty());
  if (!why.empty()) line.str("error", why);
  line.num("wall_s", wall);
  line.num("cpu_s", cpu);
  line.num("sim_hours", task_sim_hours(task));
  line.count("records", result.records.size());
  line.count("events", result.events_executed);
  line.count("operations", 1);
  line.count("operations_failed", why.empty() ? 0 : 1);
  line.str("digest", digest(doc));
  if (traced) {
    totals.add(task, result, probe, doc.size());
    emit_ledger(ledger, layer_metrics(ledger, totals, {}, 0.0, 0, traced_wall), args,
                "", line);
  }
}

void sweep_bands_op(const Args& args, const Scale& scale, bool traced, JsonLine& line) {
  auto plans = sweep_tasks(args, scale);
  Ledger ledger;
  Totals totals;
  double setup_rss_kib = 0.0;
  std::uint64_t setup_peers = 0;
  if (traced) {
    // Resident-set growth per peer, from serial builds: concurrent sweep
    // workers would count each other's allocations.
    for (const auto& tasks : plans) {
      (void)build_population_once(tasks.front(), setup_peers, setup_rss_kib);
    }
  }
  std::vector<std::vector<std::string>> documents(plans.size());
  std::vector<std::vector<std::string>> bad(plans.size());
  for (std::size_t p = 0; p < plans.size(); ++p) {
    documents[p].resize(plans[p].size());
    bad[p].resize(plans[p].size());
  }
  bool want_documents = traced || !args.documents.empty();

  std::vector<sweep::SweepResult> results;
  double cpu0 = process_cpu_s();
  auto t0 = Clock::now();
  for (std::size_t p = 0; p < plans.size(); ++p) {
    sweep::SweepOptions options;
    options.jobs = args.jobs;
    if (want_documents) {
      options.runner = [&, p](const sweep::StudyTask& task) {
        std::uint64_t id = sweep_study_id(p, task);
        Ledger::Span root(traced ? &ledger : nullptr, "bench.task", id);
        StudyProbe probe;
        core::StudyResult result = traced ? compose_study(task, id, &ledger, probe)
                                          : run_real_study(task);
        Headline h;
        documents[p][task.index] =
            study_output(result, task.network, traced ? &ledger : nullptr, id, h);
        bad[p][task.index] = check_headline(h, band_of(task.network));
        if (traced) totals.add(task, result, probe, documents[p][task.index].size());
        return result;
      };
    }
    results.push_back(sweep::run(plans[p], options));
  }
  double wall = since(t0);
  double cpu = process_cpu_s() - cpu0;

  std::ostringstream sweep_json;
  std::uint64_t tasks = 0, failed = 0, records = 0;
  double sim_hours = 0.0, task_wall = 0.0;
  std::map<std::string, double> net_wall;
  std::string why;
  for (std::size_t p = 0; p < plans.size(); ++p) {
    sweep::write_json(sweep_json, results[p]);
    for (std::size_t i = 0; i < plans[p].size(); ++i) {
      const auto& task = plans[p][i];
      const auto& tr = results[p].tasks[i];
      std::string net = band_of(task.network);
      std::string task_why = tr.ok ? check_headline(headline(tr.values), net)
                                   : "task threw: " + tr.error;
      if (task_why.empty()) task_why = bad[p][i];
      tasks += 1;
      if (!task_why.empty()) {
        failed += 1;
        if (why.size() < 400) why += net + " task " + std::to_string(i) + ": " + task_why;
      }
      sim_hours += task_sim_hours(task);
      auto rec = tr.values.find("run.records");
      if (rec != tr.values.end()) records += static_cast<std::uint64_t>(rec->second);
      task_wall += tr.wall_seconds;
      net_wall[net] += tr.wall_seconds;
    }
  }
  write_file(args.out, sweep_json.str());
  if (!args.documents.empty()) {
    std::string all;
    for (const auto& docs : documents) {
      for (const auto& d : docs) all += d;
    }
    write_file(args.documents, all);
  }
  line.flag("ok", failed == 0);
  if (!why.empty()) line.str("error", why);
  line.num("wall_s", wall);
  line.num("cpu_s", cpu);
  line.num("sim_hours", sim_hours);
  line.count("records", records);
  line.count("operations", tasks);
  line.count("operations_failed", failed);
  line.str("digest", digest(sweep_json.str()));
  if (traced) {
    std::map<std::string, double> shares;
    for (const auto& [net, w] : net_wall) shares[net] = ratio(w, task_wall);
    totals.build_rss_kib = setup_rss_kib;
    totals.peers = setup_peers;
    double eff = ratio(task_wall, wall * static_cast<double>(args.jobs));
    emit_ledger(ledger, layer_metrics(ledger, totals, shares, eff, tasks, wall), args,
                ", " + std::to_string(tasks) + " studies", line);
  }
}

// -- Capture replay ------------------------------------------------------------

std::string capture_why(const core::ReplayResult& rr, std::uint64_t expected_records) {
  if (!rr.ok) return "replay failed: " + rr.error;
  std::string why = check_headline(headline(rr.report), "capture");
  if (rr.stats.blocks_corrupt != 0 || rr.stats.segments_corrupt != 0) {
    why += "corrupt blocks or segments; ";
  }
  if (rr.stats.records_read != expected_records) why += "records lost in replay; ";
  const auto& hp = rr.report.honeypots;
  if (!hp.enabled || hp.observations == 0 || hp.curve.empty()) {
    why += "no honeypot coverage; ";
  } else if (hp.curve.front().mean_coverage > hp.curve.back().mean_coverage) {
    why += "honeypot coverage falls with more vantages; ";
  }
  return why;
}

void capture_replay_op(const Args& args, const Scale& scale, bool traced,
                       JsonLine& line) {
  Ledger ledger;
  Totals totals;
  CaptureStats stats;
  auto t_all = Clock::now();
  if (traced) {
    stats = write_capture(args.dir, capture_spec(args, scale), &ledger);
    totals.trace_bytes = stats.bytes;
    totals.trace_segments = stats.segments;
  }
  auto manifest = p2p::trace::read_manifest(args.dir);
  if (!manifest.ok()) {
    line.flag("ok", false);
    line.str("error", "no capture: " + manifest.error_message);
    return;
  }
  std::uint64_t expected = 0;
  for (const auto& seg : manifest.manifest.segments) expected += seg.records;

  core::ReplayOptions options;
  options.jobs = args.jobs;
  core::ReplayResult rr;
  std::string json;
  double wall = 0.0, cpu = 0.0;
  {
    Ledger::Span root(traced ? &ledger : nullptr, "bench.replay");
    double cpu0 = process_cpu_s();
    auto t0 = Clock::now();
    {
      Ledger::Span span(traced ? &ledger : nullptr, "trace.replay");
      rr = core::replay_segment_dir(args.dir, options);
    }
    wall = since(t0);
    cpu = process_cpu_s() - cpu0;
    Ledger::Span span(traced ? &ledger : nullptr, "core.write_report_json");
    json = report_json(rr.report);
  }
  double traced_wall = since(t_all);
  write_file(args.out, json);
  std::string why = capture_why(rr, expected);
  line.flag("ok", why.empty());
  if (!why.empty()) line.str("error", why);
  line.num("wall_s", wall);
  line.num("cpu_s", cpu);
  line.num("sim_hours",
           static_cast<double>(manifest.manifest.header.crawl_duration_ms) / 3'600'000.0);
  line.count("records", rr.stats.records_read);
  line.count("operations", 1);
  line.count("operations_failed", why.empty() ? 0 : 1);
  line.str("digest", digest(json));
  if (traced) {
    totals.records_read = rr.stats.records_read;
    totals.blocks_corrupt = rr.stats.blocks_corrupt;
    totals.report_bytes = json.size();
    emit_ledger(ledger, layer_metrics(ledger, totals, {}, 0.0, 0, traced_wall), args,
                ", " + std::to_string(stats.records) + " records", line);
  }
}

// -- Entry -----------------------------------------------------------------------

void info_op(JsonLine& line) {
  line.flag("ok", true);
  line.str("build_type", P2PBENCH_BUILD_TYPE);
#if defined(__clang__)
  line.str("compiler", __VERSION__);
#else
  line.str("compiler", std::string("gcc ") + __VERSION__);
#endif
#if defined(__OPTIMIZE__)
  line.flag("optimized", true);
#else
  line.flag("optimized", false);
#endif
#if defined(NDEBUG)
  line.flag("asserts", false);
#else
  line.flag("asserts", true);
#endif
}

int usage() {
  std::cerr << "usage: p2pbench info | (setup|run|trace) --workload "
               "<lw_scale|sweep_bands|capture_replay> --seed <n> [--dir <capture>] "
               "[--out <file>] [--documents <file>] [--spans <file>] [--jobs <n>] "
               "[--shards <n>] [--small]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (argc < 2) return usage();
  args.op = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        args.workload = value();
      } else if (flag == "--seed") {
        args.seed = std::stoull(value());
      } else if (flag == "--dir") {
        args.dir = value();
      } else if (flag == "--out") {
        args.out = value();
      } else if (flag == "--documents") {
        args.documents = value();
      } else if (flag == "--spans") {
        args.spans = value();
      } else if (flag == "--jobs") {
        args.jobs = std::stoul(value());
      } else if (flag == "--shards") {
        args.shards = std::stoul(value());
      } else if (flag == "--small") {
        args.small = true;
      } else {
        return usage();
      }
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return usage();
    }
  }
  bool known = args.workload == "lw_scale" || args.workload == "sweep_bands" ||
               args.workload == "capture_replay";
  if (args.op != "info" && (!known || args.jobs < 1 || args.shards < 1)) return usage();
  if (args.workload == "capture_replay" && args.dir.empty() && args.op != "info") {
    return usage();
  }

  Scale scale = args.small ? Scale::small() : Scale{};
  JsonLine line;
  line.str("op", args.op);
  try {
    if (args.op == "info") {
      info_op(line);
    } else if (args.op == "setup") {
      setup_op(args, scale, line);
    } else if (args.op == "run" || args.op == "trace") {
      bool traced = args.op == "trace";
      if (args.workload == "lw_scale") {
        lw_scale_op(args, scale, traced, line);
      } else if (args.workload == "sweep_bands") {
        sweep_bands_op(args, scale, traced, line);
      } else {
        capture_replay_op(args, scale, traced, line);
      }
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    line.flag("ok", false);
    line.str("error", std::string("exception: ") + e.what());
  }
  line.num("peak_rss_mib", peak_rss_mib());
  std::cout << line.str() << std::endl;
  return 0;
}
