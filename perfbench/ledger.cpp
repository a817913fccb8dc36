#include "ledger.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <thread>
#include <utility>

#include "obs/json.h"

namespace p2pbench {

namespace {

// Spans open on this thread, innermost last: the parent of a new span is
// the innermost open span of the same ledger.
thread_local std::vector<std::pair<const Ledger*, std::int64_t>> tl_open;

}  // namespace

Ledger::Span::Span(Ledger* ledger, std::string_view name, std::uint64_t id)
    : ledger_(ledger) {
  if (ledger_ != nullptr) index_ = ledger_->open(name, id);
}

Ledger::Span::~Span() {
  if (ledger_ != nullptr) ledger_->close(index_);
}

Ledger::Ledger() : epoch_(Clock::now()) {}

std::int64_t Ledger::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
      .count();
}

std::int64_t Ledger::open(std::string_view name, std::uint64_t id) {
  std::int64_t parent = -1;
  for (auto it = tl_open.rbegin(); it != tl_open.rend(); ++it) {
    if (it->first == this) {
      parent = it->second;
      break;
    }
  }
  std::uint64_t tid = std::hash<std::thread::id>{}(std::this_thread::get_id());
  Record rec;
  rec.name = std::string(name);
  rec.id = id;
  rec.parent = parent;
  std::int64_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto t = std::find(threads_.begin(), threads_.end(), tid);
    rec.thread = static_cast<std::uint32_t>(t - threads_.begin());
    if (t == threads_.end()) threads_.push_back(tid);
    rec.start_ns = now_ns();
    index = static_cast<std::int64_t>(records_.size());
    records_.push_back(std::move(rec));
  }
  tl_open.emplace_back(this, index);
  return index;
}

void Ledger::close(std::int64_t index) {
  std::int64_t end = now_ns();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    records_[static_cast<std::size_t>(index)].end_ns = end;
  }
  // Spans are scoped objects, so this one is the thread's innermost.
  if (!tl_open.empty()) tl_open.pop_back();
}

std::vector<Ledger::Record> Ledger::records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

std::vector<Ledger::Site> Ledger::sites() const {
  std::vector<Record> recs = records();
  std::vector<std::int64_t> child_ns(recs.size(), 0);
  for (const auto& r : recs) {
    if (r.parent >= 0) child_ns[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
  }
  std::vector<Site> out;
  std::map<std::string, std::size_t> slot;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    auto [it, fresh] = slot.try_emplace(recs[i].name, out.size());
    if (fresh) {
      out.emplace_back();
      out.back().name = recs[i].name;
    }
    Site& site = out[it->second];
    double dur = static_cast<double>(recs[i].end_ns - recs[i].start_ns) * 1e-9;
    site.count += 1;
    site.total_s += dur;
    site.self_s += dur - static_cast<double>(child_ns[i]) * 1e-9;
    site.root = site.root || recs[i].parent < 0;
    site.composite = site.composite || child_ns[i] > 0;
  }
  return out;
}

double Ledger::roots_s() const {
  double total = 0.0;
  for (const auto& r : records()) {
    if (r.parent < 0) total += static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
  }
  return total;
}

double Ledger::residual_s() const {
  double total = 0.0;
  for (const Site& s : sites()) {
    if (s.composite) total += s.self_s;
  }
  return total;
}

void Ledger::write_chrome_json(std::ostream& out) const {
  std::vector<Record> recs = records();
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Record& r = recs[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << p2p::obs::json_escape(r.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.thread
        << ",\"ts\":" << p2p::obs::json_number(static_cast<double>(r.start_ns) / 1e3)
        << ",\"dur\":"
        << p2p::obs::json_number(static_cast<double>(r.end_ns - r.start_ns) / 1e3)
        << ",\"args\":{\"study\":" << r.id << ",\"span\":" << i
        << ",\"parent\":" << r.parent << "}}";
  }
  out << "\n]}\n";
}

void Ledger::print_table(std::ostream& out) const {
  double roots = roots_s();
  auto share = [roots](double v) { return roots > 0 ? 100.0 * v / roots : 0.0; };
  char line[160];
  std::snprintf(line, sizeof(line), "  %-30s %8s %11s %11s %7s\n", "span", "count",
                "total s", "self s", "share");
  out << line;
  for (const Site& s : sites()) {
    if (s.composite) continue;
    std::snprintf(line, sizeof(line), "  %-30s %8llu %11.4f %11.4f %6.2f%%\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.count),
                  s.total_s, s.self_s, share(s.self_s));
    out << line;
  }
  double residual = residual_s();
  std::snprintf(line, sizeof(line), "  %-30s %8s %11s %11.4f %6.2f%%\n",
                "residual (no timed call)", "", "", residual, share(residual));
  out << line;
  std::snprintf(line, sizeof(line), "  %-30s %8s %11.4f %11s %6.2f%%\n",
                "total (root spans)", "", roots, "", share(roots));
  out << line;
}

}  // namespace p2pbench
