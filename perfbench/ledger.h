// Span ledger for the traced runs: the benchmark wraps its calls into each
// layer's public functions in spans (name, start, end, parent, and the id
// of the study they belong to), keeps them in memory, and derives each
// site's self time — its duration minus the spans it directly caused —
// when the run ends. Leaf spans are timed calls into a layer; time inside a
// composite span (one that contains others) that no child covers is the
// residual: work no timed call accounts for.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace p2pbench {

class Ledger {
 public:
  struct Record {
    std::string name;
    std::uint64_t id = 0;      // study id: the sweep task index, else 0
    std::int64_t parent = -1;  // index of the enclosing span on this thread
    std::uint32_t thread = 0;  // dense per-ledger thread number
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  struct Site {
    std::string name;
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
    bool root = false;       // its spans have no parent
    bool composite = false;  // its spans contain other spans
  };

  /// RAII span; a null ledger makes it a no-op, so one code path serves
  /// the traced and the untraced composition.
  class Span {
   public:
    Span(Ledger* ledger, std::string_view name, std::uint64_t id = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Ledger* ledger_;
    std::int64_t index_ = -1;
  };

  Ledger();
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  [[nodiscard]] std::vector<Record> records() const;
  /// Per span name, in first-seen order.
  [[nodiscard]] std::vector<Site> sites() const;
  /// Summed duration of the root spans: the traced work the shares divide.
  [[nodiscard]] double roots_s() const;
  /// Summed self time of the composite spans: time inside a span that
  /// none of the calls it contains accounts for.
  [[nodiscard]] double residual_s() const;

  /// Chrome trace-event JSON ("ph":"X" complete events, microseconds).
  void write_chrome_json(std::ostream& out) const;
  /// Aligned table of the timed calls (leaf sites): count, total, self and
  /// self share of roots_s(), then the residual and the total.
  void print_table(std::ostream& out) const;

 private:
  std::int64_t open(std::string_view name, std::uint64_t id);
  void close(std::int64_t index);
  [[nodiscard]] std::int64_t now_ns() const;

  using Clock = std::chrono::steady_clock;
  const Clock::time_point epoch_;
  mutable std::mutex mutex_;  // guards records_ and threads_
  std::vector<Record> records_;
  std::vector<std::uint64_t> threads_;
};

}  // namespace p2pbench
