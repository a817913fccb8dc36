#include "sim/sharded_engine.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

#include "obs/trace.h"
#include "util/rng.h"

namespace p2p::sim {

namespace {

/// Handler context: which engine/shard/entity the current thread is
/// executing for. Thread-local so S workers never contend, and checked
/// against the engine pointer so nested engines (a sharded model inside a
/// sweep task) never cross wires.
struct TlCtx {
  const ShardedEngine* engine = nullptr;
  std::size_t shard = 0;
  ShardedEngine::EntityId entity = 0;
  ShardQueue::Entry key{};  // of the executing event
};
thread_local TlCtx tl_ctx;

constexpr std::int64_t kNoCap = std::numeric_limits<std::int64_t>::max();

}  // namespace

/// Worker rendezvous: a central generation barrier whose last arriver runs
/// a completion step (the round planner) before releasing the others. The
/// mutex/condvar pair gives every cross-thread access around a window a
/// happens-before edge — this is the entire synchronization surface of the
/// engine, which is what makes it straightforward to reason about (and for
/// TSan to verify).
class ShardedEngine::Impl {
 public:
  void reset(std::size_t participants) {
    n_ = participants;
    arrived_ = 0;
    generation_ = 0;
    error_ = nullptr;
  }

  template <typename Completion>
  void arrive_and_wait(Completion&& completion) {
    std::unique_lock lock(mutex_);
    std::size_t my_generation = generation_;
    if (++arrived_ == n_) {
      completion();
      arrived_ = 0;
      ++generation_;
      lock.unlock();
      cv_.notify_all();
    } else {
      cv_.wait(lock, [&] { return generation_ != my_generation; });
    }
  }

  void record_error() {
    std::scoped_lock lock(error_mutex_);
    if (!error_) error_ = std::current_exception();
  }
  [[nodiscard]] bool failed() {
    std::scoped_lock lock(error_mutex_);
    return error_ != nullptr;
  }
  void rethrow_if_failed() {
    std::exception_ptr e;
    {
      std::scoped_lock lock(error_mutex_);
      e = error_;
      error_ = nullptr;
    }
    if (e) std::rethrow_exception(e);
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t n_ = 0;
  std::size_t arrived_ = 0;
  std::size_t generation_ = 0;
  std::mutex error_mutex_;
  std::exception_ptr error_;
};

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

ShardedEngine::ShardedEngine(Config config)
    : config_(config),
      m_executed_(obs::MetricsRegistry::global().counter("sim.events_executed")),
      m_depth_(obs::MetricsRegistry::global().gauge("sim.queue_depth")),
      impl_(std::make_unique<Impl>()) {
  if (config_.shards == 0) config_.shards = 1;
  if (config_.lookahead <= SimDuration::millis(0)) {
    throw std::invalid_argument("ShardedEngine: lookahead must be positive");
  }
  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->outbox.resize(config_.shards);
    shards_.push_back(std::move(shard));
  }
  add_entity(0);  // the ambient entity
}

ShardedEngine::~ShardedEngine() = default;

ShardedEngine::EntityId ShardedEngine::add_entity(std::uint64_t stable_key) {
  if (running_) {
    throw std::logic_error("ShardedEngine: add_entity during a run");
  }
  std::uint64_t state = stable_key;
  std::uint32_t shard =
      static_cast<std::uint32_t>(util::splitmix64(state) % shards_.size());
  auto id = static_cast<EntityId>(entity_shard_.size());
  entity_shard_.push_back(shard);
  entity_key_.push_back(stable_key);
  oseq_.push_back(0);
  return id;
}

ShardedEngine::EntityId ShardedEngine::current_entity() const {
  return tl_ctx.engine == this ? tl_ctx.entity : 0;
}

SimTime ShardedEngine::now() const {
  if (tl_ctx.engine == this) {
    return SimTime::at_millis(shards_[tl_ctx.shard]->clock_ms);
  }
  return now_;
}

void ShardedEngine::post(EntityId dst, SimTime at, Task action) {
  std::size_t dst_shard = entity_shard_.at(dst);
  if (tl_ctx.engine != this) {
    insert_bootstrap(dst, at, std::move(action));
    return;
  }
  Shard& src = *shards_[tl_ctx.shard];
  if (at.millis() < src.clock_ms) {
    throw std::invalid_argument("ShardedEngine: scheduling in the past");
  }
  EntityId origin = tl_ctx.entity;
  if (dst != origin &&
      at.millis() < src.clock_ms + config_.lookahead.count_ms()) {
    // Enforced at every shard count (including the one-shard baseline): a
    // cross-entity message below the lookahead floor would execute in the
    // current window on one partition and violate conservative delivery on
    // another — the one bug class that breaks shard-count invariance.
    throw std::logic_error(
        "ShardedEngine: cross-entity post below the lookahead floor");
  }
  Key entry{at.millis(), next_oseq(origin), origin, 0};
  if (dst_shard == tl_ctx.shard) {
    src.queue.push(entry, dst, std::move(action));
  } else {
    src.outbox[dst_shard].push_back(Msg{entry, dst, std::move(action)});
  }
}

void ShardedEngine::insert_bootstrap(EntityId dst, SimTime at, Task action) {
  if (running_) {
    throw std::logic_error("ShardedEngine: post from a foreign thread");
  }
  if (at < now_) {
    throw std::invalid_argument("ShardedEngine: scheduling in the past");
  }
  // Bootstrap posts act as self-posts of the destination: the ordering key
  // derives from dst's own counter, which is identical at any shard count.
  Key entry{at.millis(), next_oseq(dst), dst, 0};
  shards_[entity_shard_[dst]]->queue.push(entry, dst, std::move(action));
}

ShardedEngine::Key ShardedEngine::reserve(EntityId dst, SimTime at) {
  // Mirrors post(): in a handler the origin is the current entity, outside
  // a run a bootstrap insert is a self-post of the destination.
  EntityId origin = tl_ctx.engine == this ? tl_ctx.entity : dst;
  return Key{at.millis(), next_oseq(origin), origin, 0};
}

ShardedEngine::Key ShardedEngine::current_key() const {
  if (tl_ctx.engine == this) return tl_ctx.key;
  return Key{now_.millis(), std::numeric_limits<std::uint64_t>::max(),
             std::numeric_limits<EntityId>::max(), 0};
}

void ShardedEngine::schedule_at(SimTime at, Task action) {
  post(current_entity(), at, std::move(action));
}

bool ShardedEngine::empty() const {
  for (const auto& s : shards_) {
    if (!s->queue.empty()) return false;
  }
  return true;
}

std::size_t ShardedEngine::pending() const {
  std::size_t total = 0;
  for (const auto& s : shards_) total += s->queue.size();
  return total;
}

std::uint64_t ShardedEngine::executed() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->executed;
  return total;
}

void ShardedEngine::execute_window(std::size_t shard_index,
                                   std::int64_t window_end_ms) {
  Shard& shard = *shards_[shard_index];
  // RAII restore: a throwing task must not leave tl_ctx pointing at this
  // engine — a later engine at the same address would mistake bootstrap
  // posts for in-run posts and route them into a never-drained outbox.
  struct CtxRestore {
    TlCtx saved = tl_ctx;
    ~CtxRestore() { tl_ctx = saved; }
  } restore;
  tl_ctx.engine = this;
  tl_ctx.shard = shard_index;
  while (!shard.queue.empty() && shard.queue.top().at_ms < window_end_ms) {
    auto popped = shard.queue.pop();
    shard.clock_ms = popped.entry.at_ms;
    shard.last_executed_ms = popped.entry.at_ms;
    ++shard.executed;
    tl_ctx.entity = popped.dst;
    tl_ctx.key = popped.entry;
    popped.action();
  }
  if (window_end_ms != kNoCap && shard.clock_ms < window_end_ms) {
    shard.clock_ms = window_end_ms;
  }
}

void ShardedEngine::drain_into(std::size_t dst_shard) {
  Shard& dst = *shards_[dst_shard];
  for (auto& src : shards_) {
    auto& box = src->outbox[dst_shard];
    for (auto& msg : box) {
      // Conservative delivery: the window discipline guarantees no message
      // arrives in the destination's past.
      if (msg.entry.at_ms < dst.clock_ms) {
        throw std::logic_error("ShardedEngine: message arrived in the past");
      }
      dst.queue.push(msg.entry, msg.dst, std::move(msg.action));
      ++dst.cross_received;
    }
    box.clear();
  }
  dst.has_next = !dst.queue.empty();
  dst.next_top_ms = dst.has_next ? dst.queue.top().at_ms : 0;
}

bool ShardedEngine::plan_round(std::int64_t until_ms, bool bounded) {
  std::int64_t tmin = kNoCap;
  for (const auto& s : shards_) {
    if (s->has_next) tmin = std::min(tmin, s->next_top_ms);
  }
  if (tmin == kNoCap || (bounded && tmin > until_ms)) {
    plan_.stop = true;
    return false;
  }
  std::int64_t window = tmin + config_.lookahead.count_ms();
  if (bounded && until_ms != kNoCap) window = std::min(window, until_ms + 1);
  plan_.window_end_ms = window;
  plan_.stop = false;
  ++stats_.rounds;
  return true;
}

void ShardedEngine::run_rounds(std::int64_t until_ms, bool bounded) {
  const std::size_t n = shards_.size();
  for (std::size_t s = 0; s < n; ++s) {
    Shard& shard = *shards_[s];
    shard.has_next = !shard.queue.empty();
    shard.next_top_ms = shard.has_next ? shard.queue.top().at_ms : 0;
  }
  if (!plan_round(until_ms, bounded)) return;
  running_ = true;

  if (n == 1) {
    // One-shard fast path: no workers, no barriers — but the same
    // ordering key and the same lookahead validation, so it is a faithful
    // differential baseline for every multi-shard run.
    try {
      do {
        execute_window(0, plan_.window_end_ms);
        drain_into(0);  // self-sends from co-located entities
      } while (plan_round(until_ms, bounded));
    } catch (...) {
      running_ = false;
      throw;
    }
    running_ = false;
    return;
  }

  impl_->reset(n);
  auto worker = [this, until_ms, bounded](std::size_t s) {
    // Spawned workers install host context (metrics registry binding etc.)
    // for their whole lifetime; shard 0 runs on the calling thread, which
    // already has it.
    std::shared_ptr<void> ctx;
    if (s != 0 && config_.worker_context) ctx = config_.worker_context();
    for (;;) {
      if (plan_.stop) break;
      try {
        execute_window(s, plan_.window_end_ms);
      } catch (...) {
        impl_->record_error();
      }
      impl_->arrive_and_wait([] {});  // all outbox writes complete
      try {
        drain_into(s);
      } catch (...) {
        impl_->record_error();
      }
      impl_->arrive_and_wait([this, until_ms, bounded] {
        if (impl_->failed()) {
          plan_.stop = true;
        } else {
          // Workers read the verdict from plan_.stop, which plan_round
          // sets exactly when it returns false.
          (void)plan_round(until_ms, bounded);
        }
      });
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(n - 1);
  for (std::size_t s = 1; s < n; ++s) {
    pool.emplace_back(worker, s);
  }
  worker(0);
  for (auto& t : pool) t.join();
  running_ = false;
  impl_->rethrow_if_failed();
}

void ShardedEngine::record_metrics() {
  std::uint64_t total = executed();
  m_executed_.add(total - executed_reported_);
  executed_reported_ = total;
  m_depth_.set(static_cast<std::int64_t>(pending()));
}

void ShardedEngine::run_until(SimTime until) {
  P2P_TRACE(obs::Component::kSim, "run_until", now_,
            obs::tf("until_ms", until.millis()), obs::tf("pending", pending()));
  record_metrics();
  run_rounds(until.millis(), /*bounded=*/true);
  record_metrics();
  for (auto& s : shards_) s->clock_ms = std::max(s->clock_ms, until.millis());
  if (now_ < until) now_ = until;
}

void ShardedEngine::run_all() {
  bool had_events = !empty();
  record_metrics();
  run_rounds(kNoCap, /*bounded=*/false);
  record_metrics();
  if (had_events) {
    std::int64_t last = now_.millis();
    for (const auto& s : shards_) last = std::max(last, s->last_executed_ms);
    now_ = SimTime::at_millis(last);
    for (auto& s : shards_) s->clock_ms = last;
  }
}

ShardedEngine::Stats ShardedEngine::stats() const {
  Stats stats = stats_;
  for (const auto& s : shards_) {
    stats.cross_shard_messages += s->cross_received;
  }
  return stats;
}

}  // namespace p2p::sim
