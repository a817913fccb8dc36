// Sharded deterministic parallel discrete-event engine — the simulator's
// one executor. Every study, test and bench runs on it; one shard is the
// serial case, with no worker threads and no barriers.
//
// Ordering contract: every event is stamped with an *intrinsic* key
// (at, origin entity, origin sequence) by its scheduler, and each shard
// executes its local events in that key order (sim::ShardQueue). The key is
// a pure function of the simulation's own causality — it never depends on
// which shard ran where or when — so the per-entity event sequences (and
// therefore all per-entity state, RNG draws, and emitted records) are
// identical whether the partition has 1 shard or 64. Events scheduled from
// the same context for the same instant run in scheduling order.
//
// Conservative synchronization (classic Chandy–Misra lookahead, simplified
// to barrier windows): entities are partitioned over shards by a stable
// hash of their registration key; cross-entity messages must be scheduled
// at least `lookahead` (the minimum cross-entity link latency) after the
// sender's clock. Shards then run in windows of width <= lookahead: within
// a window a shard only executes events it already owns, appends outgoing
// cross-shard messages to per-link outboxes, and a barrier drains every
// outbox before the next window opens — no message can ever arrive in a
// shard's past. The lookahead rule is enforced (throwing) at every shard
// count including 1, so a model that would diverge when parallelized fails
// loudly on one shard too.
//
// Observability: every run_until/run_all adds the events it executed to
// `sim.events_executed` and samples the pending-event count into the
// `sim.queue_depth` gauge at its start and end — run boundaries are the
// only points where those totals are independent of the shard count.
//
// See DESIGN.md "Sharded execution" for the determinism proof sketch and
// tests/test_shard.cpp for the differential/property harness.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "obs/metrics.h"
#include "sim/arena.h"
#include "sim/shard_queue.h"
#include "sim/task.h"
#include "util/sim_time.h"

namespace p2p::sim {

using util::SimDuration;
using util::SimTime;

class ShardedEngine {
 public:
  /// Scheduling context: which registered entity's handler is running.
  using EntityId = ShardQueue::EntityId;

  struct Config {
    /// Number of shards (event loops); 0 means 1. One shard runs on the
    /// calling thread with no workers — the differential baseline.
    std::size_t shards = 1;
    /// Minimum cross-entity link latency: every post to another entity must
    /// be scheduled at least this far after the sender's clock. Windows are
    /// derived from it, so it also bounds how far shards can drift apart.
    SimDuration lookahead = SimDuration::millis(20);
    /// Invoked once at the start of every spawned worker thread; the result
    /// stays alive for the thread's lifetime. Lets the host install
    /// thread-scoped state (e.g. a ScopedMetricsRegistry so workers record
    /// into the study's registry). The calling thread — which runs shard
    /// 0 — is NOT wrapped: it already carries its own context.
    std::function<std::shared_ptr<void>()> worker_context;
  };

  /// Run statistics (stable across shard counts except `rounds`, which is
  /// an execution detail and excluded from deterministic exports).
  struct Stats {
    std::uint64_t rounds = 0;
    std::uint64_t cross_shard_messages = 0;
  };

  explicit ShardedEngine(Config config);
  ~ShardedEngine();
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // -- Entities ------------------------------------------------------------

  /// Register an entity before the first run call. `stable_key` determines
  /// the shard (stable hash mod shard count) and must be unique per entity.
  /// Entity 0 always exists (the "ambient" entity schedule_at posts to from
  /// outside any handler).
  EntityId add_entity(std::uint64_t stable_key);

  [[nodiscard]] std::size_t entity_count() const { return entity_shard_.size(); }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] std::size_t shard_of(EntityId entity) const {
    return entity_shard_.at(entity);
  }
  /// The entity whose handler is currently executing on this thread, or 0.
  [[nodiscard]] EntityId current_entity() const;

  /// Per-shard bulk storage (share indexes, scratch). Owned by the shard's
  /// worker during runs; touch it from other threads only between runs.
  [[nodiscard]] Arena& shard_arena(std::size_t shard) {
    return shards_[shard]->arena;
  }

  // -- Scheduling ----------------------------------------------------------

  /// Schedule `action` to run on `dst` at absolute time `at`.
  ///
  /// From inside a handler the origin is the current entity; posts to any
  /// *other* entity must satisfy `at >= sender clock + lookahead` (throws
  /// std::logic_error otherwise — at every shard count). Self-posts (timers)
  /// may use any non-past stamp. From outside a run, posts are bootstrap
  /// inserts: any non-past stamp, any destination.
  void post(EntityId dst, SimTime at, Task action);

  /// An event's ordering key (compare with ShardQueue::earlier).
  using Key = ShardQueue::Entry;
  /// Consume the origin sequence number a post(dst, at, ...) made now would
  /// consume and return that post's key, without queueing anything — for a
  /// model that defers an effect yet must order it exactly as if posted.
  /// The caller runs the effect once current_key() passes the key.
  Key reserve(EntityId dst, SimTime at);
  /// Key of the event executing on this thread; between runs, a key after
  /// every event at or before now() (all of which have run).
  [[nodiscard]] Key current_key() const;

  /// Post to the current entity (inside a handler) or to the ambient entity
  /// 0 (outside). Past stamps throw std::invalid_argument.
  void schedule_at(SimTime at, Task action);
  /// Schedule relative to the current clock.
  void schedule_in(SimDuration delay, Task action) {
    schedule_at(now() + delay, std::move(action));
  }

  // -- Running -------------------------------------------------------------

  /// Run every event with stamp <= until; later events stay queued. On
  /// return the clock is exactly `until`, even if execution ended earlier.
  void run_until(SimTime until);
  /// Drain completely (use only for bounded workloads).
  void run_all();

  /// Between runs: the last run_until target (or last executed stamp after
  /// run_all). Inside a handler: the executing shard's clock (== the
  /// current event's stamp).
  [[nodiscard]] SimTime now() const;

  [[nodiscard]] bool empty() const;
  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] std::uint64_t executed() const;
  [[nodiscard]] Stats stats() const;

 private:

  /// A cross-shard message parked in an outbox until the window barrier.
  struct Msg {
    Key entry;
    EntityId dst;
    Task action;
  };

  struct alignas(64) Shard {
    ShardQueue queue;
    Arena arena;
    /// The shard's clock: stamp of the event being executed, committed to
    /// the window end between rounds.
    std::int64_t clock_ms = 0;
    std::uint64_t executed = 0;
    std::int64_t last_executed_ms = 0;
    /// outbox[d]: messages bound for shard d, appended during execution
    /// (only by this shard's worker) and drained by d's worker after the
    /// window barrier.
    std::vector<std::vector<Msg>> outbox;
    /// Published queue-top stamp for the next round plan (written after
    /// drain, read by the round planner under the barrier).
    std::int64_t next_top_ms = 0;
    bool has_next = false;
    /// Messages this shard received through outboxes (stats only).
    std::uint64_t cross_received = 0;
  };

  // Round plan shared between workers; written only by the barrier
  // completion step, read by everyone after the barrier releases.
  struct RoundPlan {
    std::int64_t window_end_ms = 0;
    bool stop = false;
  };

  void run_rounds(std::int64_t until_ms, bool bounded);
  void execute_window(std::size_t shard_index, std::int64_t window_end_ms);
  void drain_into(std::size_t dst_shard);
  [[nodiscard]] bool plan_round(std::int64_t until_ms, bool bounded);
  void insert_bootstrap(EntityId dst, SimTime at, Task action);
  /// Publish run-boundary totals to sim.events_executed / sim.queue_depth.
  void record_metrics();
  [[nodiscard]] std::uint64_t next_oseq(EntityId origin) {
    return oseq_[origin]++;
  }

  Config config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::uint32_t> entity_shard_;
  std::vector<std::uint64_t> entity_key_;
  /// Per-entity origin sequence counters. An entity's counter is only ever
  /// touched by the worker that owns its shard (or by the main thread
  /// between runs), so no synchronization is needed beyond the barriers.
  std::vector<std::uint64_t> oseq_;
  SimTime now_;
  bool running_ = false;
  RoundPlan plan_;
  Stats stats_;
  std::uint64_t executed_reported_ = 0;
  obs::Counter& m_executed_;
  obs::Gauge& m_depth_;

  class Impl;  // worker pool + barrier (sharded_engine.cpp)
  std::unique_ptr<Impl> impl_;
};

}  // namespace p2p::sim
