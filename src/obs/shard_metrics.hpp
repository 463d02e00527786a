// Per-shard metric atlas for the gcached concurrent runtime.
//
// Layering: obs sits BELOW gcached in the dependency DAG (tools/gclint/
// layers.txt), so this header knows nothing about ShardedCache. It defines a
// generic fixed-size table of per-shard relaxed-atomic counters; gcached
// constructs one sized to its shard count, attaches it, and publishes deltas
// from inside its access path through the GC_MON_* macros below. The gcmon
// snapshot thread (obs/gcmon.hpp) harvests the table without ever touching a
// shard lock — writers and the reader share nothing but these atomics.
//
// Write discipline: every counter is a relaxed std::atomic<uint64_t>. The
// writing thread already holds its shard's lock for the cache mutation, so
// within one shard there is exactly one writer at a time — which is why
// GC_MON_SHARD_ADD below publishes with a relaxed load+store pair instead
// of an RMW fetch_add: with a single writer the pair is exact, and dropping
// the lock-prefixed RMW (and skipping zero deltas outright) keeps the
// per-access publish cost in the low nanoseconds (the CI gcmon job gates
// the monitored/plain throughput ratio). Relaxed ordering is enough because
// readers only want eventually-consistent totals, never cross-counter
// invariants (a snapshot may see `hits` from after an access whose `misses`
// bump it missed — deltas are still exact over any window whose endpoints
// both see the access). docs/CONCURRENCY.md documents this as the gcmon
// read discipline.
//
// Compile-out: the GC_MON_* macros follow obs.hpp's GC_OBS_* pattern
// exactly — under GCACHING_OBS=OFF every macro expands to nothing (the
// hoist macro declares a constexpr null so GC_MON_ATTACHED is compile-time
// false and the publishing block is deleted), proven constexpr-evaluable by
// tests/test_gcmon.cpp the same way test_obs_timeline proves GC_OBS_*.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "util/cache_line.hpp"
#include "util/contracts.hpp"

namespace gcaching::obs {

/// One cache line of relaxed counters per shard. Line alignment keeps shards
/// from false-sharing each other's lines; within a shard all writes come
/// from the lock holder, so intra-struct sharing is free.
struct alignas(kCacheLineBytes) ShardCounters {
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> sideloads{0};
  /// Accesses served by an in-flight fill (async fill mode): neither a hit
  /// nor a miss. hits + misses + delayed_hits counts every access.
  std::atomic<std::uint64_t> delayed_hits{0};
  /// Waiters that coalesced onto an in-flight MSHR entry. Registered at
  /// park time, so it can momentarily lead delayed_hits (a parked waiter
  /// has not committed yet) and a waiter that re-misses re-registers.
  std::atomic<std::uint64_t> coalesced{0};
  std::atomic<std::uint64_t> lock_acquisitions{0};
  std::atomic<std::uint64_t> trylock_failures{0};
  std::atomic<std::uint64_t> backoff_ns{0};
  /// Gauge, not counter: last-published occupancy of the shard's cache.
  std::atomic<std::uint64_t> residency{0};
  /// Gauge: last-published count of in-flight fills in the shard's MSHR
  /// table (0 in sync fill mode).
  std::atomic<std::uint64_t> mshr_inflight{0};
};

/// Plain-value snapshot of one shard's counters (what `ShardAtlas::read`
/// returns and what gcmon's ring stores as totals and deltas).
struct ShardValues {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t sideloads = 0;
  std::uint64_t delayed_hits = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t lock_acquisitions = 0;
  std::uint64_t trylock_failures = 0;
  std::uint64_t backoff_ns = 0;
  std::uint64_t residency = 0;
  std::uint64_t mshr_inflight = 0;

  friend ShardValues operator-(const ShardValues& a, const ShardValues& b) {
    return ShardValues{a.hits - b.hits,
                       a.misses - b.misses,
                       a.sideloads - b.sideloads,
                       a.delayed_hits - b.delayed_hits,
                       a.coalesced - b.coalesced,
                       a.lock_acquisitions - b.lock_acquisitions,
                       a.trylock_failures - b.trylock_failures,
                       a.backoff_ns - b.backoff_ns,
                       a.residency,        // gauges don't difference
                       a.mshr_inflight};   // gauges don't difference
  }
  ShardValues& operator+=(const ShardValues& o) {
    hits += o.hits;
    misses += o.misses;
    sideloads += o.sideloads;
    delayed_hits += o.delayed_hits;
    coalesced += o.coalesced;
    lock_acquisitions += o.lock_acquisitions;
    trylock_failures += o.trylock_failures;
    backoff_ns += o.backoff_ns;
    residency += o.residency;
    mshr_inflight += o.mshr_inflight;
    return *this;
  }
};

/// Fixed-size table of per-shard counters. Size is immovable after
/// construction — gcached validates it against its shard count on attach.
class ShardAtlas {
 public:
  explicit ShardAtlas(std::size_t shards)
      : shards_(shards),
        counters_(std::make_unique<ShardCounters[]>(shards)) {
    GC_REQUIRE(shards > 0, "ShardAtlas needs at least one shard");
  }

  std::size_t size() const noexcept { return shards_; }

  ShardCounters& shard(std::size_t i) noexcept { return counters_[i]; }
  const ShardCounters& shard(std::size_t i) const noexcept {
    return counters_[i];
  }

  /// Relaxed point-in-time read of one shard (see header for staleness
  /// semantics). Never blocks, never touches any lock.
  ShardValues read(std::size_t i) const noexcept {
    const ShardCounters& c = counters_[i];
    ShardValues v;
    v.hits = c.hits.load(std::memory_order_relaxed);
    v.misses = c.misses.load(std::memory_order_relaxed);
    v.sideloads = c.sideloads.load(std::memory_order_relaxed);
    v.delayed_hits = c.delayed_hits.load(std::memory_order_relaxed);
    v.coalesced = c.coalesced.load(std::memory_order_relaxed);
    v.lock_acquisitions = c.lock_acquisitions.load(std::memory_order_relaxed);
    v.trylock_failures = c.trylock_failures.load(std::memory_order_relaxed);
    v.backoff_ns = c.backoff_ns.load(std::memory_order_relaxed);
    v.residency = c.residency.load(std::memory_order_relaxed);
    v.mshr_inflight = c.mshr_inflight.load(std::memory_order_relaxed);
    return v;
  }

 private:
  std::size_t shards_;
  std::unique_ptr<ShardCounters[]> counters_;
};

}  // namespace gcaching::obs

#if defined(GCACHING_OBS)

// Hoist the cache's attached atlas pointer once per access; mirrors
// GC_OBS_TIMELINE so GC_MON_ATTACHED can select a publish-free fast path.
#define GC_MON_ATLAS(var, expr) \
  ::gcaching::obs::ShardAtlas* const var = (expr)

#define GC_MON_ATTACHED(var) ((var) != nullptr)

// Counter bump / gauge store for one shard. `field` is a bare ShardCounters
// member name pasted by the macro (never an obs::-qualified token at the
// call site — gclint's hot-region-raw-obs rule stays satisfied). The add is
// a relaxed load+store, NOT a fetch_add: the publisher holds the shard's
// lock (single writer per shard, see the write-discipline comment above),
// so the pair is exact and avoids a lock-prefixed RMW on the access path.
#define GC_MON_SHARD_ADD(var, shard_idx, field, delta)            \
  do {                                                            \
    const std::uint64_t gc_mon_delta_ =                           \
        static_cast<std::uint64_t>(delta);                        \
    if (gc_mon_delta_ != 0) {                                     \
      auto& gc_mon_counter_ = (var)->shard(shard_idx).field;      \
      gc_mon_counter_.store(                                      \
          gc_mon_counter_.load(std::memory_order_relaxed) +       \
              gc_mon_delta_,                                      \
          std::memory_order_relaxed);                             \
    }                                                             \
  } while (0)

#define GC_MON_SHARD_SET(var, shard_idx, field, value)            \
  do {                                                            \
    (var)->shard(shard_idx).field.store(                          \
        static_cast<std::uint64_t>(value),                        \
        std::memory_order_relaxed);                               \
  } while (0)

#else  // GCACHING_OBS off: monitoring publishes vanish with the macros.

#define GC_MON_ATLAS(var, expr) \
  [[maybe_unused]] constexpr decltype(nullptr) var = nullptr
#define GC_MON_ATTACHED(var) false
#define GC_MON_SHARD_ADD(var, shard_idx, field, delta) \
  do {                                                 \
  } while (0)
#define GC_MON_SHARD_SET(var, shard_idx, field, value) \
  do {                                                 \
  } while (0)

#endif  // GCACHING_OBS
