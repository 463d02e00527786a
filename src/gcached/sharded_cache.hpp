// The gcached concurrent runtime: CacheContents hash-partitioned into S
// shards by BLOCK id, each shard a fully independent single-owner cache.
//
// Why block-granular sharding: Definition 1 lets a miss load any subset of
// the missed item's block, and the block policies evict whole blocks. If two
// items of one block could land on different shards, a single miss
// transaction would have to take two locks and the model invariant "a block
// is resident in one place" would span shards. Hashing the BLOCK id instead
// makes every subset-of-block load, sideload, and whole-block eviction
// shard-local by construction — the paper's granularity-change machinery
// never crosses a shard boundary.
//
// Per-shard state transitions are *externalized*: a shard bundles
// {MshrTable, CacheContents, Policy, partial SimStats}, guarded by a
// ShardLock over a word the CacheContents lends, and the only mutation is
// `detail::fast_step` — the exact per-access transition of `simulate_fast`
// (core/simulator.hpp) — applied under the shard's exclusive lock. The
// existing policies therefore run unmodified, still assuming
// exclusive ownership of their metadata; the adapter's job is to make the
// ownership region explicit (one shard, one lock) instead of implicit (one
// simulation, one thread). This is also what anchors correctness: with one
// shard and one client thread the transition sequence is literally
// simulate_fast's, so SimStats are bit-identical (tests/test_gcached.cpp).
//
// With S > 1 each shard owns capacity/S (±1) items, so the aggregate is a
// partitioned cache, not a shared one: stats differ from a monolithic run
// by capacity quantization, exactly like a set-associative cache differs
// from a fully-associative one. See docs/CONCURRENCY.md.
//
// Misses may be charged a simulated backend fill latency
// (`GcachedConfig::fill_latency_ns`). Two fill modes:
//
//   * `FillMode::kAsync` (default) — the MSHR path. The missing thread
//     registers an in-flight entry for the block in its shard's MshrTable
//     (gcached/mshr.hpp), RELEASES the shard lock, sleeps the fill
//     unlocked (shard_lock.hpp's `backend_fill`), then re-acquires to
//     commit the load/sideloads and wake coalesced waiters. A concurrent
//     access that misses on an in-flight block parks on the entry's
//     FillGate instead of issuing a second fill and is charged a *delayed
//     hit* (queuing cost = measured remaining fill time); when the fill
//     sideloaded the waiter's item, the commit-time hit taxonomy classifies
//     it a *free* delayed hit. Fills to distinct blocks of ONE shard now
//     overlap (up to `mshr_entries` of them), so fill-bound cells scale
//     with offered concurrency, not just with the shard count.
//
//   * `FillMode::kSync` — the compat/differential mode: the fill is slept
//     while HOLDING the shard, the shard's single writer blocked on the
//     backend, clients of that shard backing off in ShardLock. This is the
//     regime where sharding alone buys fill overlap; kept as the baseline
//     the async gate in CI compares against.
//
// docs/CONCURRENCY.md ("Asynchronous fills and the MSHR table") documents
// the lock hand-off protocol and the delayed-hit accounting.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/block_map.hpp"
#include "core/cache_contents.hpp"
#include "core/simulator.hpp"
#include "core/stats.hpp"
#include "core/types.hpp"
#include "gcached/mshr.hpp"
#include "gcached/shard_lock.hpp"
#include "locality/sample.hpp"
#include "obs/shard_metrics.hpp"
#include "util/cache_line.hpp"
#include "util/contracts.hpp"

namespace gcaching::gcached {

/// Seed of the shard hash. Distinct from any sampling seed a user would
/// plausibly pass (SHARDS sampling defaults to seed 1), so the sampled
/// block subset stays independent of the shard assignment.
inline constexpr std::uint64_t kShardHashSeed = 0x5ca1ab1eULL;

GC_HOT_REGION_BEGIN(gcached_shard_of_block)
/// Shard of a block: SplitMix64-finalizer hash (locality::sample_hash, the
/// same avalanching mix the sampler trusts) Lemire-reduced to [0, S). Works
/// for any S including non-powers of two; golden values are pinned by
/// tests/test_gcached.cpp so the assignment can never silently change.
inline std::size_t shard_of_block(BlockId block,
                                  std::size_t num_shards) noexcept {
  if (num_shards <= 1) return 0;
  const std::uint64_t h = locality::sample_hash(block, kShardHashSeed);
  return static_cast<std::size_t>(
      (static_cast<unsigned __int128>(h) *
       static_cast<unsigned __int128>(num_shards)) >>
      64);
}
GC_HOT_REGION_END(gcached_shard_of_block)

/// Convenience for tests/tools: the shard serving `item`'s block.
inline std::size_t shard_of_item(const BlockMap& map, ItemId item,
                                 std::size_t num_shards) {
  return shard_of_block(map.block_of(item), num_shards);
}

/// Capacity share of shard `s` when `capacity` items are split across
/// `num_shards` shards: capacity/S plus one of the remainder items for the
/// first capacity%S shards, so the shares sum to exactly `capacity`.
inline std::size_t shard_capacity_share(std::size_t capacity,
                                        std::size_t num_shards,
                                        std::size_t s) {
  GC_REQUIRE(s < num_shards, "shard index out of range");
  return capacity / num_shards + (s < capacity % num_shards ? 1 : 0);
}

/// How a miss's simulated backend fill is slept (see file comment).
enum class FillMode {
  kSync,   ///< fill slept holding the shard (compat/differential baseline)
  kAsync,  ///< MSHR path: lock released across the fill, misses coalesce
};

struct GcachedConfig {
  std::size_t num_shards = 1;
  std::size_t capacity = 0;
  /// Simulated backend fill charged on every miss. 0 = pure in-memory
  /// transitions (the differential-test configuration; both fill modes
  /// then run the identical lock-held transition sequence).
  std::uint64_t fill_latency_ns = 0;
  FillMode fill_mode = FillMode::kAsync;
  /// Per-shard MSHR entries: max concurrently in-flight block fills per
  /// shard in async mode. A miss arriving with every register busy falls
  /// back to an unqueued (non-coalescible) fill rather than waiting for a
  /// register.
  std::size_t mshr_entries = 8;
};

/// Type-erased runtime handle (the template below is the only
/// implementation). One virtual call per operation — noise next to the lock
/// acquire — in exchange for spec-string construction in tools and benches.
class ConcurrentCache {
 public:
  virtual ~ConcurrentCache() = default;

  ConcurrentCache() = default;
  ConcurrentCache(const ConcurrentCache&) = delete;
  ConcurrentCache& operator=(const ConcurrentCache&) = delete;

  /// One client operation: hit/miss classification, policy transition, and
  /// stat updates for `item`, under its shard's exclusive lock. `block`
  /// must be `item`'s block id (precomputed, as in the fast engines).
  virtual void access(ClientContext& ctx, ItemId item, BlockId block) = 0;

  /// Read-only residency probe under the shard's exclusive lock.
  virtual bool contains(ClientContext& ctx, ItemId item, BlockId block) = 0;

  /// Aggregate SimStats across shards. Takes every shard lock; the result
  /// is exact when the runtime is quiesced (no in-flight clients) and a
  /// consistent-per-shard snapshot otherwise.
  virtual SimStats collect_stats() = 0;

  virtual std::size_t num_shards() const = 0;
  virtual std::size_t capacity() const = 0;
  /// Shard `s`'s capacity share (see shard_capacity_share).
  virtual std::size_t shard_capacity(std::size_t s) const = 0;
  /// Shard `s`'s current occupancy (takes the shard lock).
  virtual std::size_t shard_occupancy(std::size_t s) = 0;
  virtual std::string policy_name() const = 0;

  /// Attach (or detach with nullptr) a gcmon per-shard counter table sized
  /// to num_shards(). The access path publishes hit/miss/sideload/lock
  /// deltas into it via GC_MON_* macros — relaxed atomics only, compiled to
  /// nothing under GCACHING_OBS=OFF, so attach is a no-op in fast builds.
  /// The atlas must outlive all traffic issued while it is attached.
  virtual void attach_atlas(obs::ShardAtlas* atlas) = 0;
};

/// The ConcurrentPolicy adapter: `Policy` is any concrete policy class
/// usable with `detail::fast_step` whose state is derivable from (map,
/// per-shard cache) alone — no offline prepare(), no cross-shard reads.
/// Policies outside that envelope cannot shard; `make_concurrent_cache`
/// (gcached.hpp) documents the escape hatch.
template <typename Policy, typename MakePolicy>
class ShardedCache final : public ConcurrentCache {
 public:
  /// `make_policy()` returns a fresh Policy by value (guaranteed elision),
  /// called once per shard.
  ShardedCache(std::shared_ptr<const BlockMap> map, const GcachedConfig& cfg,
               MakePolicy make_policy, std::string policy_name)
      : map_(std::move(map)), cfg_(cfg), name_(std::move(policy_name)) {
    GC_REQUIRE(map_ != nullptr, "gcached needs a block map");
    GC_REQUIRE(cfg_.num_shards >= 1, "gcached needs at least one shard");
    GC_REQUIRE(cfg_.capacity >= cfg_.num_shards,
               "gcached needs at least one item of capacity per shard");
    GC_REQUIRE(cfg_.mshr_entries >= 1,
               "gcached needs at least one MSHR entry per shard");
    shards_.reserve(cfg_.num_shards);
    for (std::size_t s = 0; s < cfg_.num_shards; ++s) {
      shards_.push_back(std::make_unique<Shard>(
          *map_, shard_capacity_share(cfg_.capacity, cfg_.num_shards, s),
          cfg_.mshr_entries, make_policy));
      Shard& shard = *shards_.back();
      // The exact setup sequence of simulate_fast, minus prepare() (online
      // policies only — enforced by the factory's escape hatch).
      shard.policy.attach(*map_, shard.cache);
      shard.cache.set_load_time_tracking(false);
    }
  }

  GC_HOT_REGION_BEGIN(gcached_access)
  void access(ClientContext& ctx, ItemId item, BlockId block) override {
    const std::size_t si = shard_of_block(block, shards_.size());
    Shard& shard = *shards_[si];
    // fill_latency == 0 always takes the sync path: the transitions are
    // lock-held and identical in both modes, so the async machinery would
    // only add probes — and the differential anchor gets one code path.
    if (cfg_.fill_mode == FillMode::kAsync && cfg_.fill_latency_ns != 0) {
      access_async(ctx, shard, si, item, block);
    } else {
      access_sync(ctx, shard, si, item, block);
    }
  }

  bool contains(ClientContext& ctx, ItemId item, BlockId block) override {
    Shard& shard = *shards_[shard_of_block(block, shards_.size())];
    ShardGuard guard(shard.lock(), ctx);
    return shard.cache.contains(item);
  }
  GC_HOT_REGION_END(gcached_access)

  SimStats collect_stats() override {
    // Cold path: plain lock() via a throwaway context per shard; the
    // derivable counters are filled from a COPY of the partial stats, the
    // same trick as detail::fast_live_snapshot.
    SimStats total;
    for (const std::unique_ptr<Shard>& shard : shards_) {
      ClientContext ctx;
      ShardGuard guard(shard->lock(), ctx);
      // Every plain hit, fill commit and delayed-hit commit advances the
      // cache's logical clock exactly once, so now() is the access count.
      SimStats snapshot = shard->partial;
      detail::fast_finalize<Policy>(shard->cache, snapshot,
                                    shard->cache.now());
      total += snapshot;
    }
    return total;
  }

  std::size_t num_shards() const override { return shards_.size(); }
  std::size_t capacity() const override { return cfg_.capacity; }

  std::size_t shard_capacity(std::size_t s) const override {
    GC_REQUIRE(s < shards_.size(), "shard index out of range");
    return shards_[s]->cache.capacity();
  }

  std::size_t shard_occupancy(std::size_t s) override {
    GC_REQUIRE(s < shards_.size(), "shard index out of range");
    ClientContext ctx;
    ShardGuard guard(shards_[s]->lock(), ctx);
    return shards_[s]->cache.occupancy();
  }

  std::string policy_name() const override { return name_; }

  void attach_atlas(obs::ShardAtlas* atlas) override {
    GC_REQUIRE(atlas == nullptr || atlas->size() == shards_.size(),
               "atlas size must equal the shard count");
    atlas_.store(atlas, std::memory_order_release);
  }

 private:
  // A shard is handed between cores through its lock, so its layout is
  // set by what a hold writes (docs/CONCURRENCY.md, "Shard memory layout").
  // Line 0 holds the writer flag and the MSHR header, which only checking
  // builds and the async fill path write. `cache` starts its own line: a
  // read-mostly line, then the line every access writes, which also holds
  // the lock word the cache lends. `policy` starts another, whose list
  // pointer is read-mostly; `partial`, written on delayed hits and by
  // policies that sideload or evict on hits, starts a third. Shards never
  // share a line with each other.
  struct alignas(kCacheLineBytes) Shard {
    bool writer_active = false;  ///< checking builds only; guarded by lock()
    MshrTable mshr;         ///< in-flight fills; mutated under lock() only
    alignas(kCacheLineBytes) CacheContents cache;
    alignas(kCacheLineBytes) Policy policy;
    alignas(kCacheLineBytes) SimStats partial;  ///< non-derivable counters

    Shard(const BlockMap& map, std::size_t capacity, std::size_t mshrs,
          MakePolicy& make)
        : mshr(mshrs), cache(map, capacity), policy(make()) {
      GC_ASSERT_APART(Shard, mshr, cache);
      GC_ASSERT_APART(Shard, partial, policy);
    }

    /// The shard's lock, over the word `cache` lends.
    ShardLock lock() noexcept { return ShardLock(cache.owner_lock()); }
  };

  /// Single-writer-per-shard invariant, RAII form for the multi-hold async
  /// path: the exclusive lock makes the flag race-free, so a firing check
  /// means a lock-discipline bug (an access path that skipped ShardGuard),
  /// not a data race. Compiles to nothing under GC_FAST_SIM.
  struct WriterScope {
    Shard& shard;
    GC_HOT_REGION_BEGIN(gcached_writer_scope)
    explicit WriterScope(Shard& s) : shard(s) {
      GC_HOT_CHECK(!shard.writer_active,
                   "single-writer-per-shard invariant violated");
      if constexpr (kHotChecksEnabled) shard.writer_active = true;
    }
    ~WriterScope() {
      if constexpr (kHotChecksEnabled) shard.writer_active = false;
    }
    GC_HOT_REGION_END(gcached_writer_scope)
    WriterScope(const WriterScope&) = delete;
    WriterScope& operator=(const WriterScope&) = delete;
  };

  /// gcmon's view of one shard hold: the lock counters it added to the
  /// caller's ClientContext. Snapshot before the ShardGuard, publish() while
  /// it is held (GC_MON_SHARD_ADD's single-writer rule). The counters move
  /// only inside ShardLock::lock, so the delta is exactly this acquisition's;
  /// backoff_rounds counts its failed attempts. `Mon` is the GC_MON_ATLAS
  /// hoist (a constexpr null under GCACHING_OBS=OFF, where this is empty).
  struct MonLockDelta {
    std::uint64_t acq_before = 0, fail_before = 0, boff_before = 0;
    GC_HOT_REGION_BEGIN(gcached_mon_lock_delta)
    template <typename Mon>
    MonLockDelta([[maybe_unused]] Mon mon, const ClientContext& ctx) {
      if (GC_MON_ATTACHED(mon)) {
        acq_before = ctx.lock_acquisitions;
        fail_before = ctx.backoff_rounds;
        boff_before = ctx.backoff_ns;
      }
    }
    template <typename Mon>
    void publish([[maybe_unused]] Mon mon, [[maybe_unused]] std::size_t si,
                 [[maybe_unused]] const ClientContext& ctx) const {
      if (GC_MON_ATTACHED(mon)) {
        GC_MON_SHARD_ADD(mon, si, lock_acquisitions,
                         ctx.lock_acquisitions - acq_before);
        GC_MON_SHARD_ADD(mon, si, trylock_failures,
                         ctx.backoff_rounds - fail_before);
        GC_MON_SHARD_ADD(mon, si, backoff_ns, ctx.backoff_ns - boff_before);
      }
    }
    GC_HOT_REGION_END(gcached_mon_lock_delta)
  };

  GC_HOT_REGION_BEGIN(gcached_prefetch)
  /// Issued just before a shard's lock, so that fetching the item's
  /// residency byte and the policy's per-item lines overlaps the lock's
  /// read-for-ownership instead of following it. Race-free unlocked: the
  /// hints read only pointers fixed before the first client starts.
  static void prefetch(const Shard& shard, ItemId item) noexcept {
    shard.cache.prefetch(item);
    shard.policy.prefetch(item);
  }
  GC_HOT_REGION_END(gcached_prefetch)

  GC_HOT_REGION_BEGIN(gcached_access_sync)
  /// The legacy lock-held transition: classify + transition + (for sync
  /// mode) sleep the fill while still holding the shard. Also the shared
  /// zero-latency path of both modes.
  void access_sync(ClientContext& ctx, Shard& shard,
                   [[maybe_unused]] std::size_t si, ItemId item,
                   BlockId block) {
    // Monitoring publishes are deltas of state we already maintain (partial
    // SimStats, ClientContext counters) pushed into per-shard relaxed
    // atomics — one predictable branch when no atlas is attached, zero code
    // under GCACHING_OBS=OFF (GC_MON_ATTACHED is then compile-time false).
    GC_MON_ATLAS(mon, atlas_.load(std::memory_order_acquire));
    const MonLockDelta lock_delta(mon, ctx);
    prefetch(shard, item);
    ShardGuard guard(shard.lock(), ctx);
    WriterScope writer(shard);
    // fast_step maintains only the non-derivable counters (spatial hits,
    // and hit-path evictions); hits are 1 - miss per access, and misses and
    // sideloads follow from CacheContents' load counters — delta those
    // sources directly.
    [[maybe_unused]] const std::uint64_t sideloads_before =
        shard.cache.sideloads();
    // The outcome comes from the residency byte fast_step probes anyway.
    const bool miss = !shard.cache.contains(item);
    detail::fast_step(shard.cache, shard.policy, shard.partial, item, block);
    if (GC_MON_ATTACHED(mon)) {
      GC_MON_SHARD_ADD(mon, si, hits, miss ? 0 : 1);
      GC_MON_SHARD_ADD(mon, si, misses, miss ? 1 : 0);
      GC_MON_SHARD_ADD(mon, si, sideloads,
                       shard.cache.sideloads() - sideloads_before);
      lock_delta.publish(mon, si, ctx);
      GC_MON_SHARD_SET(mon, si, residency, shard.cache.occupancy());
    }
    if (cfg_.fill_latency_ns != 0 && miss) {
      // Synchronous fill: the shard stays held (its writer is blocked on
      // the backend), threads on other shards keep going. Slept inside the
      // guard on purpose — this compat mode IS the serialization baseline
      // the async gate in CI compares against. The sleep itself lives in
      // shard_lock.hpp (`backend_fill`), the one blocking home the
      // unconditional lock-discipline rule recognises.
      backend_fill(cfg_.fill_latency_ns);
    }
  }
  GC_HOT_REGION_END(gcached_access_sync)

  GC_HOT_REGION_BEGIN(gcached_access_async)
  /// The MSHR fill path: no thread ever sleeps while holding the shard.
  /// Per iteration, one exclusive hold classifies the access; a miss either
  /// registers an in-flight fill (then sleeps UNLOCKED and re-acquires to
  /// commit) or coalesces onto an existing one (then parks on its FillGate
  /// and re-classifies after the wake). docs/CONCURRENCY.md documents the
  /// protocol; tests/test_gcached.cpp pins coalescing, conservation, and
  /// the free-delayed-hit taxonomy.
  void access_async(ClientContext& ctx, Shard& shard,
                    [[maybe_unused]] std::size_t si, ItemId item,
                    BlockId block) {
    GC_MON_ATLAS(mon, atlas_.load(std::memory_order_acquire));
    std::uint64_t waited_ns = 0;
    for (;;) {
      FillGate* wait_gate = nullptr;
      std::uint64_t wait_epoch = 0;
      Mshr* fill_entry = nullptr;
      bool unqueued_fill = false;
      {
        const MonLockDelta lock_delta(mon, ctx);
        prefetch(shard, item);
        ShardGuard guard(shard.lock(), ctx);
        WriterScope writer(shard);
        lock_delta.publish(mon, si, ctx);
        if (shard.cache.contains(item)) {
          if (waited_ns == 0) {
            // Plain hit: the exact fast_step hit arm (its own contains
            // probe re-confirms under the same hold).
            detail::fast_step(shard.cache, shard.policy, shard.partial, item,
                              block);
            if (GC_MON_ATTACHED(mon)) {
              GC_MON_SHARD_ADD(mon, si, hits, 1);
              GC_MON_SHARD_SET(mon, si, residency, shard.cache.occupancy());
            }
            return;
          }
          // Resident after a wait: a DELAYED hit — the access was served by
          // a fill already in flight when it arrived. Not a hit (the item
          // was absent at access time), not a miss (no fill was issued).
          // The hit taxonomy doubles as the free-delayed-hit classifier:
          // kSpatial means the waiter's item was only ever *sideloaded* by
          // the pending fill — spatial locality paid for the wait.
          commit_delayed_hit(shard, item, waited_ns);
          if (GC_MON_ATTACHED(mon)) {
            GC_MON_SHARD_ADD(mon, si, delayed_hits, 1);
            GC_MON_SHARD_SET(mon, si, residency, shard.cache.occupancy());
          }
          return;
        }
        // Miss. Coalesce onto an in-flight fill of this block if there is
        // one; otherwise claim an MSHR register; when every register is
        // busy, fall back to an unqueued fill (never wait for a register
        // while holding the shard).
        if (Mshr* inflight = shard.mshr.find(block)) {
          ++inflight->coalesced;
          wait_gate = &inflight->gate;
          wait_epoch = wait_gate->epoch();
          if (GC_MON_ATTACHED(mon)) {
            GC_MON_SHARD_ADD(mon, si, coalesced, 1);
          }
        } else if ((fill_entry = shard.mshr.claim(block)) != nullptr) {
          if (GC_MON_ATTACHED(mon)) {
            GC_MON_SHARD_SET(mon, si, mshr_inflight, shard.mshr.inflight());
          }
        } else {
          unqueued_fill = true;
        }
      }  // shard released — nothing below blocks while holding it.
      if (wait_gate != nullptr) {
        // If the commit already happened, the epoch has moved and this
        // returns immediately (see FillGate). Re-classify after the wake:
        // the usual outcome is the delayed-hit branch above, but the item
        // may not have been sideloaded (item policies never sideload) or
        // may already be evicted again — then the loop simply retries as a
        // fresh access, fill included.
        waited_ns += wait_gate->await_past(wait_epoch);
        continue;
      }
      // This thread owns the fill: sleep it with no lock held, then
      // re-acquire to commit. Other threads hit/miss/fill this shard's
      // OTHER blocks during the sleep — that overlap is the whole point.
      backend_fill(cfg_.fill_latency_ns);
      commit_fill(ctx, shard, si, item, block, fill_entry, unqueued_fill);
      return;
    }
  }

  /// Commit of a fill this thread slept. Re-acquires the shard; the
  /// residency RE-CHECK is load-bearing: an unqueued (MSHR-overflow) fill
  /// of the same block may have committed our item during the unlocked
  /// window, and `begin_miss` on a resident item is a contract violation —
  /// the access then lands as a delayed hit that waited the full fill.
  void commit_fill(ClientContext& ctx, Shard& shard,
                   [[maybe_unused]] std::size_t si, ItemId item, BlockId block,
                   Mshr* fill_entry, [[maybe_unused]] bool unqueued_fill) {
    GC_MON_ATLAS(mon, atlas_.load(std::memory_order_acquire));
    const MonLockDelta lock_delta(mon, ctx);
    ShardGuard guard(shard.lock(), ctx);
    WriterScope writer(shard);
    [[maybe_unused]] const std::uint64_t sideloads_before =
        shard.cache.sideloads();
    if (!shard.cache.contains(item)) {
      // fast_step re-probes residency under this same hold and takes its
      // miss arm: begin_miss/on_miss/end_miss, the exact sequential
      // transition, now merely time-shifted to the fill's completion.
      detail::fast_step(shard.cache, shard.policy, shard.partial, item,
                        block);
      if (GC_MON_ATTACHED(mon)) {
        GC_MON_SHARD_ADD(mon, si, misses, 1);
      }
    } else {
      commit_delayed_hit(shard, item, cfg_.fill_latency_ns);
      if (GC_MON_ATTACHED(mon)) {
        GC_MON_SHARD_ADD(mon, si, delayed_hits, 1);
      }
    }
    if (fill_entry != nullptr) {
      // Release the register and wake every coalesced waiter. Both happen
      // under this same hold, so a recycled entry can never be observed
      // with a stale epoch (see FillGate's protocol comment).
      FillGate& gate = fill_entry->gate;
      shard.mshr.release(fill_entry);
      gate.advance();
    }
    if (GC_MON_ATTACHED(mon)) {
      GC_MON_SHARD_ADD(mon, si, sideloads,
                       shard.cache.sideloads() - sideloads_before);
      lock_delta.publish(mon, si, ctx);
      GC_MON_SHARD_SET(mon, si, mshr_inflight, shard.mshr.inflight());
      GC_MON_SHARD_SET(mon, si, residency, shard.cache.occupancy());
    }
  }

  /// The delayed-hit transition, shared by the waiter-wake and double-fill
  /// paths. Must run under the shard's exclusive lock. Mirrors fast_step's
  /// hit arm for the cache/policy transition, but charges the dedicated
  /// delayed-hit counters instead of the hit taxonomy: delayed hits are
  /// excluded from hits (and thus from temporal/spatial) by
  /// `fast_finalize`'s `hits = accesses - misses - delayed_hits`.
  void commit_delayed_hit(Shard& shard, ItemId item, std::uint64_t wait_ns) {
    HitKind kind = HitKind::kTemporal;
    if constexpr (detail::kRequestedOnly<Policy>) {
      // Requested-loads-only policies never sideload, so a resident waiter
      // item was the fill's own requested load — never a free delayed hit.
      shard.cache.record_requested_hit(item);
    } else {
      kind = shard.cache.record_hit(item);
    }
    shard.policy.on_hit(item);
    ++shard.partial.delayed_hits;
    if (kind == HitKind::kSpatial) ++shard.partial.free_delayed_hits;
    shard.partial.delayed_hit_wait_ns += wait_ns;
  }
  GC_HOT_REGION_END(gcached_access_async)

  std::shared_ptr<const BlockMap> map_;
  GcachedConfig cfg_;
  std::string name_;
  /// Attached gcmon counter table, or nullptr (idle: one acquire load per
  /// access in obs builds; the load itself compiles out under OBS=OFF).
  std::atomic<obs::ShardAtlas*> atlas_{nullptr};
  // Policies are neither copyable nor movable, so shards live behind
  // unique_ptr.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace gcaching::gcached
