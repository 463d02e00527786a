// The simulation engines: verifying and fast.
//
// `Simulation` drives a policy one access at a time (the step-wise form is
// what adaptive adversaries need: they choose the next request by inspecting
// the live cache). `simulate()` runs a whole workload. Either way, all model
// invariants are enforced by `CacheContents`; a policy that cheats throws.
//
// `simulate_fast<Policy>()` is the whole-trace fast path: the policy type is
// a template parameter, so `on_hit` / `on_miss` devirtualize (every built-in
// policy is `final`) and inline into the loop, and per-access block ids are
// precomputed so the hot loop never makes a virtual BlockMap call. It runs
// the *same* CacheContents transitions in the same order as `Simulation`,
// so its SimStats are bit-identical to the verifying engine's — enforced by
// tests/test_fast_sim.cpp for every policy in the factory. Under the
// GC_FAST_SIM build configuration the hot-tier contracts additionally
// compile to nothing (see docs/PERF.md).
//
// A capacity sweep runs `simulate_fast` once per capacity, except for the
// stack policies, whose whole column collapses into one stack-distance pass
// (locality/stack_column.hpp, dispatched by policies/factory.cpp).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/block_map.hpp"
#include "core/cache_contents.hpp"
#include "core/policy.hpp"
#include "core/stats.hpp"
#include "core/trace.hpp"
#include "obs/obs.hpp"
#include "util/contracts.hpp"

namespace gcaching {

class Simulation {
 public:
  /// Binds `policy` to a fresh cache of `capacity` items over `map`.
  /// Both `map` and `policy` must outlive the Simulation.
  Simulation(const BlockMap& map, ReplacementPolicy& policy,
             std::size_t capacity);

  /// Process one request. Hit/miss classification, policy callbacks, and
  /// stat updates happen here.
  void access(ItemId item);

  /// Process every request of a trace in order.
  void run(const Trace& trace);

  const CacheContents& cache() const noexcept { return cache_; }
  const SimStats& stats() const noexcept { return stats_; }
  ReplacementPolicy& policy() noexcept { return policy_; }

 private:
  const BlockMap& map_;
  ReplacementPolicy& policy_;
  CacheContents cache_;
  SimStats stats_;
};

/// One-shot convenience: simulate `trace` through `policy` with a cache of
/// `capacity`. Calls `policy.prepare(trace)` first (offline policies), then
/// `policy.reset()` is NOT called — pass a fresh policy per run.
SimStats simulate(const BlockMap& map, const Trace& trace,
                  ReplacementPolicy& policy, std::size_t capacity);

/// Workload-flavored overload.
SimStats simulate(const Workload& workload, ReplacementPolicy& policy,
                  std::size_t capacity);

namespace detail {

GC_HOT_REGION_BEGIN(fast_engine_per_access)

// The verifying engine charges eviction stats per miss transaction, so
// evictions a policy performs on *hits* (IBLP's item-layer reshuffling)
// are excluded from SimStats. Policies that do that declare it with
// `kEvictsOutsideMiss`; only for them do we pay the per-miss counter
// snapshots. Loads are only legal inside a miss for every policy, so the
// load counters are always safe to read once at the end.
template <typename Policy>
inline constexpr bool kHitPathEvictions = [] {
  if constexpr (requires { Policy::kEvictsOutsideMiss; })
    return Policy::kEvictsOutsideMiss;
  else
    return false;
}();

// Policies that only ever load the requested item can skip the hit
// taxonomy: every hit is temporal and the touched bit is already set
// (record_requested_hit contract-checks the claim in checking builds).
template <typename Policy>
inline constexpr bool kRequestedOnly = [] {
  if constexpr (requires { Policy::kRequestedLoadsOnly; })
    return Policy::kRequestedLoadsOnly;
  else
    return false;
}();

/// One access of the fast engine. Only the counters that cannot be derived
/// afterwards are maintained here: spatial hits and (for kHitPathEvictions
/// policies) the per-miss eviction deltas. The load counters live in
/// CacheContents already, and misses / accesses / hits / temporal_hits
/// follow arithmetically in `fast_finalize`.
template <typename Policy>
inline void fast_step(CacheContents& cache, Policy& policy, SimStats& stats,
                      ItemId item, BlockId block) {
  if (cache.contains(item)) {
    if constexpr (kRequestedOnly<Policy>) {
      cache.record_requested_hit(item);
    } else {
      if (cache.record_hit(item) == HitKind::kSpatial) ++stats.spatial_hits;
    }
    policy.on_hit(item);
    return;
  }
  if constexpr (kHitPathEvictions<Policy>) {
    const std::uint64_t evictions_before = cache.evictions();
    const std::uint64_t wasted_before = cache.wasted_sideloads();
    cache.begin_miss(item, block);
    policy.on_miss(item);
    cache.end_miss();
    stats.evictions += cache.evictions() - evictions_before;
    stats.wasted_sideloads += cache.wasted_sideloads() - wasted_before;
  } else {
    cache.begin_miss(item, block);
    policy.on_miss(item);
    cache.end_miss();
  }
}

/// Fills in the derivable counters after the last `fast_step`.
template <typename Policy>
inline void fast_finalize(const CacheContents& cache, SimStats& stats,
                          std::uint64_t num_accesses) {
  stats.accesses = num_accesses;
  // Every miss loads its requested item exactly once (CacheContents::end_miss
  // enforces it in checking builds), and no other load is a requested one.
  stats.misses = cache.items_loaded() - cache.sideloads();
  // delayed_hits is only ever non-zero for the gcached async fill path
  // (src/gcached/sharded_cache.hpp), which reuses this finalizer; the
  // sequential engines keep it at zero, so `hits = accesses - misses` holds
  // there unchanged.
  stats.hits = stats.accesses - stats.misses - stats.delayed_hits;
  stats.temporal_hits = stats.hits - stats.spatial_hits;
  stats.items_loaded = cache.items_loaded();
  stats.sideloads = cache.sideloads();
  if constexpr (!kHitPathEvictions<Policy>) {
    stats.evictions = cache.evictions();
    stats.wasted_sideloads = cache.wasted_sideloads();
  }
}

GC_HOT_REGION_END(fast_engine_per_access)

/// Live running totals mid-run: the fast engines maintain only the
/// non-derivable counters in-loop, so a timeline snapshot applies
/// `fast_finalize` to a *copy* of the partial stats. Window-boundary cost
/// only — GC_OBS_TICK evaluates this expression solely when a window closes.
template <typename Policy>
inline SimStats fast_live_snapshot(const CacheContents& cache, SimStats partial,
                                   std::uint64_t accesses_so_far) {
  fast_finalize<Policy>(cache, partial, accesses_so_far);
  return partial;
}

}  // namespace detail

/// Fast-path engine. `Policy` is the concrete (final) policy class; the
/// caller supplies each access's block id via `block_ids` (see
/// Trace::precompute_block_ids / compute_block_ids). Performs the exact
/// access/hit/miss transitions of `Simulation::access`, including the
/// prepare() call of the one-shot `simulate()`, and returns bit-identical
/// SimStats.
template <typename Policy>
SimStats simulate_fast(const BlockMap& map, const Trace& trace,
                       Policy& policy, std::size_t capacity,
                       std::span<const BlockId> block_ids) {
  GC_REQUIRE(block_ids.size() == trace.size(),
             "one precomputed block id per access is required");
  CacheContents cache(map, capacity);
  policy.attach(map, cache);
  policy.prepare(trace);
  cache.set_load_time_tracking(false);  // cold feature; saves a store per load
  SimStats stats;
  GC_OBS_TIMELINE(obs_tl);
  GC_OBS_TIMELINE_OPEN(obs_tl, capacity, trace.size());
  const std::vector<ItemId>& accesses = trace.accesses();
  // The loop is kept in two copies so the common no-timeline case runs the
  // exact uninstrumented code: a tick inside the loop — even one that only
  // null-tests a hoisted pointer — forces the partial stats out of registers
  // at every call-reachable point and costs ~10% throughput.
  GC_HOT_REGION_BEGIN(fast_engine_loop)
  if (GC_OBS_ATTACHED(obs_tl)) {
    for (std::size_t i = 0; i < accesses.size(); ++i) {
      detail::fast_step(cache, policy, stats, accesses[i], block_ids[i]);
      GC_OBS_TICK(obs_tl,
                  detail::fast_live_snapshot<Policy>(cache, stats, i + 1));
    }
  } else {
    for (std::size_t i = 0; i < accesses.size(); ++i)
      detail::fast_step(cache, policy, stats, accesses[i], block_ids[i]);
  }
  GC_HOT_REGION_END(fast_engine_loop)
  detail::fast_finalize<Policy>(cache, stats, accesses.size());
  GC_OBS_TIMELINE_CLOSE(obs_tl, stats);
  return stats;
}

/// Convenience overload: uses the trace's cached block ids when present
/// (Trace::precompute_block_ids), otherwise resolves them in a one-off pass
/// before entering the hot loop.
template <typename Policy>
SimStats simulate_fast(const BlockMap& map, const Trace& trace,
                       Policy& policy, std::size_t capacity) {
  std::vector<BlockId> storage;
  const std::span<const BlockId> ids = resolve_block_ids(map, trace, storage);
  return simulate_fast(map, trace, policy, capacity, ids);
}

}  // namespace gcaching
