// Ground-truth cache state with model-invariant enforcement.
//
// `CacheContents` is owned by the simulator, not by policies. Policies
// mutate it only through `load` / `evict` inside a miss transaction opened
// by the simulator, and the class *enforces* Definition 1:
//   * loads are only legal during a miss, and only for items of the
//     currently-missed block (the "any subset of that item's block" rule);
//   * occupancy never exceeds capacity (evict before load);
//   * the requested item must be resident when the transaction closes.
//
// It also performs the paper's hit taxonomy (Section 2, "Locality vs.
// traditional caching models"): a hit on an item that was side-loaded by a
// different item's miss and has not been touched since is a *spatial* hit;
// every other hit is *temporal*.
//
// All per-access mutators are defined inline here and carry GC_HOT_* tier
// contracts: enforced by default, compiled out under GC_FAST_SIM so the
// fast-path engine (core/simulator.hpp, `simulate_fast`) pays nothing for
// them. The per-access state is split by temperature: the hit path reads
// and writes a one-byte flag word per item (present / requested / touched),
// so the residency table an access touches is num_items bytes and stays
// cache-resident for realistic universes; load timestamps live in a side
// array written only on loads.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/block_map.hpp"
#include "core/types.hpp"
#include "util/cache_line.hpp"
#include "util/contracts.hpp"

namespace gcaching {

enum class HitKind : std::uint8_t { kTemporal, kSpatial };

class CacheContents {
 public:
  // Defined inline (like the per-access mutators) so the fast engine's
  // translation unit sees the whole object lifetime: the flag array is then
  // known not to alias the policy's own state, which keeps the loop-carried
  // members in registers.
  CacheContents(const BlockMap& map, std::size_t capacity)
      : map_(map),
        flags_(map.num_items(), Flag{}),
        load_times_(map.num_items(), 0),
        capacity_(capacity) {
    GC_REQUIRE(capacity >= 1, "cache capacity must be at least one item");
    GC_ASSERT_APART(CacheContents, now_, capacity_);
    GC_ASSERT_APART(CacheContents, now_, flags_);
    GC_ASSERT_APART(CacheContents, now_, map_);
    GC_ASSERT_TOGETHER(CacheContents, owner_lock_, now_);
  }

  // ---- Read-only inspection (also the adversaries' view) -----------------
  GC_HOT_REGION_BEGIN(cache_contents_residency)
  bool contains(ItemId item) const {
    GC_HOT_REQUIRE(item < flags_.size(), "item id out of range");
    return (raw(flags_[item]) & kPresent) != 0;
  }

  /// Hint: fetch `item`'s residency byte. Safe without the owner's lock:
  /// it reads only the flag array's data pointer, fixed after construction.
  void prefetch(ItemId item) const noexcept {
    __builtin_prefetch(flags_.data() + item);
  }
  GC_HOT_REGION_END(cache_contents_residency)
  std::size_t occupancy() const noexcept { return occupancy_; }
  std::size_t capacity() const noexcept { return capacity_; }
  bool full() const noexcept { return occupancy_ == capacity_; }
  const BlockMap& map() const noexcept { return map_; }

  /// True while a miss transaction is open.
  bool in_miss() const noexcept { return current_block_ != kInvalidBlock; }

  /// The block whose miss is being served (only valid during a miss).
  BlockId missed_block() const;

  /// Logical time (accesses processed so far), advanced by the simulator.
  AccessTime now() const noexcept { return now_; }

  /// A lock word lent to an owner that guards this cache with a lock
  /// (gcached's ShardLock). It sits on the line every access writes, so the
  /// exchange that takes the lock also fetches that line. The cache itself
  /// never reads or writes it.
  std::atomic<bool>& owner_lock() noexcept { return owner_lock_; }

  /// Calls fn(item) for every resident item, ascending id. O(num_items).
  /// Allocation-free templated form; policies should prefer this.
  template <typename Fn>
  void visit_residents(Fn&& fn) const {
    for (ItemId it = 0; it < flags_.size(); ++it)
      if ((raw(flags_[it]) & kPresent) != 0) fn(it);
  }

  /// Calls fn(item) for every resident item of `block`, ascending id.
  /// O(block size); safe against evicting the visited item from inside fn.
  template <typename Fn>
  void visit_residents_of_block(BlockId block, Fn&& fn) const {
    for (ItemId it : map_.items_of(block))
      if ((raw(flags_[it]) & kPresent) != 0) fn(it);
  }

  /// Type-erased form of visit_residents, kept for tests and tools where a
  /// per-call std::function allocation is irrelevant.
  void for_each_resident(const std::function<void(ItemId)>& fn) const;

  /// Snapshot of resident items, ascending. O(num_items); for tests/benches.
  std::vector<ItemId> resident_items() const;

  /// Number of residents of `block`. O(block size).
  std::size_t residents_of_block(BlockId block) const;

  // ---- Mutation API (simulator + policies) --------------------------------
  // Every mutator below runs once (or more) per simulated access; only
  // GC_HOT_* contracts are allowed in this region (enforced by gclint).
  GC_HOT_REGION_BEGIN(cache_contents_mutators)
  /// Simulator: advance logical time; classify & record a hit on a resident
  /// item. Returns the hit kind per the paper's taxonomy.
  HitKind record_hit(ItemId item) {
    GC_HOT_REQUIRE(!in_miss(), "record_hit during an open miss transaction");
    GC_HOT_REQUIRE(contains(item), "record_hit on a non-resident item");
    const std::uint8_t e = raw(flags_[item]);
    const HitKind kind =
        (e & (kTouched | kRequestedLoad)) == 0 ? HitKind::kSpatial
                                               : HitKind::kTemporal;
    // Skip the store when the bit is already set (the common case: every
    // requested load starts touched) — hits then leave the flag line clean.
    if ((e & kTouched) == 0) flags_[item] = flag(e | kTouched);
    ++now_;
    return kind;
  }

  /// Hit fast path for policies that declare `kRequestedLoadsOnly`: every
  /// resident item was loaded as its own request, so the touched bit is
  /// already set (record_hit's store would be a no-op) and the hit is
  /// statically temporal. The declaration is contract-checked here on every
  /// hit in checking builds.
  void record_requested_hit(ItemId item) {
    GC_HOT_REQUIRE(!in_miss(), "record_hit during an open miss transaction");
    GC_HOT_REQUIRE(contains(item), "record_hit on a non-resident item");
    GC_HOT_REQUIRE((raw(flags_[item]) & (kTouched | kRequestedLoad)) != 0,
                   "requested-loads-only policy hit an untouched sideload");
    ++now_;
  }

  /// Simulator: open a miss transaction for non-resident `requested`.
  void begin_miss(ItemId requested) {
    begin_miss(requested, map_.block_of(requested));
  }

  /// Fast-path form: the caller supplies `requested`'s block id (typically
  /// precomputed per access, see Trace::precompute_block_ids) so the hot
  /// loop never makes the virtual BlockMap::block_of call.
  void begin_miss(ItemId requested, BlockId block) {
    GC_HOT_REQUIRE(!in_miss(), "begin_miss with a transaction already open");
    GC_HOT_REQUIRE(requested < flags_.size(), "item id out of range");
    GC_HOT_REQUIRE((raw(flags_[requested]) & kPresent) == 0,
                   "begin_miss on a resident item");
    GC_HOT_REQUIRE(block == map_.block_of(requested),
                   "supplied block id does not match the requested item");
    current_block_ = block;
    current_request_ = requested;
    if constexpr (kHotChecksEnabled) requested_loads_ = 0;
  }

  /// Policy: load `item` during a miss. `item` must belong to the missed
  /// block, be non-resident, and the cache must not be full.
  void load(ItemId item) {
    GC_HOT_REQUIRE(in_miss(), "load outside a miss transaction");
    GC_HOT_REQUIRE(item < flags_.size(), "item id out of range");
    GC_HOT_REQUIRE(map_.block_of(item) == current_block_,
                   "Definition 1 violation: load outside the missed block");
    GC_HOT_REQUIRE((raw(flags_[item]) & kPresent) == 0,
                   "loading an already-resident item");
    GC_HOT_REQUIRE(occupancy_ < capacity_,
                   "capacity violation: evict before loading");
    const bool requested = (item == current_request_);
    flags_[item] = flag(requested ? (kPresent | kRequestedLoad | kTouched)
                                  : kPresent);
    if (track_load_times_) load_times_[item] = now_;
    ++occupancy_;
    ++items_loaded_;
    if (!requested) ++sideloads_;
    if constexpr (kHotChecksEnabled) requested_loads_ += requested ? 1 : 0;
  }

  /// Policy: evict resident `item`. Legal at any point — Definition 1 only
  /// constrains *loads*; a policy may reorganize on hits (e.g. IBLP evicts
  /// an item-layer victim when promoting a block-layer hit).
  void evict(ItemId item) {
    GC_HOT_REQUIRE(item < flags_.size(), "item id out of range");
    const std::uint8_t e = raw(flags_[item]);
    GC_HOT_REQUIRE((e & kPresent) != 0, "evicting a non-resident item");
    if ((e & (kTouched | kRequestedLoad)) == 0) ++wasted_sideloads_;
    flags_[item] = Flag{};
    --occupancy_;
    ++evictions_;
  }

  /// Simulator: close the transaction; the requested item must be resident,
  /// loaded exactly once in this miss. The fast engine derives its miss
  /// count from that law (misses = items_loaded - sideloads).
  void end_miss() {
    GC_HOT_REQUIRE(in_miss(), "end_miss without a transaction");
    GC_HOT_ENSURE((raw(flags_[current_request_]) & kPresent) != 0,
                  "policy failed to load the requested item");
    GC_HOT_ENSURE(requested_loads_ == 1,
                  "a miss must load its requested item exactly once");
    GC_HOT_ENSURE(occupancy_ <= capacity_, "occupancy exceeds capacity");
    current_block_ = kInvalidBlock;
    current_request_ = kInvalidItem;
    ++now_;
  }
  GC_HOT_REGION_END(cache_contents_mutators)

  /// Drop everything and reset counters to the post-construction state.
  void reset();

  // ---- Lifetime counters ---------------------------------------------------
  /// Items brought into the cache, including requested ones.
  std::uint64_t items_loaded() const noexcept { return items_loaded_; }
  /// Items loaded as a side effect of a different item's miss.
  std::uint64_t sideloads() const noexcept { return sideloads_; }
  /// Evictions performed.
  std::uint64_t evictions() const noexcept { return evictions_; }
  /// Side-loaded items evicted without ever being accessed — pure pollution.
  std::uint64_t wasted_sideloads() const noexcept { return wasted_sideloads_; }
  /// Timestamp (access index) at which `item` was last loaded. Only
  /// meaningful while the item is resident and load-time tracking is on.
  AccessTime load_time(ItemId item) const;

  /// Load timestamps are a cold-inspection feature (load_time()); the fast
  /// engine turns the per-load timestamp write off — it is a random-line
  /// store the hot loop otherwise pays on every load. SimStats and every
  /// other observable are unaffected. On by default.
  void set_load_time_tracking(bool on) noexcept { track_load_times_ = on; }
  bool load_time_tracking() const noexcept { return track_load_times_; }

 private:
  // Per-item flag byte; a non-resident item is all-zero. Stored as a
  // distinct one-byte enum rather than std::uint8_t on purpose: unsigned
  // char writes may alias *any* object, so flag stores in the (inlined) hot
  // loop would force the compiler to re-load every cached member and policy
  // pointer each iteration. An enum has its own alias class.
  enum class Flag : std::uint8_t {};
  static constexpr std::uint8_t kPresent = 1;        ///< resident now
  static constexpr std::uint8_t kRequestedLoad = 2;  ///< loaded as the request
  static constexpr std::uint8_t kTouched = 4;  ///< accessed since its load
  static constexpr std::uint8_t raw(Flag f) noexcept {
    return static_cast<std::uint8_t>(f);
  }
  static constexpr Flag flag(std::uint8_t b) noexcept {
    return static_cast<Flag>(b);
  }

  // Two lines, split by temperature (util/cache_line.hpp). The first holds
  // what is fixed after construction; every access reads it, none writes
  // it, so it stays shared in every core that runs the cache. The split
  // holds where the object is placed line-aligned (gcached's shards). The
  // type itself is not over-aligned: an over-aligned local would make every
  // fast engine realign its stack frame and give up a register in its loop.
  const BlockMap& map_;
  std::vector<Flag> flags_;
  std::vector<AccessTime> load_times_;  ///< valid while the item is resident
  std::size_t capacity_;

  // The second holds what the access path writes: the clock on every
  // access, the rest on misses. track_load_times_ is read-mostly but is
  // read only by load(), which writes this line anyway. The owner's lock
  // word and the checking builds' load count fill the padding after it.
  AccessTime now_ = 0;
  std::size_t occupancy_ = 0;
  BlockId current_block_ = kInvalidBlock;
  ItemId current_request_ = kInvalidItem;
  bool track_load_times_ = true;
  std::atomic<bool> owner_lock_{false};
  std::uint32_t requested_loads_ = 0;  ///< this miss's; checking builds only
  std::uint64_t items_loaded_ = 0;
  std::uint64_t sideloads_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t wasted_sideloads_ = 0;
};

}  // namespace gcaching
