// Granularity-Change Marking (GCM) and marking-algorithm ablations
// (Section 6 of the paper).
//
// Marking algorithms proceed in phases: items are *marked* when requested;
// evictions pick uniformly among unmarked items; when every resident item is
// marked and space is needed, all marks are cleared (a new phase begins).
//
// GCM accounts for granularity change by, on each miss, loading the rest of
// the requested block *unmarked*: spatially-local items enter the cache but
// cannot displace items with proven temporal locality. In the special case
// where fewer unmarked slots than block items remain, the requested item is
// loaded and the remaining unmarked items in cache are replaced by randomly
// selected items from the accessed block (Section 6.1). Marked items are
// never displaced by side-loads.
//
// Ablations (Section 6.1's comparison points):
//   * `MarkingItem`  — classic marking, ignores granularity change: loads
//     only requested items. Competitive ratio >= B on whole-block scans.
//   * `MarkingBlockMark` — loads the whole block and marks *all* of it:
//     suffers Block-Cache-style pollution because unreferenced side-loads
//     are protected for the rest of the phase.
//
// Data-oriented layout: the MarkPools operations and every per-access
// callback are defined inline (with hot-tier contracts, compiled out under
// GC_FAST_SIM) so `simulate_fast` folds them into its loop, and block
// geometry goes through a FlatBlockIndex instead of virtual BlockMap calls.
#pragma once

#include <string>
#include <vector>

#include "core/policy.hpp"
#include "policies/block_geometry.hpp"
#include "util/attributes.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace gcaching {

namespace detail {

/// Shared phase/mark machinery: resident pools of marked and unmarked items
/// with O(1) random removal.
class MarkPools {
 public:
  void init(std::size_t universe);
  void clear();

  bool resident(ItemId item) const { return state_[item] != State::kAbsent; }
  bool marked(ItemId item) const { return state_[item] == State::kMarked; }
  std::size_t num_unmarked() const { return unmarked_.size(); }
  std::size_t num_marked() const { return marked_.size(); }

  void add(ItemId item, bool do_mark) {
    GC_HOT_REQUIRE(state_[item] == State::kAbsent, "item already tracked");
    if (do_mark) {
      pool_add(marked_, item);
      state_[item] = State::kMarked;
    } else {
      pool_add(unmarked_, item);
      state_[item] = State::kUnmarked;
    }
  }

  void remove(ItemId item) {
    GC_HOT_REQUIRE(state_[item] != State::kAbsent, "item not tracked");
    if (state_[item] == State::kMarked)
      pool_remove(marked_, item);
    else
      pool_remove(unmarked_, item);
    state_[item] = State::kAbsent;
  }

  void mark(ItemId item) {
    GC_HOT_REQUIRE(state_[item] != State::kAbsent, "item not tracked");
    if (state_[item] == State::kMarked) return;
    pool_remove(unmarked_, item);
    pool_add(marked_, item);
    state_[item] = State::kMarked;
  }

  /// Uniformly random unmarked resident item.
  ItemId random_unmarked(SplitMix64& rng) const {
    GC_HOT_REQUIRE(!unmarked_.empty(), "no unmarked item to pick");
    return unmarked_[rng.below(unmarked_.size())];
  }

  /// Start a new phase: every resident item becomes unmarked.
  void unmark_all() {
    for (const ItemId it : marked_) {
      state_[it] = State::kUnmarked;
      pool_add(unmarked_, it);
    }
    marked_.clear();
  }

 private:
  enum class State : std::uint8_t { kAbsent, kUnmarked, kMarked };

  void pool_add(std::vector<ItemId>& pool, ItemId item) {
    slot_[item] = static_cast<std::uint32_t>(pool.size());
    pool.push_back(item);
  }

  void pool_remove(std::vector<ItemId>& pool, ItemId item) {
    const std::uint32_t s = slot_[item];
    GC_HOT_CHECK(s < pool.size() && pool[s] == item, "pool slot corrupted");
    const ItemId last = pool.back();
    pool[s] = last;
    slot_[last] = s;
    pool.pop_back();
  }

  // One swap-pool per state, so random choice over unmarked is O(1).
  std::vector<ItemId> unmarked_;
  std::vector<ItemId> marked_;
  std::vector<std::uint32_t> slot_;  // index within its pool
  std::vector<State> state_;
};

}  // namespace detail

/// GCM: marking with unmarked side-loading of the requested block.
///
/// `max_sideload` caps how many block items are side-loaded per miss
/// (0 = the whole block, the Section 6.1 default). Section 6.1 notes
/// "there may be value in a policy that loads some but not all of the
/// items"; the cap makes that variant runnable.
class Gcm final : public ReplacementPolicy {
 public:
  explicit Gcm(std::uint64_t seed = 1, std::size_t max_sideload = 0)
      : seed_(seed), max_sideload_(max_sideload), rng_(seed) {}

  void attach(const BlockMap& map, CacheContents& cache) override;
  void reset() override;
  std::string name() const override;

  void on_hit(ItemId item) override { pools_.mark(item); }

  // noinline: the side-load loop is too big to fold into the engine loop
  // (inlining it measurably slows the hit path on miss-heavy traces).
  GC_NOINLINE void on_miss(ItemId item) override {
    const BlockId block = geom_.block_of(item);

    // 1. Bring in the requested item, marked.
    make_room_for_request();
    cache().load(item);
    pools_.add(item, /*mark=*/true);

    // 2. Side-load the rest of the block, unmarked. Free space is used
    //    first; after that, unmarked residents outside this block are
    //    replaced by block items (the Section 6.1 special case). Marked
    //    items are never displaced by side-loads, and we never start a new
    //    phase for one.
    std::size_t sideloaded = 0;
    for (const ItemId sibling : geom_.items_of(block)) {
      if (max_sideload_ != 0 && sideloaded >= max_sideload_) break;
      if (cache().contains(sibling)) continue;
      if (cache().full()) {
        if (pools_.num_unmarked() == 0) break;  // only marked items remain
        const ItemId victim = pools_.random_unmarked(rng_);
        // Unmarked residents from this very block are exactly the items we
        // just side-loaded; replacing them with other block items is churn
        // with no benefit, so stop instead.
        if (geom_.block_of(victim) == block) break;
        pools_.remove(victim);
        cache().evict(victim);
      }
      cache().load(sibling);
      pools_.add(sibling, /*mark=*/false);
      ++sideloaded;
    }
  }

  std::size_t num_marked() const { return pools_.num_marked(); }

 private:
  void make_room_for_request() {
    if (!cache().full()) return;
    if (pools_.num_unmarked() == 0) pools_.unmark_all();  // new phase
    const ItemId victim = pools_.random_unmarked(rng_);
    pools_.remove(victim);
    cache().evict(victim);
  }

  std::uint64_t seed_;
  std::size_t max_sideload_;
  SplitMix64 rng_;
  FlatBlockIndex geom_;
  detail::MarkPools pools_;
};

/// Ablation: classic marking that ignores granularity change entirely.
class MarkingItem final : public ReplacementPolicy {
 public:
  /// Loads only the requested item, never a sibling (see simulate_fast).
  // GCLINT-TRAIT-CHECKED-BY: CacheContents::record_requested_hit
  static constexpr bool kRequestedLoadsOnly = true;

  explicit MarkingItem(std::uint64_t seed = 1) : seed_(seed), rng_(seed) {}

  void attach(const BlockMap& map, CacheContents& cache) override;
  void reset() override;
  std::string name() const override { return "marking-item"; }

  void on_hit(ItemId item) override { pools_.mark(item); }

  void on_miss(ItemId item) override {
    if (cache().full()) {
      if (pools_.num_unmarked() == 0) pools_.unmark_all();
      const ItemId victim = pools_.random_unmarked(rng_);
      pools_.remove(victim);
      cache().evict(victim);
    }
    cache().load(item);
    pools_.add(item, /*mark=*/true);
  }

 private:
  std::uint64_t seed_;
  SplitMix64 rng_;
  detail::MarkPools pools_;
};

/// Ablation: marking that loads the whole block and marks every loaded item.
class MarkingBlockMark final : public ReplacementPolicy {
 public:
  explicit MarkingBlockMark(std::uint64_t seed = 1) : seed_(seed), rng_(seed) {}

  void attach(const BlockMap& map, CacheContents& cache) override;
  void reset() override;
  std::string name() const override { return "marking-blockmark"; }

  void on_hit(ItemId item) override { pools_.mark(item); }

  // noinline: see Gcm::on_miss.
  GC_NOINLINE void on_miss(ItemId item) override {
    const BlockId block = geom_.block_of(item);
    // Load the requested item first (so it is resident and protected from
    // the victim picker), then greedily mark-load the rest of the block.
    if (cache().full()) evict_one(item);
    cache().load(item);
    pools_.add(item, /*mark=*/true);
    for (const ItemId member : geom_.items_of(block)) {
      if (cache().contains(member)) {
        pools_.mark(member);
        continue;
      }
      if (cache().full()) evict_one(item);
      cache().load(member);
      pools_.add(member, /*mark=*/true);
    }
    GC_HOT_ENSURE(cache().contains(item), "requested item must be loaded");
  }

 private:
  void evict_one(ItemId keep) {
    // Pick a random unmarked victim, starting a new phase if none exist.
    // The requested item `keep` is never chosen (it could become unmarked
    // by a phase change happening mid-load).
    if (pools_.num_unmarked() == 0 ||
        (pools_.num_unmarked() == 1 && cache().contains(keep) &&
         !pools_.marked(keep) && pools_.resident(keep))) {
      pools_.unmark_all();
    }
    for (;;) {
      const ItemId victim = pools_.random_unmarked(rng_);
      if (victim == keep) continue;  // at least one other unmarked exists
      pools_.remove(victim);
      cache().evict(victim);
      return;
    }
  }

  std::uint64_t seed_;
  SplitMix64 rng_;
  FlatBlockIndex geom_;
  detail::MarkPools pools_;
};

}  // namespace gcaching
