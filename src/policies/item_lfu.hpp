// Item Cache running LFU with FIFO tie-breaking.
//
// Frequency-based eviction baseline. The victim order — smallest
// (frequency, insertion sequence) — is *lazily materialized*: residents
// are not kept sorted as frequencies change (the previous frequency-bucket
// implementation paid pointer surgery plus an O(bucket-size) backward scan
// per promotion), a hit is nothing but a counter increment, and the order
// is recovered at eviction time from two lazily repaired structures:
//
//   * `fifo_` — every load appends (tie, item). As long as an item's
//     frequency is still 1, its FIFO position *is* its victim rank: all
//     frequency-1 residents precede all others, tie-ordered. Eviction pops
//     from the front, discarding entries whose item was evicted or
//     reloaded (tie mismatch) and migrating entries whose item got
//     promoted (frequency > 1) into the heap.
//   * `heap_` — a 4-ary min-heap by (freq, tie) over migrated residents.
//     Keys are repaired in place at pop time: hits bump `state_of_` only,
//     so a root whose frequency lags is raised to the live value and
//     re-settled (an increase-key heap).
//
// Victim correctness (see docs/PERF.md "Policy rewrites"): the victim is
// min-(freq, tie) over residents, a pure function of per-item state that
// the lazy pop only *finds*, never alters. While any frequency-1 resident
// exists, the first valid FIFO entry is exactly the earliest one (loads
// hand out ties monotonically) and precedes every promoted resident. Once
// the FIFO is exhausted every resident is tracked in the heap, each entry
// tie-exact and frequency-understated at worst; a popped root whose
// frequency matches the live count is the true minimum, since every other
// entry's true pair is >= its heap key >= the root's key. Each repair
// strictly raises one key to its live frequency and frequencies are frozen
// during an eviction, so the loop terminates. The result is bit-identical
// to the eagerly sorted buckets on every trace.
//
// Frequencies persist while an item is resident and are forgotten on
// eviction ("in-cache LFU"), exactly matching the previous
// implementations' victim order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "util/contracts.hpp"

namespace gcaching {

class ItemLfu final : public ReplacementPolicy {
 public:
  /// Loads only the requested item, never a sibling (see simulate_fast).
  // GCLINT-TRAIT-CHECKED-BY: CacheContents::record_requested_hit
  static constexpr bool kRequestedLoadsOnly = true;

  ItemLfu() = default;

  void attach(const BlockMap& map, CacheContents& cache) override;
  void reset() override;
  std::string name() const override { return "item-lfu"; }

  // The per-access callbacks are defined here so `simulate_fast<ItemLfu>`
  // inlines them into its loop; an out-of-line call per access costs more
  // than the callback body itself.
  void on_hit(ItemId item) override {
    GC_HOT_CHECK(state_of_[item].freq != 0, "LFU hit on untracked item");
    ++state_of_[item].freq;
  }

  void on_miss(ItemId item) override {
    if (cache().full()) {
      const ItemId victim = pop_victim();
      state_of_[victim].freq = 0;
      cache().evict(victim);
    }
    cache().load(item);
    const std::uint64_t tie = next_tie_++;
    state_of_[item] = ItemState{1, tie};
    fifo_push(FifoEntry{tie, item});
  }

 private:
  /// Live per-item state; one 16-byte line-friendly record so eviction-time
  /// validation touches a single cache line per probe. freq == 0 encodes
  /// "not resident".
  struct ItemState {
    std::uint64_t freq = 0;
    std::uint64_t tie = 0;
  };

  /// Pending frequency-1 victim candidate, appended at load.
  struct FifoEntry {
    std::uint64_t tie = 0;
    ItemId item = kInvalidItem;
  };

  /// Migrated resident in the heap: `tie` is exact, `freq` may lag.
  struct Entry {
    std::uint64_t freq = 0;
    std::uint64_t tie = 0;
    ItemId item = kInvalidItem;
  };

  /// `a` comes *later* in victim order than `b`. The heap is a min-heap by
  /// victim order: every parent is earlier than its children, so the root
  /// is the earliest entry.
  static bool later(const Entry& a, const Entry& b) {
    if (a.freq != b.freq) return a.freq > b.freq;
    return a.tie > b.tie;
  }

  // Hand-rolled 4-ary heap rather than std::push_heap/pop_heap: eviction
  // pressure makes sift-downs the dominant policy cost on miss-bound
  // workloads, a 4-ary layout halves their depth (and keeps siblings in
  // one or two cache lines of 24-byte entries), and key repair can update
  // the root in place instead of a full pop + re-push round trip.
  static constexpr std::size_t kArity = 4;

  void sift_up(std::size_t i) {
    const Entry e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!later(heap_[parent], e)) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  void sift_down(std::size_t i) {
    const Entry e = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = std::min(first + kArity, n);
      for (std::size_t c = first + 1; c < last; ++c)
        if (later(heap_[best], heap_[c])) best = c;
      if (!later(e, heap_[best])) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = e;
  }

  /// Appends a load-order candidate; reclaims the dead prefix once it
  /// dominates the buffer, so the ring stays linear in residents.
  void fifo_push(FifoEntry e) {
    if (fifo_head_ > 1024 && fifo_head_ * 2 > fifo_.size()) {
      fifo_.erase(fifo_.begin(),
                  fifo_.begin() + static_cast<std::ptrdiff_t>(fifo_head_));
      fifo_head_ = 0;
    }
    fifo_.push_back(e);
  }

  ItemId pop_victim() {
    // Phase 1: the FIFO. Skip stale entries (item evicted, or reloaded
    // under a newer tie), migrate promoted items into the heap; the first
    // entry still at frequency 1 is the victim.
    while (fifo_head_ < fifo_.size()) {
      const FifoEntry e = fifo_[fifo_head_];
      const ItemState s = state_of_[e.item];
      if (s.freq == 0 || s.tie != e.tie) {
        ++fifo_head_;
        continue;
      }
      if (s.freq == 1) {
        ++fifo_head_;
        return e.item;
      }
      heap_.push_back(Entry{s.freq, e.tie, e.item});
      sift_up(heap_.size() - 1);
      ++fifo_head_;
    }
    // Phase 2: the heap, repairing lagged keys in place at the root.
    for (;;) {
      GC_HOT_CHECK(!heap_.empty(), "full cache but empty LFU order");
      Entry& top = heap_.front();
      const std::uint64_t live = state_of_[top.item].freq;
      if (live == top.freq) {
        const ItemId victim = top.item;
        top = heap_.back();
        heap_.pop_back();
        if (!heap_.empty()) sift_down(0);
        return victim;
      }
      top.freq = live;
      sift_down(0);
    }
  }

  std::vector<ItemState> state_of_;
  std::vector<FifoEntry> fifo_;  // frequency-1 candidates, tie-ordered
  std::size_t fifo_head_ = 0;
  std::vector<Entry> heap_;  // migrated (hit-promoted) residents
  std::uint64_t next_tie_ = 0;
};

}  // namespace gcaching
