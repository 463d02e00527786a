// Unit tests for the Item Cache family: LRU, FIFO, LFU, CLOCK, Random, SLRU.
#include <gtest/gtest.h>

#include <set>
#include <unordered_set>
#include <utility>

#include "core/simulator.hpp"
#include "policies/item_clock.hpp"
#include "policies/item_fifo.hpp"
#include "policies/item_lfu.hpp"
#include "policies/item_lru.hpp"
#include "policies/item_random.hpp"
#include "policies/item_slru.hpp"
#include "policies/lru_list.hpp"
#include "traces/synthetic.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace gcaching {
namespace {

// IndexedList misuse checks are hot-tier (GC_HOT_REQUIRE) and compiled out
// of the GC_FAST_SIM configuration; skip the throw tests there.
#define SKIP_WITHOUT_HOT_CHECKS() \
  if (!kHotChecksEnabled) GTEST_SKIP() << "hot checks compiled out"

// ---------------------------------------------------------------------------
// IndexedList
// ---------------------------------------------------------------------------

TEST(IndexedList, PushFrontAndOrder) {
  IndexedList l(8);
  l.push_front(3);
  l.push_front(5);
  l.push_front(1);
  EXPECT_EQ(l.size(), 3u);
  EXPECT_EQ(l.front(), 1u);
  EXPECT_EQ(l.back(), 3u);
  const auto v = l.to_vector();
  EXPECT_EQ(v, (std::vector<std::uint32_t>{1, 5, 3}));
}

TEST(IndexedList, MoveToFront) {
  IndexedList l(8);
  l.push_front(0);
  l.push_front(1);
  l.push_front(2);
  l.move_to_front(0);
  EXPECT_EQ(l.to_vector(), (std::vector<std::uint32_t>{0, 2, 1}));
}

TEST(IndexedList, RemoveMiddle) {
  IndexedList l(8);
  l.push_front(0);
  l.push_front(1);
  l.push_front(2);
  l.remove(1);
  EXPECT_EQ(l.to_vector(), (std::vector<std::uint32_t>{2, 0}));
  EXPECT_FALSE(l.contains(1));
}

TEST(IndexedList, PopBack) {
  IndexedList l(4);
  l.push_front(0);
  l.push_front(1);
  EXPECT_EQ(l.pop_back(), 0u);
  EXPECT_EQ(l.size(), 1u);
}

TEST(IndexedList, ReplaceBackMatchesPopBackThenPushFront) {
  IndexedList l(8);
  IndexedList ref(8);
  for (const std::uint32_t id : {0u, 1u, 2u}) {
    l.push_front(id);
    ref.push_front(id);
  }
  EXPECT_EQ(l.replace_back(5), 0u);  // LRU leaves, 5 becomes MRU
  EXPECT_EQ(ref.pop_back(), 0u);
  ref.push_front(5);
  EXPECT_EQ(l.to_vector(), (std::vector<std::uint32_t>{5, 2, 1}));
  EXPECT_EQ(l.to_vector(), ref.to_vector());
  EXPECT_EQ(l.size(), 3u);
  EXPECT_FALSE(l.contains(0));
  EXPECT_TRUE(l.contains(5));
  // The replaced id can come back.
  EXPECT_EQ(l.replace_back(0), 1u);
  EXPECT_EQ(l.to_vector(), (std::vector<std::uint32_t>{0, 5, 2}));
  EXPECT_EQ(l.size(), 3u);
}

TEST(IndexedList, ReplaceBackOfASingleton) {
  IndexedList l(4);
  l.push_front(3);
  EXPECT_EQ(l.replace_back(1), 3u);
  EXPECT_EQ(l.to_vector(), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(l.front(), 1u);
  EXPECT_EQ(l.back(), 1u);
  EXPECT_EQ(l.size(), 1u);
}

TEST(IndexedList, ReplaceBackWithAMemberThrows) {
  SKIP_WITHOUT_HOT_CHECKS();
  IndexedList l(4);
  l.push_front(1);
  l.push_front(2);
  EXPECT_THROW(l.replace_back(2), ContractViolation);
}

TEST(IndexedList, PushBack) {
  IndexedList l(4);
  l.push_front(1);
  l.push_back(2);
  EXPECT_EQ(l.back(), 2u);
}

TEST(IndexedList, DoubleInsertThrows) {
  SKIP_WITHOUT_HOT_CHECKS();
  IndexedList l(4);
  l.push_front(1);
  EXPECT_THROW(l.push_front(1), ContractViolation);
}

TEST(IndexedList, RemoveAbsentThrows) {
  SKIP_WITHOUT_HOT_CHECKS();
  IndexedList l(4);
  EXPECT_THROW(l.remove(2), ContractViolation);
}

TEST(IndexedList, EmptyBackThrows) {
  SKIP_WITHOUT_HOT_CHECKS();
  IndexedList l(4);
  EXPECT_THROW(l.back(), ContractViolation);
}

TEST(IndexedList, ForEachFromLruStopsEarly) {
  IndexedList l(8);
  l.push_front(0);
  l.push_front(1);
  l.push_front(2);
  std::vector<std::uint32_t> seen;
  l.for_each_from_lru([&](std::uint32_t id) {
    seen.push_back(id);
    return seen.size() < 2;
  });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{0, 1}));
}

TEST(IndexedList, ClearResets) {
  IndexedList l(4);
  l.push_front(0);
  l.clear();
  EXPECT_TRUE(l.empty());
  EXPECT_NO_THROW(l.push_front(0));
}

// ---------------------------------------------------------------------------
// LRU semantics
// ---------------------------------------------------------------------------

TEST(ItemLru, EvictsLeastRecentlyUsed) {
  auto map = make_singleton_blocks(8);
  ItemLru lru;
  // capacity 2: after 0,1 the LRU is 0; accessing 2 evicts 0.
  const SimStats s = simulate(*map, Trace({0, 1, 2, 0}), lru, 2);
  EXPECT_EQ(s.misses, 4u);  // 0,1,2 cold; 0 evicted then re-missed
}

TEST(ItemLru, HitRefreshesRecency) {
  auto map = make_singleton_blocks(8);
  ItemLru lru;
  // 0,1, hit 0, then 2 should evict 1 (not 0); final 0 hits.
  const SimStats s = simulate(*map, Trace({0, 1, 0, 2, 0}), lru, 2);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.hits, 2u);
}

TEST(ItemLru, NeverLoadsSiblings) {
  auto map = make_uniform_blocks(8, 4);
  ItemLru lru;
  const SimStats s = simulate(*map, Trace({0, 1, 2, 3}), lru, 8);
  EXPECT_EQ(s.misses, 4u);  // spatial locality ignored: all cold misses
  EXPECT_EQ(s.sideloads, 0u);
  EXPECT_EQ(s.spatial_hits, 0u);
}

// Reference LRU (naive vector-based) for cross-checking on random traces.
std::uint64_t reference_lru_misses(const Trace& trace, std::size_t k) {
  std::vector<ItemId> stack;  // front = MRU
  std::uint64_t misses = 0;
  for (ItemId it : trace) {
    auto pos = std::find(stack.begin(), stack.end(), it);
    if (pos != stack.end()) {
      stack.erase(pos);
    } else {
      ++misses;
      if (stack.size() == k) stack.pop_back();
    }
    stack.insert(stack.begin(), it);
  }
  return misses;
}

TEST(ItemLru, MatchesReferenceOnRandomTraces) {
  SplitMix64 rng(99);
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = 16;
    Trace t;
    for (int p = 0; p < 300; ++p)
      t.push(static_cast<ItemId>(rng.below(n)));
    const std::size_t k = 2 + rng.below(6);
    auto map = make_singleton_blocks(n);
    ItemLru lru;
    EXPECT_EQ(simulate(*map, t, lru, k).misses,
              reference_lru_misses(t, k))
        << "round " << round << " k=" << k;
  }
}

// ---------------------------------------------------------------------------
// FIFO
// ---------------------------------------------------------------------------

TEST(ItemFifo, IgnoresHitsWhenEvicting) {
  auto map = make_singleton_blocks(8);
  ItemFifo fifo;
  // 0,1, hit 0 (no refresh), 2 evicts 0 under FIFO; final 0 misses.
  const SimStats s = simulate(*map, Trace({0, 1, 0, 2, 0}), fifo, 2);
  EXPECT_EQ(s.misses, 4u);
}

TEST(ItemFifo, EvictsInInsertionOrder) {
  auto map = make_singleton_blocks(8);
  ItemFifo fifo;
  const SimStats s = simulate(*map, Trace({0, 1, 2, 1}), fifo, 2);
  // 2 evicts 0; 1 still resident -> hit.
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.hits, 1u);
}

// ---------------------------------------------------------------------------
// LFU
// ---------------------------------------------------------------------------

TEST(ItemLfu, EvictsLeastFrequent) {
  auto map = make_singleton_blocks(8);
  ItemLfu lfu;
  // 0 accessed 3x, 1 once; 2 should evict 1.
  const SimStats s = simulate(*map, Trace({0, 0, 0, 1, 2, 0}), lfu, 2);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.hits, 3u);
}

TEST(ItemLfu, TieBreaksFifo) {
  auto map = make_singleton_blocks(8);
  ItemLfu lfu;
  // 0 and 1 both freq 1; 2 evicts the older (0).
  const SimStats s = simulate(*map, Trace({0, 1, 2, 1}), lfu, 2);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.hits, 1u);
}

TEST(ItemLfu, FrequencyForgottenOnEviction) {
  auto map = make_singleton_blocks(8);
  ItemLfu lfu;
  // 0 builds freq 3, gets evicted (cap 1), comes back with freq 1.
  const SimStats s = simulate(*map, Trace({0, 0, 0, 1, 0, 1}), lfu, 1);
  EXPECT_EQ(s.misses, 4u);
}

TEST(ItemLfu, PromotionOrderPreservedWithinBucket) {
  auto map = make_singleton_blocks(8);
  ItemLfu lfu;
  // 1 is promoted to freq 2 BEFORE 0 is, so 0 enters the freq-2 bucket
  // second despite its older insertion tie. The bucket must keep tie
  // order: 2's miss victimizes 0 (tie 0), not 1 — a naive
  // arrival-order append would evict 1 and turn the final access into a
  // fourth miss.
  const SimStats s = simulate(*map, Trace({0, 1, 1, 0, 2, 1}), lfu, 2);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.hits, 3u);
}

// Differential check of the bucket-list LFU against a transparent ordered-
// set reference (the previous implementation's exact victim rule: smallest
// (frequency, insertion-sequence) first) on random traces. Pins the victim
// ORDER, which self-consistency between the two engines cannot.
TEST(ItemLfu, MatchesOrderedSetReferenceOnRandomTraces) {
  class SetLfu final : public ReplacementPolicy {
   public:
    void attach(const BlockMap& map, CacheContents& cache) override {
      set_attachment(map, cache);
      order_.clear();
      key_of_.assign(map.num_items(), {});
      resident_.assign(map.num_items(), false);
      next_tie_ = 0;
    }
    void on_hit(ItemId item) override {
      auto k = key_of_[item];
      order_.erase(k);
      ++k.first;
      key_of_[item] = k;
      order_.insert(k);
    }
    void on_miss(ItemId item) override {
      if (cache().full()) {
        const auto victim = *order_.begin();
        order_.erase(order_.begin());
        resident_[victim.second.second] = false;
        cache().evict(victim.second.second);
      }
      cache().load(item);
      const std::pair<std::uint64_t, std::pair<std::uint64_t, ItemId>> k{
          1, {next_tie_++, item}};
      key_of_[item] = k;
      resident_[item] = true;
      order_.insert(k);
    }
    void reset() override {}
    std::string name() const override { return "set-lfu"; }

   private:
    std::set<std::pair<std::uint64_t, std::pair<std::uint64_t, ItemId>>>
        order_;
    std::vector<std::pair<std::uint64_t, std::pair<std::uint64_t, ItemId>>>
        key_of_;
    std::vector<bool> resident_;
    std::uint64_t next_tie_ = 0;
  };

  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const Workload w = traces::zipf_blocks(16, 4, 3000, 0.8, 2, seed);
    for (const std::size_t capacity : {std::size_t{5}, std::size_t{17}}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " capacity=" + std::to_string(capacity));
      ItemLfu fast;
      SetLfu reference;
      const SimStats a = simulate(*w.map, w.trace, fast, capacity);
      const SimStats b = simulate(*w.map, w.trace, reference, capacity);
      EXPECT_EQ(a.misses, b.misses);
      EXPECT_EQ(a.hits, b.hits);
      EXPECT_EQ(a.evictions, b.evictions);
    }
  }
}

// ---------------------------------------------------------------------------
// CLOCK
// ---------------------------------------------------------------------------

TEST(ItemClock, BehavesAsSecondChance) {
  auto map = make_singleton_blocks(8);
  ItemClock clock;
  // Fill 0,1; hit 0 sets its ref bit; 2 should skip 0 and evict 1.
  const SimStats s = simulate(*map, Trace({0, 1, 0, 2, 0}), clock, 2);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.hits, 2u);
}

TEST(ItemClock, SweepTerminates) {
  auto map = make_singleton_blocks(64);
  ItemClock clock;
  Trace t;
  for (int rep = 0; rep < 3; ++rep)
    for (ItemId it = 0; it < 64; ++it) t.push(it);
  EXPECT_NO_THROW(simulate(*map, t, clock, 8));
}

// ---------------------------------------------------------------------------
// Random
// ---------------------------------------------------------------------------

TEST(ItemRandom, DeterministicGivenSeed) {
  auto map = make_singleton_blocks(32);
  const auto w = traces::zipf_items(32, 1, 2000, 0.8, 7);
  ItemRandom a(5), b(5);
  EXPECT_EQ(simulate(*map, w.trace, a, 8).misses,
            simulate(*map, w.trace, b, 8).misses);
}

TEST(ItemRandom, SeedChangesBehavior) {
  auto map = make_singleton_blocks(32);
  const auto w = traces::zipf_items(32, 1, 4000, 0.5, 7);
  ItemRandom a(1), b(2);
  // Not strictly guaranteed to differ, but overwhelmingly likely.
  EXPECT_NE(simulate(*map, w.trace, a, 8).misses,
            simulate(*map, w.trace, b, 8).misses);
}

TEST(ItemRandom, OnlyEvictsWhenFull) {
  auto map = make_singleton_blocks(8);
  ItemRandom r(3);
  const SimStats s = simulate(*map, Trace({0, 1, 2}), r, 4);
  EXPECT_EQ(s.evictions, 0u);
}

// ---------------------------------------------------------------------------
// SLRU
// ---------------------------------------------------------------------------

TEST(ItemSlru, PromotionProtectsHotItems) {
  auto map = make_singleton_blocks(16);
  ItemSlru slru(0.5);
  // Capacity 4 (2 protected). 0 promoted by a hit; scan 1..4 must not
  // evict 0 because it sits in the protected segment.
  const SimStats s =
      simulate(*map, Trace({0, 0, 1, 2, 3, 4, 0}), slru, 4);
  EXPECT_EQ(s.hits, 2u);  // the second 0 and the final 0
}

TEST(ItemSlru, ZeroProtectedFractionIsPlainLru) {
  auto map = make_singleton_blocks(16);
  const auto w = traces::zipf_items(16, 1, 3000, 0.7, 3);
  ItemSlru slru(0.0);
  ItemLru lru;
  EXPECT_EQ(simulate(*map, w.trace, slru, 6).misses,
            simulate(*map, w.trace, lru, 6).misses);
}

TEST(ItemSlru, InvalidFractionThrows) {
  EXPECT_THROW(ItemSlru(1.0), ContractViolation);
  EXPECT_THROW(ItemSlru(-0.1), ContractViolation);
}

TEST(ItemSlru, NameIncludesFraction) {
  ItemSlru slru(0.25);
  EXPECT_NE(slru.name().find("0.25"), std::string::npos);
}

}  // namespace
}  // namespace gcaching
