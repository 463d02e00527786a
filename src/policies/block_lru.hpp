// Block Cache running LRU — the paper's coarse-granularity baseline.
//
// A Block Cache (Section 2) raises the cache's own granularity: it loads all
// items of the requested block on a miss and evicts whole blocks, LRU over
// blocks. It captures spatial locality maximally but suffers pollution when
// only a few items per block are used: Theorem 3 shows a competitive ratio
// of at least k/(k - B(h-1)) — unbounded unless k > B(h-1).
//
// Because loads and evictions are whole-block, an item is resident iff its
// block is resident.
#pragma once

#include <memory>
#include <string>

#include "core/policy.hpp"
#include "policies/lru_list.hpp"

namespace gcaching {

class BlockLru final : public ReplacementPolicy {
 public:
  BlockLru() = default;

  void attach(const BlockMap& map, CacheContents& cache) override;
  void on_hit(ItemId item) override;
  void on_miss(ItemId item) override;
  void reset() override;
  std::string name() const override { return "block-lru"; }

  /// Block recency order MRU->LRU (for tests).
  std::vector<BlockId> recency_order() const { return lru_->to_vector(); }

 private:
  std::unique_ptr<IndexedList> lru_;  // over block ids

  void evict_block(BlockId block);
};

}  // namespace gcaching
