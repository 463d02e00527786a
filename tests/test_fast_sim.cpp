// Differential test for the fast simulation engine.
//
// The devirtualized `simulate_fast_spec` must produce *bit-identical*
// SimStats to the step-wise verifying `Simulation` engine — for every
// factory policy spec, across seeds and capacities, on every counter
// including the spatial/temporal hit taxonomy and wasted-sideload
// accounting. This binary is built twice by tests/CMakeLists.txt: once
// against the normal libraries (all invariants enforced) and once against
// the GC_FAST_SIM configuration (hot-path checks compiled out), so both
// build modes are covered by the default tier-1 flow.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "policies/factory.hpp"
#include "traces/synthetic.hpp"
#include "util/contracts.hpp"

namespace gcaching {
namespace {

void expect_identical(const SimStats& verify, const SimStats& fast) {
  EXPECT_EQ(verify.accesses, fast.accesses);
  EXPECT_EQ(verify.hits, fast.hits);
  EXPECT_EQ(verify.misses, fast.misses);
  EXPECT_EQ(verify.temporal_hits, fast.temporal_hits);
  EXPECT_EQ(verify.spatial_hits, fast.spatial_hits);
  EXPECT_EQ(verify.items_loaded, fast.items_loaded);
  EXPECT_EQ(verify.sideloads, fast.sideloads);
  EXPECT_EQ(verify.evictions, fast.evictions);
  EXPECT_EQ(verify.wasted_sideloads, fast.wasted_sideloads);
}

/// Every bare factory name plus parameterized variants that exercise the
/// fast path's argument plumbing through the type switch.
std::vector<std::string> specs_under_test() {
  std::vector<std::string> specs = known_policy_names();
  specs.push_back("item-slru:p=0.25");
  specs.push_back("item-random:seed=7");
  specs.push_back("footprint:cold_block=0");
  specs.push_back("gcm:seed=5,sideload=3");
  specs.push_back("marking-item:seed=9");
  specs.push_back("athreshold:a=4");
  return specs;
}

class FastSimDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(FastSimDifferential, BitIdenticalStatsAcrossSeedsAndCapacities) {
  const std::string spec = GetParam();
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Workload w = traces::zipf_blocks(64, 8, 4000, 0.9, 4, seed);
    for (const std::size_t capacity : {std::size_t{16}, std::size_t{48}}) {
      SCOPED_TRACE(spec + " seed=" + std::to_string(seed) +
                   " capacity=" + std::to_string(capacity));
      const auto policy = make_policy(spec, capacity);
      const SimStats verify = simulate(w, *policy, capacity);
      const SimStats fast = simulate_fast_spec(spec, w, capacity);
      expect_identical(verify, fast);
    }
  }
}

std::string sanitize(const ::testing::TestParamInfo<std::string>& info) {
  std::string name;
  for (const char c : info.param)
    name += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllFactorySpecs, FastSimDifferential,
                         ::testing::ValuesIn(specs_under_test()), sanitize);

TEST(FastSim, PrecomputedBlockIdsMatchFallback) {
  Workload w = traces::zipf_blocks(32, 8, 2000, 0.8, 3, 4);
  const SimStats lazy = simulate_fast_spec("item-lru", w, 32);
  w.trace.precompute_block_ids(*w.map);
  ASSERT_TRUE(w.trace.has_block_ids(*w.map));
  const SimStats cached = simulate_fast_spec("item-lru", w, 32);
  expect_identical(lazy, cached);
}

TEST(FastSim, BlockIdCacheInvalidatedByMutation) {
  Workload w = traces::zipf_blocks(32, 8, 100, 0.8, 3, 4);
  w.trace.precompute_block_ids(*w.map);
  ASSERT_TRUE(w.trace.has_block_ids(*w.map));
  w.trace.push(0);
  EXPECT_FALSE(w.trace.has_block_ids(*w.map));
  // Recomputing covers the appended access again.
  w.trace.precompute_block_ids(*w.map);
  EXPECT_TRUE(w.trace.has_block_ids(*w.map));
  EXPECT_EQ(w.trace.block_ids().size(), w.trace.size());
}

TEST(FastSim, ExplicitSpanOverloadAgrees) {
  const Workload w = traces::zipf_blocks(32, 8, 2000, 0.8, 3, 5);
  const std::vector<BlockId> ids = compute_block_ids(*w.map, w.trace);
  const SimStats via_span = simulate_fast_spec(
      "iblp", *w.map, w.trace, std::span<const BlockId>(ids), 32);
  const SimStats via_workload = simulate_fast_spec("iblp", w, 32);
  expect_identical(via_span, via_workload);
}

/// Breaks the law the fast engine derives its miss count from (every miss
/// loads its requested item exactly once): each miss loads the requested
/// item, evicts it and loads it again.
class ReloadsRequested final : public ReplacementPolicy {
 public:
  void attach(const BlockMap& map, CacheContents& cache) override {
    set_attachment(map, cache);
  }
  void reset() override {}
  std::string name() const override { return "reloads-requested"; }
  void on_hit(ItemId /*item*/) override {}
  void on_miss(ItemId item) override {
    cache().load(item);
    cache().evict(item);
    cache().load(item);
  }
};

TEST(FastSim, MissWithTwoRequestedLoadsThrows) {
  if (!kHotChecksEnabled) GTEST_SKIP() << "hot checks compiled out";
  const Workload w = traces::zipf_blocks(8, 4, 50, 0.8, 2, 1);
  const std::size_t capacity = w.map->num_items();
  ReloadsRequested fast_policy;
  EXPECT_THROW(simulate_fast(*w.map, w.trace, fast_policy, capacity),
               ContractViolation);
  ReloadsRequested verify_policy;
  EXPECT_THROW(simulate(w, verify_policy, capacity), ContractViolation);
}

TEST(FastSim, RejectsUnknownSpec) {
  const Workload w = traces::zipf_blocks(8, 4, 50, 0.8, 2, 1);
  EXPECT_THROW(simulate_fast_spec("no-such-policy", w, 8), ContractViolation);
}

TEST(FastSim, RejectsMismatchedBlockIdSpan) {
  const Workload w = traces::zipf_blocks(8, 4, 50, 0.8, 2, 1);
  const std::vector<BlockId> ids(w.trace.size() - 1, 0);
  EXPECT_THROW(simulate_fast_spec("item-lru", *w.map, w.trace,
                                  std::span<const BlockId>(ids), 8),
               ContractViolation);
}

}  // namespace
}  // namespace gcaching
