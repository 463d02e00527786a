// Differential tests for the sweep engine.
//
// Three ways to evaluate a (workload, policy) row's capacity column must be
// bit-identical on every SimStats counter:
//   1. verifying  — a step-wise Simulation of make_policy per capacity,
//   2. per-cell   — simulate_fast_spec once per capacity,
//   3. column     — simulate_column_spec (item-lru / block-lru collapse into
//                   one stack-distance pass; every other spec runs
//                   per-cell).
// And run_sweep's fast and verifying engines must produce identical cells
// at any thread count. Like test_fast_sim, this binary is built twice:
// against the normal libraries and against the GC_FAST_SIM configuration.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/simulator.hpp"
#include "locality/stack_column.hpp"
#include "policies/factory.hpp"
#include "sim/runner.hpp"
#include "traces/synthetic.hpp"

namespace gcaching {
namespace {

void expect_identical(const SimStats& a, const SimStats& b) {
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.temporal_hits, b.temporal_hits);
  EXPECT_EQ(a.spatial_hits, b.spatial_hits);
  EXPECT_EQ(a.items_loaded, b.items_loaded);
  EXPECT_EQ(a.sideloads, b.sideloads);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.wasted_sideloads, b.wasted_sideloads);
}

/// Every bare factory name plus parameterized variants, mirroring
/// test_fast_sim so the column dispatcher's argument plumbing is covered.
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

// Deliberately unsorted: columns must not assume ascending capacities.
const std::vector<std::size_t> kCapacities = {48, 16, 96, 24, 64, 32};

class ColumnDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(ColumnDifferential, AllThreePathsBitIdentical) {
  const std::string spec = GetParam();
  for (const std::uint64_t seed : {1u, 2u}) {
    const Workload w = traces::zipf_blocks(64, 8, 4000, 0.9, 4, seed);
    const std::vector<BlockId> ids = compute_block_ids(*w.map, w.trace);
    const std::span<const BlockId> ids_span(ids);
    const std::vector<SimStats> column =
        simulate_column_spec(spec, *w.map, w.trace, ids_span, kCapacities);
    ASSERT_EQ(column.size(), kCapacities.size());
    for (std::size_t i = 0; i < kCapacities.size(); ++i) {
      SCOPED_TRACE(spec + " seed=" + std::to_string(seed) +
                   " capacity=" + std::to_string(kCapacities[i]));
      const SimStats cell = simulate_fast_spec(spec, *w.map, w.trace,
                                               ids_span, kCapacities[i]);
      const auto policy = make_policy(spec, kCapacities[i]);
      expect_identical(simulate(w, *policy, kCapacities[i]), cell);
      expect_identical(cell, column[i]);
    }
  }
}

std::string sanitize(const ::testing::TestParamInfo<std::string>& info) {
  std::string name;
  for (const char c : info.param)
    name += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllFactorySpecs, ColumnDifferential,
                         ::testing::ValuesIn(specs_under_test()), sanitize);

// The stack derivation's spatial-hit and wasted-sideload accounting is the
// subtle part; stress it on workload shapes with extreme spatial profiles.
TEST(StackColumn, MatchesPerCellAcrossWorkloadShapes) {
  const std::vector<Workload> workloads = {
      traces::sequential_scan(256, 8, 3000),
      traces::hot_item_per_block(32, 8, 3000, 8, 0.3, 3),
      traces::pointer_chase(32, 8, 3000, 0.7, 0.02, 5),
      traces::strided_scan(256, 8, 3000, 8),
  };
  for (const Workload& w : workloads) {
    const std::vector<BlockId> ids = compute_block_ids(*w.map, w.trace);
    for (const std::string spec : {"item-lru", "block-lru"}) {
      const std::vector<SimStats> column = simulate_column_spec(
          spec, *w.map, w.trace, std::span<const BlockId>(ids), kCapacities);
      for (std::size_t i = 0; i < kCapacities.size(); ++i) {
        SCOPED_TRACE(w.name + " " + spec +
                     " capacity=" + std::to_string(kCapacities[i]));
        expect_identical(
            simulate_fast_spec(spec, *w.map, w.trace,
                               std::span<const BlockId>(ids), kCapacities[i]),
            column[i]);
      }
    }
  }
}

// A non-uniform partition (last block smaller) is outside the block-lru
// stack derivation's model; the dispatcher must fall back to per-cell runs
// and still match them.
TEST(StackColumn, NonUniformPartitionFallsBackToPerCell) {
  Workload w;
  w.map = std::make_shared<UniformBlockMap>(60, 8);  // last block: 4 items
  ASSERT_FALSE(locality::block_column_supported(*w.map));
  std::vector<ItemId> accesses(2500);
  for (std::size_t i = 0; i < accesses.size(); ++i)
    accesses[i] = static_cast<ItemId>((i * 7 + i * i % 13) % 60);
  w.trace = Trace(std::move(accesses));
  w.name = "nonuniform";
  const std::vector<BlockId> ids = compute_block_ids(*w.map, w.trace);
  const std::vector<SimStats> column =
      simulate_column_spec("block-lru", *w.map, w.trace,
                           std::span<const BlockId>(ids), kCapacities);
  for (std::size_t i = 0; i < kCapacities.size(); ++i) {
    SCOPED_TRACE("capacity=" + std::to_string(kCapacities[i]));
    expect_identical(
        simulate_fast_spec("block-lru", *w.map, w.trace,
                           std::span<const BlockId>(ids), kCapacities[i]),
        column[i]);
  }
}

TEST(StackColumn, RejectsUnknownSpec) {
  const Workload w = traces::zipf_blocks(8, 4, 50, 0.8, 2, 1);
  const std::vector<BlockId> ids = compute_block_ids(*w.map, w.trace);
  const std::vector<std::size_t> caps = {8};
  EXPECT_THROW(simulate_column_spec("no-such-policy", *w.map, w.trace,
                                    std::span<const BlockId>(ids), caps),
               ContractViolation);
}

// run_sweep: the longest-first row schedule (rows start out of order and
// write back concurrently) must be invisible in the results — the fast and
// verifying engines produce identical cells in identical row-major order at
// every thread count.
TEST(SweepBatched, FastAndVerifyingIdenticalAcrossThreadCounts) {
  const std::vector<Workload> workloads = {
      traces::zipf_blocks(64, 8, 3000, 0.9, 4, 1),
      traces::hot_item_per_block(32, 8, 2000, 8, 0.25, 2),
  };
  sim::SweepSpec spec;
  spec.workloads = &workloads;
  spec.policy_specs = {"item-lfu", "item-lru", "block-lru", "iblp",
                       "gcm:seed=5,sideload=3"};
  spec.capacities = {16, 32, 64};

  spec.threads = 1;
  spec.use_fast_path = false;
  const auto baseline = sim::run_sweep(spec);
  ASSERT_EQ(baseline.size(), workloads.size() * spec.policy_specs.size() *
                                 spec.capacities.size());

  const std::size_t hw = std::thread::hardware_concurrency();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, hw}) {
    for (const bool fast : {true, false}) {
      spec.threads = threads;
      spec.use_fast_path = fast;
      const auto cells = sim::run_sweep(spec);
      ASSERT_EQ(cells.size(), baseline.size());
      for (std::size_t i = 0; i < baseline.size(); ++i) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " fast=" + std::to_string(fast) +
                     " cell=" + std::to_string(i));
        EXPECT_EQ(baseline[i].workload_index, cells[i].workload_index);
        EXPECT_EQ(baseline[i].policy_index, cells[i].policy_index);
        EXPECT_EQ(baseline[i].capacity, cells[i].capacity);
        expect_identical(baseline[i].stats, cells[i].stats);
      }
    }
  }
}

TEST(SweepBatched, CostModelIsPositiveAndScalesWithLength) {
  for (const std::string& spec : specs_under_test()) {
    const double one = estimated_sim_cost(spec, 1000);
    EXPECT_GT(one, 0.0) << spec;
    EXPECT_DOUBLE_EQ(estimated_sim_cost(spec, 3000), 3.0 * one) << spec;
  }
  // Unknown names get a finite fallback, never a throw: scheduling is
  // best-effort.
  EXPECT_GT(estimated_sim_cost("someday-policy", 1000), 0.0);
}

}  // namespace
}  // namespace gcaching
