// SHARDS-style spatial sampling (locality/sample.hpp).
//
// The load-bearing guarantees, in order:
//   1. rate == 1.0 (and a fixed-size budget that never evicts) is BIT-
//      IDENTICAL to the exact engines, end to end through run_sweep, at any
//      thread count — sampling must never perturb an exact run.
//   2. The sample is block-consistent: an item access survives iff its
//      whole block does, so item- and block-granularity policies see a
//      coherent sub-universe.
//   3. Fixed-size eviction-and-rescale is equivalent to fixed-rate at the
//      final threshold — the one-pass adaptive filter ends exactly where a
//      two-pass filter would.
//   4. Seeded error bound: at rate 0.01 the estimated miss ratios stay
//      within 0.02 of exact on a zipf workload (deterministic given the
//      seed; this is the acceptance target of docs/PERF.md's sampling
//      section).
// Like test_fast_sim, this binary is built a second time against the
// GC_FAST_SIM library copy (test_sample_nochecks), so both contract
// configurations cover the rate-1.0 identity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/simulator.hpp"
#include "locality/sample.hpp"
#include "policies/factory.hpp"
#include "sim/runner.hpp"
#include "traces/synthetic.hpp"

namespace gcaching {
namespace {

using locality::BlockFilter;
using locality::SampleConfig;
using locality::SampledTrace;

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

// ---- filter basics --------------------------------------------------------

TEST(SampleFilter, RateOneKeepsEverything) {
  const Workload w = traces::zipf_blocks(64, 8, 3000, 0.9, 4, 1);
  SampleConfig cfg;
  cfg.rate = 1.0;
  const SampledTrace s = locality::sample_workload(w, cfg);
  EXPECT_EQ(s.accesses, w.trace.accesses());
  EXPECT_EQ(s.total_accesses, w.trace.size());
  EXPECT_TRUE(s.filter.all);
  EXPECT_DOUBLE_EQ(s.rate(), 1.0);
  EXPECT_EQ(s.sampled_blocks, w.distinct_blocks());
}

TEST(SampleFilter, FilterRateMatchesThreshold) {
  const BlockFilter half = locality::make_filter(0.5, 3);
  EXPECT_FALSE(half.all);
  EXPECT_NEAR(half.rate(), 0.5, 1e-12);
  const BlockFilter all = locality::make_filter(1.0, 3);
  EXPECT_TRUE(all.all);
  EXPECT_DOUBLE_EQ(all.rate(), 1.0);
}

TEST(SampleFilter, DistinctSeedsGiveDifferentSamples) {
  const Workload w = traces::zipf_blocks(256, 8, 4000, 0.9, 4, 1);
  SampleConfig a, b;
  a.rate = b.rate = 0.3;
  a.seed = 1;
  b.seed = 2;
  const SampledTrace sa = locality::sample_workload(w, a);
  const SampledTrace sb = locality::sample_workload(w, b);
  EXPECT_NE(sa.accesses, sb.accesses);
}

// Block consistency: for every block of the original trace, either all of
// its accesses survive or none do, and survival agrees with the filter
// predicate. This is what lets block-granularity policies run on a sample.
TEST(SampleFilter, SampleIsBlockConsistent) {
  const Workload w = traces::zipf_items(4096, 16, 20000, 0.9, 7);
  SampleConfig cfg;
  cfg.rate = 0.3;
  cfg.seed = 11;
  const SampledTrace s = locality::sample_workload(w, cfg);
  ASSERT_GT(s.accesses.size(), 0u);
  ASSERT_LT(s.accesses.size(), w.trace.size());
  ASSERT_EQ(s.block_ids.size(), s.accesses.size());

  std::unordered_set<BlockId> kept;
  for (std::size_t i = 0; i < s.accesses.size(); ++i) {
    const BlockId b = w.map->block_of(s.accesses[i]);
    EXPECT_EQ(s.block_ids[i], b);
    EXPECT_TRUE(s.filter.accepts(b));
    kept.insert(b);
  }
  EXPECT_EQ(kept.size(), s.sampled_blocks);
  // Every original access whose block the filter accepts must be present —
  // count them and compare (order is preserved by the one-pass filter).
  std::size_t expected = 0;
  for (const ItemId item : w.trace)
    if (s.filter.accepts(w.map->block_of(item))) ++expected;
  EXPECT_EQ(s.accesses.size(), expected);
}

// The uniform streaming overload must agree exactly with the precomputed
// block-id path on a uniform partition.
TEST(SampleFilter, UniformOverloadMatchesGeneralPath) {
  const Workload w = traces::zipf_items(4096, 16, 20000, 0.9, 3);
  SampleConfig cfg;
  cfg.rate = 0.2;
  cfg.seed = 5;
  const SampledTrace general = locality::sample_workload(w, cfg);
  const SampledTrace uniform = locality::sample_trace_uniform(
      w.trace.accesses(), w.map->max_block_size(), cfg);
  EXPECT_EQ(general.accesses, uniform.accesses);
  EXPECT_EQ(general.block_ids, uniform.block_ids);
  EXPECT_EQ(general.filter.threshold, uniform.filter.threshold);
}

// ---- fixed-size (adaptive) mode -------------------------------------------

TEST(SampleFixedSize, GenerousBudgetNeverEvicts) {
  const Workload w = traces::zipf_blocks(128, 8, 5000, 0.9, 4, 1);
  SampleConfig cfg;
  cfg.max_blocks = 1u << 30;  // far above the distinct-block count
  const SampledTrace s = locality::sample_workload(w, cfg);
  EXPECT_TRUE(s.filter.all);
  EXPECT_DOUBLE_EQ(s.rate(), 1.0);
  EXPECT_EQ(s.accesses, w.trace.accesses());
}

// Eviction-and-rescale equivalence: the one-pass adaptive sample must be
// exactly the fixed-threshold filter of the original trace at the FINAL
// threshold — no stragglers from looser early thresholds may survive.
TEST(SampleFixedSize, EquivalentToFixedRateAtFinalThreshold) {
  const Workload w = traces::zipf_items(8192, 16, 30000, 0.9, 9);
  SampleConfig cfg;
  cfg.max_blocks = 40;
  cfg.seed = 13;
  const SampledTrace s = locality::sample_workload(w, cfg);
  ASSERT_FALSE(s.filter.all);
  EXPECT_LE(s.sampled_blocks, cfg.max_blocks);

  const std::vector<BlockId> ids = compute_block_ids(*w.map, w.trace);
  const FilteredTrace refiltered = filter_trace(
      w.trace.accesses(), ids,
      [&](BlockId b) { return s.filter.accepts(b); });
  EXPECT_EQ(s.accesses, refiltered.accesses);
  EXPECT_EQ(s.block_ids, refiltered.block_ids);
}

// ---- capacity scaling & counter rescale -----------------------------------

TEST(SampleScaling, ScaledCapacityClampsToFloorAndOriginal) {
  EXPECT_EQ(locality::scaled_capacity(1000, 1.0, 16), 1000u);
  EXPECT_EQ(locality::scaled_capacity(1000, 0.1, 16), 100u);
  EXPECT_EQ(locality::scaled_capacity(1000, 0.001, 16), 16u);  // floor
  EXPECT_EQ(locality::scaled_capacity(8, 0.001, 16), 8u);  // never inflate
  EXPECT_GE(locality::scaled_capacity(3, 0.001, 0), 1u);  // never zero
}

TEST(SampleScaling, UnsampleIsIdentityOnFullRuns) {
  SimStats s;
  s.accesses = 1000;
  s.hits = 700;
  s.misses = 300;
  s.temporal_hits = 500;
  s.spatial_hits = 200;
  s.items_loaded = 900;
  s.sideloads = 600;
  s.evictions = 100;
  s.wasted_sideloads = 50;
  expect_identical(locality::unsample_stats(s, 1000), s);
}

TEST(SampleScaling, UnsampleRescalesAndKeepsIdentities) {
  SimStats s;
  s.accesses = 100;
  s.hits = 63;
  s.misses = 37;
  s.temporal_hits = 40;
  s.spatial_hits = 23;
  s.items_loaded = 90;
  s.sideloads = 60;
  s.evictions = 10;
  s.wasted_sideloads = 5;
  const SimStats out = locality::unsample_stats(s, 1000);
  EXPECT_EQ(out.accesses, 1000u);
  EXPECT_EQ(out.misses, 370u);
  EXPECT_EQ(out.hits + out.misses, out.accesses);
  EXPECT_EQ(out.temporal_hits + out.spatial_hits, out.hits);
  EXPECT_LE(out.wasted_sideloads, out.sideloads);
}

// ---- rate-1.0 bit-identity through the whole stack ------------------------

// Deliberately unsorted, mirroring test_sweep_batched: sampling must not
// introduce an ordering assumption.
const std::vector<std::size_t> kCapacities = {48, 16, 96, 24, 64, 32};
const std::vector<std::string> kSpecs = {"item-lru", "block-lru", "iblp"};

std::vector<SimStats> sweep_stats(const sim::SweepSpec& spec) {
  std::vector<SimStats> out;
  for (const sim::SweepCell& cell : sim::run_sweep(spec)) {
    EXPECT_EQ(cell.capacity,
              kCapacities[out.size() % kCapacities.size()]);
    out.push_back(cell.stats);
  }
  return out;
}

// run_sweep at rate 1.0 — explicitly requested but a no-op — and with a
// never-evicting fixed-size budget — which DOES exercise the full sampling
// machinery (filter pass, adopted block ids, capacity scaling, counter
// rescale) — must both be bit-identical to the exact sweep, for stack and
// non-stack policies, at 1, 2, and hardware threads.
TEST(SampleSweepIdentity, RateOneBitIdenticalAllThreadCounts) {
  // B = 8 throughout: the smallest capacity (16) must satisfy IBLP's
  // block-layer >= B requirement at its default half/half split.
  const std::vector<Workload> workloads = {
      traces::zipf_items(2048, 8, 12000, 0.9, 1),
      traces::zipf_blocks(128, 8, 8000, 0.8, 4, 2)};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{0}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    sim::SweepSpec exact;
    exact.workloads = &workloads;
    exact.policy_specs = kSpecs;
    exact.capacities = kCapacities;
    exact.threads = threads;
    const std::vector<SimStats> base = sweep_stats(exact);

    sim::SweepSpec rate_one = exact;
    rate_one.sample_rate = 1.0;  // explicit no-op
    const std::vector<SimStats> same = sweep_stats(rate_one);

    sim::SweepSpec sampled = exact;
    sampled.sample_blocks = 1u << 30;  // active sampler, zero evictions
    const std::vector<SimStats> via_sampler = sweep_stats(sampled);

    ASSERT_EQ(base.size(), same.size());
    ASSERT_EQ(base.size(), via_sampler.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      SCOPED_TRACE("cell " + std::to_string(i));
      expect_identical(base[i], same[i]);
      expect_identical(base[i], via_sampler[i]);
    }
  }
}

// The verifying engine (use_fast_path = false) runs the same sampled-
// workload machinery; the identity must hold there too.
TEST(SampleSweepIdentity, RateOneBitIdenticalVerifyingEngine) {
  const std::vector<Workload> workloads = {
      traces::zipf_blocks(64, 8, 4000, 0.9, 4, 3)};
  sim::SweepSpec exact;
  exact.workloads = &workloads;
  exact.policy_specs = kSpecs;
  exact.capacities = kCapacities;
  exact.use_fast_path = false;
  exact.threads = 2;
  const std::vector<SimStats> base = sweep_stats(exact);
  sim::SweepSpec sampled = exact;
  sampled.sample_blocks = 1u << 30;
  const std::vector<SimStats> via_sampler = sweep_stats(sampled);
  ASSERT_EQ(base.size(), via_sampler.size());
  for (std::size_t i = 0; i < base.size(); ++i)
    expect_identical(base[i], via_sampler[i]);
}

// Presampled provenance with rate 1.0 and a full-length total must also be
// an exact identity (this is the gcsim streaming path's no-op case).
TEST(SampleSweepIdentity, PresampledFullRateIsIdentity) {
  const std::vector<Workload> workloads = {
      traces::zipf_blocks(64, 8, 4000, 0.9, 4, 5)};
  sim::SweepSpec exact;
  exact.workloads = &workloads;
  exact.policy_specs = kSpecs;
  exact.capacities = kCapacities;
  const std::vector<SimStats> base = sweep_stats(exact);
  sim::SweepSpec pre = exact;
  pre.presampled = {{1.0, workloads[0].trace.size()}};
  const std::vector<SimStats> same = sweep_stats(pre);
  ASSERT_EQ(base.size(), same.size());
  for (std::size_t i = 0; i < base.size(); ++i)
    expect_identical(base[i], same[i]);
}

// ---- seeded error bound at rate 0.01 --------------------------------------

// The acceptance target: on a mid-size zipf workload, miss ratios estimated
// from a 1% block sample stay within 0.02 absolute of exact, for both the
// item- and block-granularity stack policies. Deterministic: the sampler
// hash is seeded, so this pins concrete numbers rather than a distribution.
TEST(SampleErrorBound, RatePercentWithinTwoPercentMissRatio) {
  // zipf_scramble, not zipf_items: spatial sampling is a per-BLOCK coin
  // flip, so its error scales with the access share of the heaviest blocks,
  // and rank-ordered ids pack the zipf head into block 0 (~11% of all
  // accesses at theta 0.9) — fundamentally outside the estimator's regime
  // at a 1% rate. Scrambled ids spread the head uniformly; theta = 0.5
  // keeps the heaviest single block well under the rate. The bound holds
  // across sampler seeds (~2x margin at this one), not just a lucky draw —
  // see docs/PERF.md for the regime discussion.
  const std::vector<Workload> workloads = {
      traces::zipf_scramble(1u << 20, 16, 2000000, 0.5, 17)};
  sim::SweepSpec spec;
  spec.workloads = &workloads;
  spec.policy_specs = {"item-lru", "block-lru", "iblp"};
  spec.capacities = {8192, 32768, 131072, 524288};
  const std::vector<sim::SweepCell> exact = sim::run_sweep(spec);

  sim::SweepSpec sampled_spec = spec;
  sampled_spec.sample_rate = 0.01;
  sampled_spec.sample_seed = 42;
  const std::vector<sim::SweepCell> sampled = sim::run_sweep(sampled_spec);

  ASSERT_EQ(exact.size(), sampled.size());
  double max_err = 0.0;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ(sampled[i].capacity, exact[i].capacity);
    EXPECT_EQ(sampled[i].stats.accesses, exact[i].stats.accesses);
    const double err = std::abs(sampled[i].stats.miss_rate() -
                                exact[i].stats.miss_rate());
    EXPECT_LE(err, 0.02) << spec.policy_specs[exact[i].policy_index]
                         << " capacity " << exact[i].capacity;
    max_err = std::max(max_err, err);
  }
  // The sample must actually be a sample, not a fluke full pass.
  EXPECT_GT(max_err, 0.0);
}

}  // namespace
}  // namespace gcaching
