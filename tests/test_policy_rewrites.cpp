// Differential tests for the data-oriented policy rewrites.
//
// The PERF.md "policy rewrites" pass replaced the interior of the slowest
// policies (item-lfu's lazily-ordered bucket, the FlatBlockIndex-based
// footprint/athreshold/gcm/marking family). None of that may change a
// single counter: this suite replays the rewritten policies through the
// verifying `Simulation` engine and the devirtualized `simulate_fast_spec`
// on workloads chosen to stress exactly the rewritten paths --
//
//   * zipf          -- run lengths near 1;
//   * zipf-scramble -- hot items in random blocks, cold block geometry;
//   * adv-item / adv-block -- captured Theorem 2/3 adversarial traces with
//     long same-block stretches, stepped one access at a time;
//
// each at three capacities spanning tight to roomy. Built twice (see
// tests/CMakeLists.txt): against the checking libraries and against the
// GC_FAST_SIM copy, so the rewrites are pinned in both contract
// configurations. Carries the ctest label `diff`.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "policies/block_lru.hpp"
#include "policies/factory.hpp"
#include "policies/item_lru.hpp"
#include "traces/adversary.hpp"
#include "traces/synthetic.hpp"

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

struct NamedWorkload {
  std::string name;
  Workload workload;
  std::vector<std::size_t> capacities;
};

/// Workloads are expensive to capture (the adversaries run a live target
/// policy), so build them once and replay for every spec.
const std::vector<NamedWorkload>& workloads_under_test() {
  static const std::vector<NamedWorkload>* ws = [] {
    auto* v = new std::vector<NamedWorkload>;
    v->push_back({"zipf", traces::zipf_items(2048, 16, 20000, 0.9, 7),
                  {64, 256, 1024}});
    v->push_back({"zipf_scramble",
                  traces::zipf_scramble(2048, 16, 20000, 0.9, 11),
                  {64, 256, 1024}});
    traces::AdversaryOptions adv;
    adv.k = 96;
    adv.h = 48;
    adv.B = 8;
    adv.phases = 30;
    {
      ItemLru target;
      v->push_back({"adv_item",
                    traces::run_item_adversary(target, adv).workload,
                    {32, 96, 160}});
    }
    {
      traces::AdversaryOptions badv = adv;  // Theorem 3: h <= ceil(k/B)
      badv.h = 8;
      badv.phases = 60;
      BlockLru target;
      v->push_back({"adv_block",
                    traces::run_block_adversary(target, badv).workload,
                    {32, 96, 160}});
    }
    return v;
  }();
  return *ws;
}

/// Every rewritten policy, bare and with the parameter plumbing that takes
/// different code paths inside the rewrites (sideload caps, cold-block
/// heuristic off, high thresholds).
std::vector<std::string> rewritten_specs() {
  return {
      "item-lfu",
      "footprint",
      "footprint:cold_block=0",
      "athreshold",
      "athreshold:a=4",
      "gcm",
      "gcm:seed=5,sideload=3",
      "marking-item",
      "marking-blockmark",
  };
}

class PolicyRewriteDifferential : public ::testing::TestWithParam<std::string> {
};

TEST_P(PolicyRewriteDifferential, BitIdenticalAcrossWorkloadsAndCapacities) {
  const std::string spec = GetParam();
  for (const NamedWorkload& nw : workloads_under_test()) {
    for (const std::size_t capacity : nw.capacities) {
      SCOPED_TRACE(spec + " workload=" + nw.name +
                   " capacity=" + std::to_string(capacity));
      const auto policy = make_policy(spec, capacity);
      const SimStats verify = simulate(nw.workload, *policy, capacity);
      const SimStats fast = simulate_fast_spec(spec, nw.workload, capacity);
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

INSTANTIATE_TEST_SUITE_P(RewrittenPolicies, PolicyRewriteDifferential,
                         ::testing::ValuesIn(rewritten_specs()), sanitize);

// A trace that is *all* same-block runs (sequential scan) and one that is
// all singletons (stride = B) pin both extremes of spatial locality.
TEST(PolicyRewriteRuns, ScanExtremesMatchVerifyingEngine) {
  const Workload scan = traces::sequential_scan(512, 16, 4096);
  const Workload stride = traces::strided_scan(512, 16, 4096, 16);
  for (const std::string& spec : rewritten_specs()) {
    for (const Workload* w : {&scan, &stride}) {
      SCOPED_TRACE(spec + (w == &scan ? " scan" : " stride"));
      const auto policy = make_policy(spec, 128);
      const SimStats verify = simulate(*w, *policy, 128);
      const SimStats fast = simulate_fast_spec(spec, *w, 128);
      expect_identical(verify, fast);
    }
  }
}

}  // namespace
}  // namespace gcaching
