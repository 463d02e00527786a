// StatsTimeline windowing semantics (src/obs/timeline.hpp).
//
// The two load-bearing guarantees:
//   * attaching a timeline NEVER changes what a run computes — final SimStats
//     stay bit-identical to an un-instrumented run, and the recorded window
//     deltas sum back to exactly those totals, for every engine
//     (`Simulation::run`, `simulate_fast`);
//   * under GCACHING_OBS=OFF the GC_OBS_* macros provably compile to zero
//     code (the constexpr proof below, in the style of test_contracts).
// Plus the windowing edge cases: trace shorter than one window, window == 1,
// final partial window, auto-scaled windows, and the sink formats.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "obs/obs.hpp"
#include "policies/factory.hpp"
#include "traces/synthetic.hpp"

namespace gcaching {
namespace {

using obs::StatsTimeline;
using obs::TimelineScope;

#if !defined(GCACHING_OBS)
// The zero-code proof: with GCACHING_OBS off, a function body consisting of
// every per-run obs macro must still be a constant expression — only
// possible if each macro contributes no code at all. (Mirrors the
// GC_HOT_CHECK elision proof in test_contracts.cpp.)
constexpr int obs_free_identity(int v) {
  GC_OBS_TIMELINE(obs_tl);
  GC_OBS_TIMELINE_OPEN(obs_tl, 1, 100);
  if (GC_OBS_ATTACHED(obs_tl)) {
    GC_OBS_TICK(obs_tl, SimStats{});
  }
  GC_OBS_TIMELINE_CLOSE(obs_tl, SimStats{});
  GC_OBS_SPAN(span, "name", "cat");
  GC_OBS_SPAN_ARG(span, "key", "value");
  GC_OBS_THREAD_NAME("name");
  GC_OBS_COUNT("counter", 1);
  return v;
}
static_assert(obs_free_identity(3) == 3,
              "GC_OBS_* must compile to nothing under GCACHING_OBS=OFF");
static_assert(!obs::kObsEnabled);
#else
static_assert(obs::kObsEnabled);
#endif

std::size_t count_lines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) ++lines;
  return lines;
}

void expect_window_invariants(const StatsTimeline& tl,
                              std::uint64_t total_accesses) {
  ASSERT_TRUE(tl.closed());
  const std::vector<obs::TimelineWindow>& rows = tl.windows();
  if (total_accesses == 0) {
    EXPECT_TRUE(rows.empty());
    return;
  }
  const std::uint64_t w = tl.window();
  const std::uint64_t expected_rows = (total_accesses + w - 1) / w;
  ASSERT_EQ(rows.size(), expected_rows);
  std::uint64_t covered = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].start, covered) << "window " << i;
    const bool last = i + 1 == rows.size();
    EXPECT_EQ(rows[i].length, last ? total_accesses - covered : w)
        << "window " << i;
    EXPECT_EQ(rows[i].delta.accesses, rows[i].length) << "window " << i;
    covered += rows[i].length;
  }
  EXPECT_EQ(covered, total_accesses);
  EXPECT_EQ(tl.window_sum(), tl.final_totals());
}

TEST(TimelineUnit, FixedWindowResolution) {
  StatsTimeline tl(128);
  tl.open(64, 10'000);
  EXPECT_EQ(tl.window(), 128u);
  EXPECT_EQ(tl.capacity(), 64u);
}

TEST(TimelineUnit, AutoWindowScalesToTraceLength) {
  StatsTimeline tl;  // kAutoWindow
  tl.open(32, 4096);
  EXPECT_EQ(tl.window(), 4096u / StatsTimeline::kAutoTargetWindows);
  // Tiny traces floor at 1 instead of a zero-length window.
  tl.open(32, 10);
  EXPECT_EQ(tl.window(), 1u);
}

TEST(TimelineUnit, OpenResetsPreviousRecording) {
  StatsTimeline tl(2);
  tl.open(8, 4);
  SimStats s;
  s.accesses = 2;
  ASSERT_FALSE(tl.tick_due());
  ASSERT_TRUE(tl.tick_due());
  tl.record(s);
  tl.close(s);
  EXPECT_EQ(tl.windows().size(), 1u);
  EXPECT_TRUE(tl.closed());
  tl.open(16, 4);
  EXPECT_TRUE(tl.windows().empty());
  EXPECT_FALSE(tl.closed());
  EXPECT_EQ(tl.final_totals(), SimStats{});
  EXPECT_EQ(tl.capacity(), 16u);
}

TEST(TimelineUnit, CloseRejectsDivergentTotals) {
  StatsTimeline tl(1);
  tl.open(8, 2);
  SimStats seen;
  seen.accesses = 1;
  ASSERT_TRUE(tl.tick_due());
  tl.record(seen);
  SimStats different = seen;
  different.misses = 99;  // never reported through record()
  EXPECT_THROW(tl.close(different), ContractViolation);
}

TEST(TimelineUnit, ScopesNestAndRestore) {
  EXPECT_EQ(obs::current_timeline(), nullptr);
  StatsTimeline outer(8), inner(8);
  {
    TimelineScope a(outer);
    EXPECT_EQ(obs::current_timeline(), &outer);
    {
      TimelineScope b(inner);
      EXPECT_EQ(obs::current_timeline(), &inner);
      {
        const obs::TimelineDetachScope detached;
        EXPECT_EQ(obs::current_timeline(), nullptr);
      }
      EXPECT_EQ(obs::current_timeline(), &inner);
    }
    EXPECT_EQ(obs::current_timeline(), &outer);
  }
  EXPECT_EQ(obs::current_timeline(), nullptr);
}

// ---- Engine integration (live macros required) ------------------------------

class TimelineEngines : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::kObsEnabled)
      GTEST_SKIP() << "GC_OBS_* compiled out (GCACHING_OBS=OFF)";
  }
};

TEST_F(TimelineEngines, VerifyingEngineTotalsAreUnperturbed) {
  const Workload w = traces::zipf_blocks(64, 8, 4000, 0.9, 4, 1);
  const std::size_t capacity = 32;
  const auto plain_policy = make_policy("item-lru", capacity);
  const SimStats plain = simulate(w, *plain_policy, capacity);

  StatsTimeline tl(256);
  const auto policy = make_policy("item-lru", capacity);
  SimStats instrumented;
  {
    TimelineScope scope(tl);
    instrumented = simulate(w, *policy, capacity);
  }
  EXPECT_EQ(instrumented, plain);
  EXPECT_EQ(tl.final_totals(), plain);
  EXPECT_EQ(tl.capacity(), capacity);
  expect_window_invariants(tl, w.trace.size());
}

TEST_F(TimelineEngines, FastEngineTotalsAreUnperturbed) {
  const Workload w = traces::zipf_blocks(64, 8, 4000, 0.9, 4, 2);
  const std::size_t capacity = 48;
  // Policies covering both fast-engine stat flavors: plain, hit-path
  // evictions (iblp), and heavy sideload traffic (gcm, footprint).
  for (const std::string spec :
       {"item-lru", "footprint", "gcm:seed=5,sideload=3", "iblp"}) {
    SCOPED_TRACE(spec);
    const SimStats plain = simulate_fast_spec(spec, w, capacity);
    StatsTimeline tl(333);  // deliberately not a divisor of 4000
    SimStats instrumented;
    {
      TimelineScope scope(tl);
      instrumented = simulate_fast_spec(spec, w, capacity);
    }
    EXPECT_EQ(instrumented, plain);
    EXPECT_EQ(tl.final_totals(), plain);
    expect_window_invariants(tl, w.trace.size());
  }
}

TEST_F(TimelineEngines, WindowOfOneRecordsEveryAccess) {
  const Workload w = traces::zipf_blocks(16, 4, 50, 0.8, 2, 3);
  StatsTimeline tl(1);
  {
    TimelineScope scope(tl);
    (void)simulate_fast_spec("item-lru", w, 8);
  }
  expect_window_invariants(tl, 50);
  ASSERT_EQ(tl.windows().size(), 50u);
  for (const obs::TimelineWindow& row : tl.windows())
    EXPECT_EQ(row.delta.accesses, 1u);
}

TEST_F(TimelineEngines, TraceShorterThanWindowYieldsOnePartialWindow) {
  const Workload w = traces::zipf_blocks(16, 4, 50, 0.8, 2, 4);
  StatsTimeline tl(10'000);
  {
    TimelineScope scope(tl);
    (void)simulate_fast_spec("item-lru", w, 8);
  }
  expect_window_invariants(tl, 50);
  ASSERT_EQ(tl.windows().size(), 1u);
  EXPECT_EQ(tl.windows()[0].length, 50u);
  EXPECT_EQ(tl.windows()[0].delta, tl.final_totals());
}

TEST_F(TimelineEngines, FinalPartialWindowCoversTheRemainder) {
  const Workload w = traces::zipf_blocks(32, 8, 1000, 0.9, 3, 5);
  StatsTimeline tl(64);  // 1000 = 15*64 + 40
  {
    TimelineScope scope(tl);
    (void)simulate_fast_spec("block-lru", w, 24);
  }
  expect_window_invariants(tl, 1000);
  ASSERT_EQ(tl.windows().size(), 16u);
  EXPECT_EQ(tl.windows().back().length, 40u);
}

TEST_F(TimelineEngines, StackCollapsedColumnRecordsNothing) {
  // The documented edge: a stack-collapsed column (item-lru derivation) does
  // a single stack-distance pass, not per-access stepping — the timeline
  // stays empty in every build (the checking replay detaches).
  const Workload w = traces::zipf_blocks(32, 8, 2000, 0.8, 3, 8);
  const std::vector<std::size_t> capacities = {16, 32};
  const std::vector<BlockId> ids = compute_block_ids(*w.map, w.trace);
  StatsTimeline tl(256);
  {
    TimelineScope scope(tl);
    (void)simulate_column_spec("item-lru", *w.map, w.trace,
                               std::span<const BlockId>(ids), capacities);
  }
  EXPECT_EQ(tl.capacity(), 0u);  // never opened
  EXPECT_TRUE(tl.windows().empty());
}

TEST_F(TimelineEngines, SinksWriteOneRowPerWindow) {
  const Workload w = traces::zipf_blocks(32, 8, 1000, 0.9, 3, 9);
  StatsTimeline tl(100);
  {
    TimelineScope scope(tl);
    (void)simulate_fast_spec("gcm:seed=2,sideload=2", w, 24);
  }
  ASSERT_EQ(tl.windows().size(), 10u);

  const std::string dir = ::testing::TempDir();
  const std::string csv = dir + "/timeline.csv";
  const std::string jsonl = dir + "/timeline.jsonl";
  tl.write_csv(csv);
  tl.write_jsonl(jsonl);
  EXPECT_EQ(count_lines(csv), 11u);  // header + 10 windows
  EXPECT_EQ(count_lines(jsonl), 10u);

  std::ifstream in(csv);
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_NE(header.find("miss_rate"), std::string::npos);
  EXPECT_NE(header.find("wasted_sideload_share"), std::string::npos);
}

}  // namespace
}  // namespace gcaching
