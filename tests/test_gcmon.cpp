// Tests for the gcmon runtime-monitoring tier (src/obs/gcmon.*,
// hdr_histogram.hpp, shard_metrics.hpp) and its loadgen integration.
//
// The load-bearing guarantees:
//   * HdrHistogram percentiles stay within the documented <=1% relative
//     error of the exact nearest-rank sample, on adversarial distributions
//     (bimodal, single-bucket, overflow) — and are bit-exact below 256 ns;
//   * merge is bucket-wise addition, hence associative and commutative:
//     merge order never changes any percentile;
//   * concurrent record/merge/query never corrupts counts (the tsan preset
//     runs this suite via the `gcached` label);
//   * the monitor's harvest is a pure relaxed-atomic read: deltas are exact
//     between consecutive snapshots, gauges don't difference, the ring
//     trims oldest-first, and the latency summary persists across histogram
//     deregistration (final-export gauge semantics);
//   * the Prometheus exposition round-trips its own validator, and
//     write_file_atomic leaves no debris on failure;
//   * attaching a monitor + atlas to a 1-shard 1-thread run changes NOTHING:
//     SimStats stay bit-identical to simulate_fast (the differential anchor
//     with monitoring attached);
//   * under GCACHING_OBS=OFF the GC_MON_* macros provably compile to zero
//     code (constexpr proof, mirroring test_obs_timeline's GC_OBS_ proof);
//   * detail::replay_closed_loop's bracketed measurement records exactly the
//     access duration — inter-op bookkeeping time never lands in the
//     histogram (pinned with a deterministic fake clock).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "gcached/gcached.hpp"
#include "gcached/loadgen.hpp"
#include "obs/gcmon.hpp"
#include "obs/hdr_histogram.hpp"
#include "obs/shard_metrics.hpp"
#include "policies/factory.hpp"
#include "traces/synthetic.hpp"

namespace gcaching {
namespace {

using obs::HdrHistogram;
using obs::Monitor;
using obs::MonitorConfig;
using obs::ShardAtlas;
using obs::ShardValues;
using obs::Snapshot;

#if !defined(GCACHING_OBS)
// The zero-code proof: with GCACHING_OBS off, a function body consisting of
// every GC_MON_* publish macro must still be a constant expression — only
// possible if each macro contributes no code at all. (Mirrors the GC_OBS_*
// elision proof in test_obs_timeline.cpp.)
constexpr int mon_free_identity(int v) {
  GC_MON_ATLAS(mon, nullptr);
  if (GC_MON_ATTACHED(mon)) {
    GC_MON_SHARD_ADD(mon, 0, hits, 1);
    GC_MON_SHARD_ADD(mon, 0, misses, 1);
    GC_MON_SHARD_SET(mon, 0, residency, 2);
  }
  return v;
}
static_assert(mon_free_identity(3) == 3,
              "GC_MON_* must compile to nothing under GCACHING_OBS=OFF");
#endif

// ---- HdrHistogram bucket geometry -------------------------------------------

TEST(HdrHistogram, ExactRegionRoundTripsBitIdentically) {
  // Values below 2*kSubBuckets = 256 get width-1 buckets: the representative
  // IS the value.
  for (std::uint64_t v = 0; v < 2 * HdrHistogram::kSubBuckets; ++v) {
    const std::size_t idx = HdrHistogram::bucket_index(v);
    EXPECT_EQ(HdrHistogram::bucket_lower(idx), v);
    EXPECT_EQ(HdrHistogram::bucket_width(idx), 1u);
    EXPECT_EQ(HdrHistogram::bucket_representative(idx),
              static_cast<double>(v));
  }
}

TEST(HdrHistogram, BucketIndexIsMonotoneAndEdgesAreConsistent) {
  // Every bucket's lower edge maps back to that bucket, and indices are
  // non-decreasing across a log-spread sweep of values.
  for (std::size_t idx = 0; idx < HdrHistogram::kOverflowBucket; ++idx) {
    const std::uint64_t lo = HdrHistogram::bucket_lower(idx);
    EXPECT_EQ(HdrHistogram::bucket_index(lo), idx) << "lower edge of " << idx;
    const std::uint64_t hi = lo + HdrHistogram::bucket_width(idx) - 1;
    EXPECT_EQ(HdrHistogram::bucket_index(hi), idx) << "upper edge of " << idx;
  }
  std::size_t prev = 0;
  for (std::uint64_t v = 0; v < (1ULL << 22); v += 97) {
    const std::size_t idx = HdrHistogram::bucket_index(v);
    EXPECT_GE(idx, prev);
    prev = idx;
  }
}

TEST(HdrHistogram, OverflowBucketCatchesEverythingPastMaxExponent) {
  const std::uint64_t edge = 1ULL << HdrHistogram::kMaxExponent;
  EXPECT_EQ(HdrHistogram::bucket_index(edge), HdrHistogram::kOverflowBucket);
  EXPECT_EQ(HdrHistogram::bucket_index(edge - 1),
            HdrHistogram::kOverflowBucket - 1);
  EXPECT_EQ(HdrHistogram::bucket_index(~0ULL), HdrHistogram::kOverflowBucket);
  HdrHistogram h;
  h.record(edge);
  h.record(~0ULL);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.bucket_count(HdrHistogram::kOverflowBucket), 2u);
  // The overflow bucket reports its lower edge for every quantile.
  EXPECT_EQ(h.quantile(0.5), static_cast<double>(edge));
  EXPECT_EQ(h.max_value(), static_cast<double>(edge));
}

// ---- Percentile error bound vs exact nearest-rank ---------------------------

/// Exact nearest-rank with the same convention quantile() documents: the
/// sorted sample at index round(q * (N - 1)).
double exact_nearest_rank(std::vector<std::uint64_t> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  return static_cast<double>(
      samples[static_cast<std::size_t>(pos + 0.5)]);
}

void expect_quantiles_within_bound(const std::vector<std::uint64_t>& samples,
                                   const char* what) {
  HdrHistogram h;
  for (const std::uint64_t v : samples) h.record(v);
  ASSERT_EQ(h.count(), samples.size());
  for (const double q : {0.0, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0}) {
    const double exact = exact_nearest_rank(samples, q);
    const double got = h.quantile(q);
    if (exact == 0.0) {
      EXPECT_EQ(got, 0.0) << what << " q=" << q;
    } else {
      EXPECT_NEAR(got / exact, 1.0, 0.01)
          << what << " q=" << q << " exact=" << exact << " got=" << got;
    }
  }
}

TEST(HdrHistogram, BimodalDistributionStaysWithinOnePercent) {
  // Two far-apart modes — the distribution where a mean or a coarse bucket
  // scheme goes badly wrong: fast hits ~500 ns, slow fills ~2 ms.
  std::vector<std::uint64_t> samples;
  for (std::uint64_t i = 0; i < 10'000; ++i)
    samples.push_back(400 + i % 200);  // 400..599 ns
  for (std::uint64_t i = 0; i < 10'000; ++i)
    samples.push_back(1'900'000 + 40 * (i % 10'000));  // 1.9..2.3 ms
  expect_quantiles_within_bound(samples, "bimodal");
}

TEST(HdrHistogram, SingleBucketDistributionIsExactToTheBound) {
  // Every sample identical: all quantiles must report that one bucket.
  std::vector<std::uint64_t> samples(5'000, 300'000);
  expect_quantiles_within_bound(samples, "single-bucket");
  HdrHistogram h;
  for (const std::uint64_t v : samples) h.record(v);
  EXPECT_EQ(h.quantile(0.0), h.quantile(1.0));
}

TEST(HdrHistogram, LogSpreadDistributionStaysWithinOnePercent) {
  // One sample per octave across the whole dynamic range below overflow —
  // maximally stresses the per-octave sub-bucket rounding.
  std::vector<std::uint64_t> samples;
  for (unsigned k = 0; k < HdrHistogram::kMaxExponent; ++k)
    for (std::uint64_t j = 0; j < 50; ++j)
      samples.push_back((1ULL << k) + j * ((1ULL << k) / 64 + 1));
  expect_quantiles_within_bound(samples, "log-spread");
}

TEST(HdrHistogram, EmptyHistogramReportsZero) {
  HdrHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.max_value(), 0.0);
}

// ---- Merge algebra ----------------------------------------------------------

void fill_pattern(HdrHistogram& h, std::uint64_t base, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) h.record(base + i * 37);
}

TEST(HdrHistogram, MergeIsAssociativeAndCommutative) {
  HdrHistogram a, b, c;
  fill_pattern(a, 100, 1'000);
  fill_pattern(b, 50'000, 1'000);
  fill_pattern(c, 9'000'000, 1'000);

  HdrHistogram ab_c;  // (a + b) + c
  ab_c.merge_from(a);
  ab_c.merge_from(b);
  ab_c.merge_from(c);
  HdrHistogram c_ba;  // c + (b + a)
  c_ba.merge_from(c);
  c_ba.merge_from(b);
  c_ba.merge_from(a);

  ASSERT_EQ(ab_c.count(), 3'000u);
  ASSERT_EQ(c_ba.count(), 3'000u);
  for (std::size_t i = 0; i < HdrHistogram::kBuckets; ++i)
    ASSERT_EQ(ab_c.bucket_count(i), c_ba.bucket_count(i)) << "bucket " << i;
  for (const double q : {0.01, 0.5, 0.99, 0.999})
    EXPECT_EQ(ab_c.quantile(q), c_ba.quantile(q)) << "q=" << q;
  EXPECT_EQ(ab_c.max_value(), c_ba.max_value());
}

TEST(HdrHistogram, MergePreservesExactCountsAndClearResets) {
  HdrHistogram a, b;
  fill_pattern(a, 10, 100);
  fill_pattern(b, 10, 100);  // identical pattern: counts double
  a.merge_from(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_EQ(a.bucket_count(HdrHistogram::bucket_index(10)), 2u);
  a.clear();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.quantile(0.5), 0.0);
}

std::uint64_t bucket_sum(const HdrHistogram& h) {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < HdrHistogram::kBuckets; ++i)
    n += h.bucket_count(i);
  return n;
}

// count() is derived from the buckets (there is no separate total), so it
// must equal their sum after every kind of update.
TEST(HdrHistogram, CountIsTheBucketSumAfterRecordMergeAndClear) {
  HdrHistogram a, b;
  fill_pattern(a, 3, 700);              // exact and linear-log buckets
  a.record(std::uint64_t{1} << 50);     // overflow bucket
  EXPECT_EQ(a.count(), 701u);
  EXPECT_EQ(a.count(), bucket_sum(a));
  fill_pattern(b, 40'000, 300);
  b.merge_from(a);
  EXPECT_EQ(b.count(), 1'001u);
  EXPECT_EQ(b.count(), bucket_sum(b));
  a.clear();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(bucket_sum(a), 0u);
  EXPECT_EQ(b.count(), bucket_sum(b));  // merge copied; clear of a left b
}

// Concurrent recorders + a live merger: the tsan preset runs this via the
// `gcached` label. After quiescing, every record must be accounted for.
TEST(HdrHistogram, ConcurrentRecordAndMergeStress) {
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 50'000;
  HdrHistogram shared;
  std::vector<std::thread> recorders;
  for (std::size_t t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&shared, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        shared.record(100 + t * 1'000 + i % 500);
    });
  }
  // Live merger: repeatedly merge the (still-recording) histogram into a
  // scratch table and query it — must never crash, corrupt, or block.
  std::thread merger([&shared] {
    for (int round = 0; round < 50; ++round) {
      HdrHistogram scratch;
      scratch.merge_from(shared);
      const double p50 = scratch.quantile(0.5);
      ASSERT_GE(p50, 0.0);
      ASSERT_LE(scratch.count(), kThreads * kPerThread);
    }
  });
  for (std::thread& th : recorders) th.join();
  merger.join();
  EXPECT_EQ(shared.count(), kThreads * kPerThread);
  HdrHistogram merged;
  merged.merge_from(shared);
  EXPECT_EQ(merged.count(), kThreads * kPerThread);
}

// ---- ShardAtlas / ShardValues -----------------------------------------------

TEST(ShardAtlas, RelaxedReadsSeeEveryPublishedCounter) {
  ShardAtlas atlas(3);
  ASSERT_EQ(atlas.size(), 3u);
  atlas.shard(1).hits.fetch_add(7, std::memory_order_relaxed);
  atlas.shard(1).misses.fetch_add(2, std::memory_order_relaxed);
  atlas.shard(1).residency.store(42, std::memory_order_relaxed);
  const ShardValues v = atlas.read(1);
  EXPECT_EQ(v.hits, 7u);
  EXPECT_EQ(v.misses, 2u);
  EXPECT_EQ(v.residency, 42u);
  const ShardValues untouched = atlas.read(0);
  EXPECT_EQ(untouched.hits, 0u);
}

TEST(ShardAtlas, DifferenceSubtractsCountersButCarriesGauges) {
  ShardValues now, before;
  now.hits = 10;
  now.backoff_ns = 500;
  now.residency = 64;
  before.hits = 4;
  before.backoff_ns = 100;
  before.residency = 99;  // stale gauge must NOT difference
  const ShardValues d = now - before;
  EXPECT_EQ(d.hits, 6u);
  EXPECT_EQ(d.backoff_ns, 400u);
  EXPECT_EQ(d.residency, 64u);  // gauge: current value, not now-before
}

// ---- Monitor harvest / ring -------------------------------------------------

TEST(GcmonMonitor, HarvestComputesExactDeltasBetweenSnapshots) {
  ShardAtlas atlas(2);
  Monitor mon;
  mon.attach_atlas(&atlas);

  atlas.shard(0).hits.fetch_add(5, std::memory_order_relaxed);
  atlas.shard(1).misses.fetch_add(3, std::memory_order_relaxed);
  const Snapshot s1 = mon.harvest_now();
  EXPECT_EQ(s1.seq, 0u);
  ASSERT_EQ(s1.shards.size(), 2u);
  EXPECT_EQ(s1.shards[0].hits, 5u);
  EXPECT_EQ(s1.shard_deltas[0].hits, 5u);
  EXPECT_EQ(s1.totals.hits, 5u);
  EXPECT_EQ(s1.totals.misses, 3u);

  atlas.shard(0).hits.fetch_add(2, std::memory_order_relaxed);
  const Snapshot s2 = mon.harvest_now();
  EXPECT_EQ(s2.seq, 1u);
  EXPECT_EQ(s2.shards[0].hits, 7u);       // cumulative
  EXPECT_EQ(s2.shard_deltas[0].hits, 2u);  // since s1
  EXPECT_EQ(s2.shard_deltas[1].misses, 0u);
  EXPECT_GE(s2.uptime_s, s1.uptime_s);
}

TEST(GcmonMonitor, RingTrimsOldestFirst) {
  MonitorConfig cfg;
  cfg.ring_capacity = 3;
  Monitor mon(cfg);
  for (int i = 0; i < 5; ++i) mon.harvest_now();
  EXPECT_EQ(mon.snapshot_count(), 3u);
  const std::vector<Snapshot> ring = mon.snapshots();
  ASSERT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring[0].seq, 2u);
  EXPECT_EQ(ring[2].seq, 4u);
}

TEST(GcmonMonitor, LatencySummaryPersistsAfterDeregistration) {
  HdrHistogram h;
  h.record(1'000);
  h.record(2'000);
  Monitor mon;
  mon.add_histogram(&h);
  const Snapshot live = mon.harvest_now();
  EXPECT_EQ(live.latency.count, 2u);
  EXPECT_GT(live.latency.p50_ns, 0.0);
  mon.remove_histogram(&h);
  // Final-export gauge semantics: the last observed summary persists
  // instead of snapping to zero once the load threads deregister.
  const Snapshot after = mon.harvest_now();
  EXPECT_EQ(after.latency.count, 2u);
  EXPECT_EQ(after.latency.p50_ns, live.latency.p50_ns);
}

TEST(GcmonMonitor, BackgroundThreadHarvestsAndStopTakesFinalSnapshot) {
  MonitorConfig cfg;
  cfg.interval = std::chrono::milliseconds(1);
  Monitor mon(cfg);
  EXPECT_FALSE(mon.running());
  mon.start();
  EXPECT_TRUE(mon.running());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  mon.stop();
  EXPECT_FALSE(mon.running());
  // At least the immediate first tick plus stop()'s final harvest.
  EXPECT_GE(mon.snapshot_count(), 2u);
  // stop() is idempotent and start() can relaunch.
  mon.stop();
  mon.start();
  mon.stop();
}

// ---- Prometheus / JSONL export ----------------------------------------------

TEST(GcmonExport, PrometheusTextRoundTripsTheValidator) {
  ShardAtlas atlas(2);
  atlas.shard(0).hits.fetch_add(11, std::memory_order_relaxed);
  atlas.shard(1).backoff_ns.fetch_add(12'345, std::memory_order_relaxed);
  HdrHistogram h;
  h.record(5'000);
  Monitor mon;
  mon.attach_atlas(&atlas);
  mon.add_histogram(&h);
  const Snapshot snap = mon.harvest_now();
  const std::string text = mon.prometheus_text(snap);
  EXPECT_EQ(obs::validate_prometheus_text(text), "");
  EXPECT_NE(text.find("gcached_shard_hits_total{shard=\"0\"} 11"),
            std::string::npos);
  EXPECT_NE(text.find("gcached_shard_backoff_nanoseconds_total{shard=\"1\"} "
                      "12345"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE gcached_shard_residency_items gauge"),
            std::string::npos);
  EXPECT_NE(text.find("gcached_latency_count 1"), std::string::npos);
  EXPECT_NE(text.find("gcmon_snapshot_seq"), std::string::npos);
}

TEST(GcmonExport, ValidatorRejectsMalformedExpositions) {
  using obs::validate_prometheus_text;
  EXPECT_NE(validate_prometheus_text(""), "");  // no samples
  EXPECT_NE(validate_prometheus_text("metric_without_type 1\n"), "");
  EXPECT_NE(validate_prometheus_text("# TYPE 9bad counter\n9bad 1\n"), "");
  EXPECT_NE(validate_prometheus_text("# TYPE m counter\nm nan\n"), "");
  EXPECT_NE(
      validate_prometheus_text("# TYPE m counter\nm{shard=\"0} 1\n"), "");
  EXPECT_NE(validate_prometheus_text("# BOGUS m counter\nm 1\n"), "");
  EXPECT_EQ(validate_prometheus_text("# HELP m h\n# TYPE m counter\nm 1\n"),
            "");
  EXPECT_EQ(
      validate_prometheus_text("# TYPE m gauge\nm{shard=\"0\"} 1.5\n"), "");
}

TEST(GcmonExport, JsonlLineCarriesTotalsLatencyAndPerShardArrays) {
  ShardAtlas atlas(2);
  atlas.shard(0).hits.fetch_add(4, std::memory_order_relaxed);
  Monitor mon;
  mon.attach_atlas(&atlas);
  const Snapshot snap = mon.harvest_now();
  const std::string line = mon.jsonl_line(snap);
  EXPECT_NE(line.find("\"seq\": 0"), std::string::npos);
  EXPECT_NE(line.find("\"totals\": {\"hits\": 4"), std::string::npos);
  EXPECT_NE(line.find("\"latency\": {\"count\": 0"), std::string::npos);
  EXPECT_NE(line.find("\"shards\": ["), std::string::npos);
  EXPECT_NE(line.find("\"deltas\": ["), std::string::npos);
}

TEST(GcmonExport, WriteFileAtomicWritesWholeFileAndFailsCleanly) {
  const std::string path = ::testing::TempDir() + "gcmon_atomic_test.prom";
  ASSERT_TRUE(obs::write_file_atomic(path, "# TYPE m counter\nm 1\n"));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "# TYPE m counter\nm 1\n");
  std::remove(path.c_str());
  // Unwritable target directory: returns false, leaves no temp debris.
  EXPECT_FALSE(obs::write_file_atomic(
      "/nonexistent_gcmon_dir/out.prom", "x"));
}

// ---- Bracketed latency measurement (fake clock) -----------------------------

/// Deterministic manual clock for detail::replay_closed_loop. now() is
/// called exactly twice per op (t0 before the access, t1 after); the clock
/// injects `inter_op_ns` of "bookkeeping time" before every t0, modeling
/// the loop-control / recording tail that the OLD chained measurement
/// wrongly attributed to the next operation.
struct FakeClock {
  using duration = std::chrono::nanoseconds;
  using time_point = std::chrono::time_point<FakeClock, duration>;
  static inline std::uint64_t now_ns = 0;
  static inline std::uint64_t calls = 0;
  static inline std::uint64_t inter_op_ns = 0;
  static time_point now() {
    if (calls % 2 == 0) now_ns += inter_op_ns;  // gap lands BEFORE t0
    ++calls;
    return time_point(duration(static_cast<std::int64_t>(now_ns)));
  }
  static void reset(std::uint64_t gap) {
    now_ns = 0;
    calls = 0;
    inter_op_ns = gap;
  }
};

TEST(LoadgenBracketing, RecordedLatencyIsExactlyTheAccessDuration) {
  FakeClock::reset(10'000);  // huge inter-op gap: must never be recorded
  obs::HdrHistogram hist;
  gcached::detail::replay_closed_loop<FakeClock>(
      [](std::size_t i) { FakeClock::now_ns += 100 + i; },
      /*start=*/0, /*stride=*/1, /*wrap=*/1'000, /*ops=*/8, hist);
  ASSERT_EQ(hist.count(), 8u);
  // Each op's recorded latency is exactly what the access advanced — values
  // 100..107 are in the histogram's exact region, so this is bit-precise.
  for (std::uint64_t i = 0; i < 8; ++i)
    EXPECT_EQ(hist.bucket_count(obs::HdrHistogram::bucket_index(100 + i)), 1u)
        << "op " << i;
  // The 10 us inter-op gap never leaked into any op's latency.
  EXPECT_EQ(hist.max_value(), 107.0);
  // ... even though the clock itself saw every gap pass.
  EXPECT_EQ(FakeClock::now_ns,
            8 * 10'000 + (100 + 101 + 102 + 103 + 104 + 105 + 106 + 107));
}

TEST(LoadgenBracketing, StrideWrapsBackToTheThreadsOwnStart) {
  FakeClock::reset(0);
  obs::HdrHistogram hist;
  std::vector<std::size_t> visited;
  gcached::detail::replay_closed_loop<FakeClock>(
      [&visited](std::size_t i) { visited.push_back(i); },
      /*start=*/1, /*stride=*/2, /*wrap=*/5, /*ops=*/5, hist);
  EXPECT_EQ(visited, (std::vector<std::size_t>{1, 3, 1, 3, 1}));
  EXPECT_EQ(hist.count(), 5u);
}

// ---- Differential anchor with monitoring attached ---------------------------

TEST(GcmonDifferential, AttachedMonitorNeverPerturbsTheRun) {
  // The gcached anchor again, now with a live atlas + monitor harvesting on
  // a tight interval: 1 shard / 1 thread must STILL be bit-identical to
  // simulate_fast. Monitoring reads must not change what the run computes.
  Workload w = traces::zipf_items(2048, 16, 30'000, 0.9, 7);
  w.trace.precompute_block_ids(*w.map);
  const std::size_t capacity = 256;

  gcached::GcachedConfig cfg;
  cfg.num_shards = 1;
  cfg.capacity = capacity;
  const auto cache = gcached::make_concurrent_cache("item-lru", w.map, cfg);

  ShardAtlas atlas(1);
  MonitorConfig mcfg;
  mcfg.interval = std::chrono::milliseconds(1);
  Monitor mon(mcfg);
  mon.attach_atlas(&atlas);
  cache->attach_atlas(&atlas);
  mon.start();

  gcached::LoadSpec spec;
  spec.threads = 1;
  spec.monitor = &mon;
  const gcached::LoadResult res =
      run_load(*cache, w.trace, w.trace.block_ids(), spec);
  mon.stop();
  cache->attach_atlas(nullptr);

  const SimStats expected = simulate_fast_spec("item-lru", w, capacity);
  EXPECT_EQ(res.stats, expected);

#if defined(GCACHING_OBS)
  // The atlas totals agree exactly with the run's own statistics: on a
  // quiesced 1-shard run the published hit/miss split is the SimStats split.
  const ShardValues totals = atlas.read(0);
  EXPECT_EQ(totals.hits + totals.misses, res.ops);
  EXPECT_EQ(totals.misses, expected.misses);
  EXPECT_EQ(totals.lock_acquisitions, res.lock_acquisitions);
  EXPECT_EQ(totals.trylock_failures, 0u);
  EXPECT_EQ(totals.backoff_ns, 0u);
  // The final harvest (taken by run_load after quiesce) saw the totals and
  // a complete latency summary.
  const std::vector<Snapshot> ring = mon.snapshots();
  ASSERT_FALSE(ring.empty());
  EXPECT_EQ(ring.back().totals.hits + ring.back().totals.misses, res.ops);
  EXPECT_EQ(ring.back().latency.count, res.ops);
#endif
}

TEST(GcmonDifferential, AtlasShardCountMismatchIsRejected) {
  Workload w = traces::zipf_items(512, 16, 1'000, 0.9, 3);
  w.trace.precompute_block_ids(*w.map);
  gcached::GcachedConfig cfg;
  cfg.num_shards = 4;
  cfg.capacity = 64;
  const auto cache = gcached::make_concurrent_cache("item-lru", w.map, cfg);
  ShardAtlas wrong(2);
  EXPECT_THROW(cache->attach_atlas(&wrong), ContractViolation);
  cache->attach_atlas(nullptr);  // detach is always legal
}

}  // namespace
}  // namespace gcaching
