// The traced run's layer suite. Every number here comes from a span the
// benchmark records around one call into a module's public functions:
// traces, core + policies, sim + locality, gcached and obs. Nothing inside
// the program is instrumented. METRICS.md maps each metric to the
// end-to-end metric and workload it should move.
#include <cstdint>

#include "gcached/gcached.hpp"
#include "gcbench.hpp"
#include "obs/hdr_histogram.hpp"
#include "policies/factory.hpp"

namespace gcbench {

namespace gc = gcaching;
namespace gcd = gcaching::gcached;

namespace {

constexpr int kReps = 3;
constexpr int kLadderReps = 5;
/// Ops of the 1-client async run behind gcached.fill_overshoot_us.
constexpr std::uint64_t kOvershootOps = 50'000;
constexpr std::uint64_t kObsLoops = 2'000'000;

double per(double seconds, std::uint64_t n, double scale = 1e9) {
  return seconds * scale / static_cast<double>(n);
}

// ---- core + policies, sim + locality ------------------------------------------

void sim_layers(const Options& opt, Checks& checks, Tracer& tracer,
                Metrics& m) {
  const std::vector<Workload> traces = sweep_traces(opt.seed, &tracer);
  const char* const names[] = {"zipf-items", "scan-hotset"};
  for (std::size_t w = 0; w < traces.size(); ++w) {
    const Workload& wl = traces[w];
    SimStats useful;
    for (const std::string& p : policies()) {
      std::vector<double> ns;
      SimStats st;
      for (int r = 0; r < kReps; ++r) {
        Tracer::Span s(&tracer, "policies.simulate_fast_spec", kSweepLength);
        st = gc::simulate_fast_spec(p, *wl.map, wl.trace, wl.trace.block_ids(),
                                    mid_capacity());
        ns.push_back(per(s.stop(), kSweepLength));
      }
      checks.check(conservation_error(st, true).empty(), 1,
                   "simulate_fast_spec " + p + " on " + names[w] + ": " +
                       conservation_error(st, true));
      put(m, std::string("policies.") + p + "." + names[w] + ".ns_per_access",
          median(ns), "ns");
      useful += st;
    }
    const std::string core = std::string("core.") + names[w];
    put(m, core + ".spatial_hit_share", useful.spatial_hit_share(), "ratio");
    put(m, core + ".wasted_sideload_share", useful.wasted_sideload_share(),
        "ratio");
    put(m, core + ".loads_per_miss", useful.loads_per_miss(), "items");
  }

  // Each policy's rows alone on one thread, then the whole grid on the
  // sweep's pool: the rows' sum over the pool's capacity is its busy share.
  const std::size_t nc = capacities().size();
  std::vector<std::vector<SimStats>> rows;
  double rows_s = 0.0;
  for (const std::string& p : policies()) {
    const SweepPass row = sweep_pass(traces, {p}, 1, &tracer);
    put(m, "sim.row_s." + p, row.wall_s, "s");
    rows_s += row.wall_s;
    rows.push_back(row.cells);
  }
  const SweepPass grid = sweep_pass(traces, policies(), kSweepThreads, &tracer);
  put(m, "sim.pool_busy_share",
      rows_s / (static_cast<double>(kSweepThreads) * grid.wall_s), "ratio");
  bool same = true;
  for (std::size_t w = 0; w < traces.size(); ++w)
    for (std::size_t p = 0; p < policies().size(); ++p)
      for (std::size_t c = 0; c < nc; ++c)
        same = same && rows[p][w * nc + c] ==
                           grid.cells[(w * policies().size() + p) * nc + c];
  checks.check(same, grid.cells.size(),
               "single-row sweeps differ from the grid sweep");
}

// ---- gcached ------------------------------------------------------------------

/// ConcurrentCache::access over the first `ops` accesses, in order, on this
/// thread. Returns {wall seconds, thread CPU seconds}.
std::pair<double, double> direct_loop(gcd::ConcurrentCache& cache,
                                      const Workload& w, std::uint64_t ops,
                                      Tracer& tracer) {
  gcd::ClientContext ctx;
  const std::vector<gc::ItemId>& acc = w.trace.accesses();
  const auto ids = w.trace.block_ids();
  const double cpu0 = thread_cpu_s();
  Tracer::Span s(&tracer, "gcached.access_loop", ops);
  for (std::size_t i = 0; i < ops; ++i) cache.access(ctx, acc[i], ids[i]);
  const double wall = s.stop();
  return {wall, thread_cpu_s() - cpu0};
}

void gcached_layers(const Options& opt, Checks& checks, Tracer& tracer,
                    Metrics& m) {
  // The ladder: one client, one shard, no fill, item-lru over zipf-items.
  // Each rung adds one layer; the differences between rungs are its cost.
  const GcachedCase hot = hot_case();
  Workload hw = hot.make(hot.length, opt.seed);
  hw.trace.precompute_block_ids(*hw.map);
  const std::uint64_t n = hw.trace.size();
  std::vector<double> ns[4], cpu[4];
  SimStats ref;
  for (int r = 0; r < kLadderReps; ++r) {
    {
      const double cpu0 = thread_cpu_s();
      Tracer::Span s(&tracer, "policies.simulate_fast_spec", n);
      ref = gc::simulate_fast_spec(hot.spec, *hw.map, hw.trace,
                                   hw.trace.block_ids(), mid_capacity());
      ns[0].push_back(per(s.stop(), n));
      cpu[0].push_back(per(thread_cpu_s() - cpu0, n));
    }
    {
      const auto cache = make_cache(hot, hw, 1, 0, &tracer);
      const auto [wall, c] = direct_loop(*cache, hw, n, tracer);
      ns[1].push_back(per(wall, n));
      cpu[1].push_back(per(c, n));
      checks.check(cache->collect_stats() == ref, n,
                   "ladder: direct access loop differs from simulate_fast_spec");
    }
    for (const bool monitored : {false, true}) {
      const auto cache = make_cache(hot, hw, 1, 0, &tracer);
      gc::obs::ShardAtlas atlas(1);
      gc::obs::Monitor monitor;
      if (monitored) {
        monitor.attach_atlas(&atlas);
        cache->attach_atlas(&atlas);
        monitor.start();
      }
      const double cpu0 = process_cpu_s();
      const LoadPass p = load_pass(*cache, hw, 1, 0, opt.seed, &tracer,
                                   monitored ? &monitor : nullptr);
      const double c = process_cpu_s() - cpu0;
      if (monitored) {
        monitor.stop();
        cache->attach_atlas(nullptr);
      }
      const int rung = monitored ? 3 : 2;
      ns[rung].push_back(per(p.result.seconds, n));
      cpu[rung].push_back(per(c, n));
      checks.check(p.result.stats == ref && load_error(p, n, false).empty(), n,
                   "ladder: run_load differs from simulate_fast_spec");
    }
  }
  const char* const rungs[] = {"fast", "direct", "loadgen", "monitored"};
  for (int i = 0; i < 4; ++i) {
    put(m, std::string("gcached.ladder.") + rungs[i] + "_ns", median(ns[i]),
        "ns");
    put(m, std::string("gcached.ladder.") + rungs[i] + "_cpu_ns",
        median(cpu[i]), "ns");
  }

  // Contention: the gcached-hot configuration.
  {
    const auto cache = make_cache(hot, hw, kShards, 0, &tracer);
    const LoadPass p = load_pass(*cache, hw, kClients, 0, opt.seed, &tracer);
    checks.check(load_error(p, n, false).empty(), n,
                 "gcached-hot layer run: " + load_error(p, n, false));
    put(m, "gcached.lock_contended_share",
        SimStats::ratio(p.result.lock_contended, p.result.lock_acquisitions),
        "ratio");
  }

  // MSHR: the gcached-fill configuration.
  const GcachedCase fill = fill_case();
  Workload fw = fill.make(fill.length, opt.seed);
  fw.trace.precompute_block_ids(*fw.map);
  {
    const auto cache = make_cache(fill, fw, kShards, fill.fill_ns, &tracer);
    const LoadPass p =
        load_pass(*cache, fw, kClients, 0, opt.seed, &tracer);
    const SimStats& s = p.result.stats;
    checks.check(load_error(p, fill.length, true).empty(), fill.length,
                 "gcached-fill layer run: " + load_error(p, fill.length, true));
    put(m, "gcached.delayed_hit_share", s.delayed_hit_rate(), "ratio");
    put(m, "gcached.free_delayed_share", s.free_delayed_hit_share(), "ratio");
    put(m, "gcached.wait_us_per_delayed_hit",
        SimStats::ratio(s.delayed_hit_wait_ns, s.delayed_hits) * 1e-3, "us");
  }
  // Fill overshoot: what one async miss costs beyond its nominal fill, from
  // one client's async run against the same ops without a fill.
  {
    const auto async = make_cache(fill, fw, kShards, fill.fill_ns, &tracer);
    const LoadPass p =
        load_pass(*async, fw, 1, kOvershootOps, opt.seed, &tracer);
    checks.check(load_error(p, kOvershootOps, true).empty(), kOvershootOps,
                 "overshoot run: " + load_error(p, kOvershootOps, true));
    const auto plain = make_cache(fill, fw, kShards, 0, &tracer);
    const double direct_ns =
        per(direct_loop(*plain, fw, kOvershootOps, tracer).first,
            kOvershootOps);
    const double async_ns = per(p.result.seconds, kOvershootOps);
    put(m, "gcached.fill_overshoot_us",
        ((async_ns - direct_ns) / p.result.stats.miss_rate() -
         static_cast<double>(fill.fill_ns)) *
            1e-3,
        "us");
  }
}

// ---- obs ------------------------------------------------------------------------

void obs_layers(Checks& checks, Tracer& tracer, Metrics& m) {
  using Clock = std::chrono::steady_clock;
  std::int64_t sum = 0;
  {
    Tracer::Span s(&tracer, "obs.clock_pair", kObsLoops);
    for (std::uint64_t i = 0; i < kObsLoops; ++i) {
      const auto t0 = Clock::now();
      const auto t1 = Clock::now();
      sum += (t1 - t0).count();
    }
    put(m, "obs.clock_pair_ns", per(s.stop(), kObsLoops), "ns");
  }
  gc::obs::HdrHistogram hist;
  {
    Tracer::Span s(&tracer, "obs.hdr_record", kObsLoops);
    for (std::uint64_t i = 0; i < kObsLoops; ++i)
      hist.record((i * 2654435761ULL + static_cast<std::uint64_t>(sum)) %
                  100'000);
    put(m, "obs.hdr_record_ns", per(s.stop(), kObsLoops), "ns");
  }
  checks.check(hist.count() == kObsLoops, kObsLoops,
               "HdrHistogram lost records");
}

}  // namespace

Metrics run_layers(const Options& opt, Checks& checks, Tracer& tracer) {
  Metrics m;
  Tracer::Span root(&tracer, "layers");
  sim_layers(opt, checks, tracer, m);
  gcached_layers(opt, checks, tracer, m);
  obs_layers(checks, tracer, m);
  return m;
}

}  // namespace gcbench
