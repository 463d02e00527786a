// The workloads: sweep-grid, gcached-hot and gcached-fill.
//
// Each run sets up, then runs measured units until the time budget is spent,
// repeating the setup into scratch state after every unit (setup_s is the
// median), then checks every output it kept. Units are whole calls into the
// system: one sim::run_sweep over the grid, or one gcached::run_load pass
// over the trace with a fresh cache.
#include <algorithm>
#include <iostream>
#include <mutex>
#include <thread>
#include <utility>

#include "gcached/gcached.hpp"
#include "gcbench.hpp"
#include "policies/factory.hpp"
#include "sim/runner.hpp"

namespace gcbench {

namespace gc = gcaching;
namespace gcd = gcaching::gcached;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::size_t kMinUnits = 3;

/// Runs `unit` until the budget is spent and every kind of unit ran at least
/// kMinUnits times. Unit 0 warms caches and allocators up: its outputs are
/// checked like every other unit's, but its wall time is not kept. In a
/// traced run every second unit records spans, so the traced and untraced
/// units interleave and their median walls give the tracing overhead.
/// `unit(tracer, index)` returns the unit's wall seconds and records its
/// other timings only when `index > 0`.
///
/// `setup()` repeats the workload's setup into scratch state after every
/// unit. Machine speed drifts over seconds, so setup samples spread over the
/// whole run give a median of the run, not of one moment of it.
template <typename Unit, typename Setup>
void measure(double budget_s, Tracer* tracer, std::vector<double>& plain,
             std::vector<double>& traced, Unit&& unit, Setup&& setup) {
  unit(nullptr, 0);
  setup();
  const auto t0 = Clock::now();
  for (std::size_t i = 1;; ++i) {
    const bool traced_unit = tracer != nullptr && i % 2 == 0;
    const double wall = unit(traced_unit ? tracer : nullptr, i);
    (traced_unit ? traced : plain).push_back(wall);
    setup();
    if (seconds_since(t0) >= budget_s && plain.size() >= kMinUnits &&
        (tracer == nullptr || traced.size() >= kMinUnits))
      break;
  }
}

/// Metrics every workload reports besides its own, from its unit walls.
void put_common(Metrics& m, const std::vector<double>& setup_s,
                const std::vector<double>& gen_s,
                const std::vector<double>& plain,
                const std::vector<double>& traced) {
  std::cout << "unit walls (s):";
  for (const double w : plain) std::cout << " " << w;
  std::cout << "\n";
  put(m, "setup_s", median(setup_s), "s");
  put(m, "traces.gen_s", median(gen_s), "s");
  if (!traced.empty())
    put(m, "trace.overhead_share", median(traced) / median(plain) - 1.0,
        "ratio");
}

// ---- sweep-grid ---------------------------------------------------------------

Metrics run_sweep_grid(const Options& opt, Checks& checks, Tracer* tracer) {
  std::vector<double> setup_s, gen_s;
  const auto setup = [&](Tracer* t) {
    const auto t0 = Clock::now();
    double gen = 0.0;
    std::vector<Workload> traces = sweep_traces(opt.seed, t, &gen);
    setup_s.push_back(seconds_since(t0));
    gen_s.push_back(gen);
    return traces;
  };
  const std::vector<Workload> traces = setup(tracer);

  const std::size_t ncells =
      traces.size() * policies().size() * capacities().size();
  const double grid_accesses = static_cast<double>(ncells * kSweepLength);
  std::vector<SimStats> first;
  std::vector<double> plain, traced, ops_s, p50, p99;
  std::uint64_t row_samples = 0;
  measure(opt.trace ? opt.seconds / 2 : opt.seconds, tracer, plain, traced,
          [&](Tracer* t, std::size_t i) {
            SweepPass pass = sweep_pass(traces, policies(), kSweepThreads, t);
            if (i == 0 && opt.corrupt) ++pass.cells[0].misses;
            for (std::size_t c = 0; c < ncells; ++c) {
              const SimStats& s = pass.cells[c];
              std::string err = conservation_error(s, true);
              if (err.empty() && s.accesses != kSweepLength)
                err = "accesses != trace length";
              if (err.empty() && i > 0 && s != first[c])
                err = "stats differ from the first pass";
              checks.check(err.empty(), 1,
                           "sweep-grid pass " + std::to_string(i) + " cell " +
                               std::to_string(c) + ": " + err);
            }
            if (i == 0) {
              first = pass.cells;
              return pass.wall_s;
            }
            ops_s.push_back(grid_accesses / pass.wall_s);
            p50.push_back(quantile(pass.row_s, 0.50) * 1e6);
            p99.push_back(quantile(pass.row_s, 0.99) * 1e6);
            row_samples += pass.row_s.size();
            return pass.wall_s;
          },
          [&] { setup(nullptr); });

  // The middle capacity column again, cell by cell through the per-cell
  // fast engine: run_sweep's row engines must agree with it bit for bit.
  const std::size_t nc = capacities().size();
  const std::size_t mid = nc / 2;
  for (std::size_t w = 0; w < traces.size(); ++w)
    for (std::size_t p = 0; p < policies().size(); ++p) {
      const Workload& wl = traces[w];
      const SimStats ref =
          gc::simulate_fast_spec(policies()[p], *wl.map, wl.trace,
                                 wl.trace.block_ids(), mid_capacity());
      checks.check(ref == first[(w * policies().size() + p) * nc + mid], 1,
                   "sweep-grid cell (" + wl.name + ", " + policies()[p] +
                       ") differs from simulate_fast_spec");
    }

  // Golden digest of every cell, recorded at a fixed seed.
  const std::string run_digest = hex(digest(first));
  std::cout << "sweep-grid digest at seed " << opt.seed << ": " << run_digest
            << "\n";
  std::string golden_actual = run_digest;
  if (opt.golden_seed != opt.seed) {
    const std::vector<Workload> golden_traces =
        sweep_traces(opt.golden_seed, nullptr);
    golden_actual =
        hex(digest(sweep_pass(golden_traces, policies(), kSweepThreads, nullptr)
                       .cells));
  }
  checks.check(!opt.golden_digest.empty() && golden_actual == opt.golden_digest,
               ncells,
               "sweep-grid digest at seed " + std::to_string(opt.golden_seed) +
                   " is " + golden_actual + ", golden is '" +
                   opt.golden_digest + "'");

  SimStats total;
  for (const SimStats& s : first) total += s;
  Metrics m;
  put_common(m, setup_s, gen_s, plain, traced);
  put(m, "wall_s", median(plain), "s");
  put(m, "ops_per_s", median(ops_s), "1/s");
  put(m, "p50_us", median(p50), "us");
  put(m, "p99_us", median(p99), "us");
  put(m, "miss_ratio", total.miss_rate(), "ratio");
  put(m, "amat_us", total.amat_ns(kFillNs) * 1e-3, "us");
  std::cout << "sweep-grid: " << ncells << " cells (" << traces.size()
            << " traces x " << policies().size() << " policies x " << nc
            << " capacities), " << plain.size() + traced.size()
            << " timed passes after one warm-up; p50/p99 are medians over "
               "passes of "
            << row_samples / (plain.size() + traced.size())
            << " row service times each\n";
  return m;
}

// ---- gcached-hot / gcached-fill -------------------------------------------------

Metrics run_gcached(const Options& opt, const GcachedCase& c, Checks& checks,
                    Tracer* tracer) {
  std::vector<double> setup_s, gen_s;
  const auto setup = [&](Tracer* t) {
    const auto t0 = Clock::now();
    std::pair<Workload, std::unique_ptr<gcd::ConcurrentCache>> made;
    Workload& w = made.first;
    {
      Tracer::Span s(t, "traces.generate", c.length);
      w = c.make(c.length, opt.seed);
      gen_s.push_back(s.stop());
    }
    {
      Tracer::Span s(t, "core.precompute_block_ids", c.length);
      w.trace.precompute_block_ids(*w.map);
    }
    made.second = make_cache(c, w, kShards, c.fill_ns, t);
    setup_s.push_back(seconds_since(t0));
    return made;
  };
  auto [w, cache] = setup(tracer);

  // Anchor: one shard, one client and no fill replay the trace in order, so
  // the runtime must reproduce the fast engine bit for bit.
  {
    const auto anchor = make_cache(c, w, 1, 0, nullptr);
    const LoadPass p = load_pass(*anchor, w, 1, 0, opt.seed, nullptr);
    const SimStats ref = gc::simulate_fast_spec(
        c.spec, *w.map, w.trace, w.trace.block_ids(), mid_capacity());
    checks.check(p.result.stats == ref && load_error(p, c.length, false).empty(),
                 c.length,
                 c.name + " anchor: 1 shard / 1 client / fill 0 differs from "
                          "simulate_fast_spec");
  }

  SimStats total;
  std::vector<double> plain, traced, ops_s, p50, p99;
  measure(opt.trace ? opt.seconds / 2 : opt.seconds, tracer, plain, traced,
          [&](Tracer* t, std::size_t i) {
            if (i > 0) cache = make_cache(c, w, kShards, c.fill_ns, t);
            LoadPass p = load_pass(*cache, w, kClients, 0, opt.seed + i, t);
            if (i == 0 && opt.corrupt) ++p.result.stats.misses;
            const std::string err = load_error(p, c.length, c.fill_ns != 0);
            checks.check(err.empty(), c.length,
                         c.name + " pass " + std::to_string(i) + ": " + err);
            total += p.result.stats;
            if (i == 0) return p.result.seconds;
            ops_s.push_back(p.result.ops_per_sec);
            p50.push_back(p.result.p50_us);
            p99.push_back(p.result.p99_us);
            return p.result.seconds;
          },
          [&] { setup(nullptr); });

  Metrics m;
  put_common(m, setup_s, gen_s, plain, traced);
  put(m, "wall_s", median(plain), "s");
  put(m, "ops_per_s", median(ops_s), "1/s");
  put(m, "p50_us", median(p50), "us");
  put(m, "p99_us", median(p99), "us");
  put(m, "miss_ratio", total.miss_rate(), "ratio");
  put(m, "amat_us", total.amat_ns(kFillNs) * 1e-3, "us");
  std::cout << c.name << ": " << c.spec << ", " << kShards << " shards, "
            << kClients << " closed-loop clients, fill "
            << static_cast<double>(c.fill_ns) * 1e-3 << " us; "
            << plain.size() + traced.size()
            << " timed passes after one warm-up; p50/p99 are medians over "
               "passes of "
            << c.length
            << " samples each\n";
  return m;
}

}  // namespace

// ---- Shared calls ---------------------------------------------------------------

std::vector<Workload> sweep_traces(std::uint64_t seed, Tracer* tracer,
                                   double* gen_s) {
  std::vector<Workload> traces;
  {
    Tracer::Span s(tracer, "traces.generate", 2 * kSweepLength);
    traces.push_back(make_zipf(kSweepItems, kSweepLength, seed));
    traces.push_back(make_scan(kSweepItems, kSweepLength, seed));
    const double gen = s.stop();
    if (gen_s != nullptr) *gen_s = gen;
  }
  Tracer::Span s(tracer, "core.precompute_block_ids", 2 * kSweepLength);
  for (Workload& w : traces) w.trace.precompute_block_ids(*w.map);
  return traces;
}

SweepPass sweep_pass(const std::vector<Workload>& traces,
                     const std::vector<std::string>& specs,
                     std::size_t threads, Tracer* tracer) {
  gc::sim::SweepSpec spec;
  spec.workloads = &traces;
  spec.policy_specs = specs;
  spec.capacities = capacities();
  spec.threads = threads;
  // Each worker runs its rows back to back, so the gap between a worker's
  // consecutive completions is the service time of the row it finished.
  std::mutex mu;
  const std::size_t ncells =
      traces.size() * specs.size() * capacities().size();
  std::vector<std::pair<Clock::time_point, std::thread::id>> done;
  done.reserve(ncells);
  spec.progress = [&mu, &done](std::size_t, std::size_t) {
    const auto now = Clock::now();
    const std::lock_guard<std::mutex> lock(mu);
    done.emplace_back(now, std::this_thread::get_id());
  };

  SweepPass pass;
  Tracer::Span s(tracer, "sim.run_sweep", ncells * kSweepLength);
  const auto t0 = Clock::now();
  pass.cells.reserve(ncells);
  for (const gc::sim::SweepCell& cell : gc::sim::run_sweep(spec))
    pass.cells.push_back(cell.stats);
  pass.wall_s = seconds_since(t0);
  s.stop();

  std::sort(done.begin(), done.end());
  std::vector<std::pair<std::thread::id, Clock::time_point>> last;
  for (const auto& [t, id] : done) {
    auto it = std::find_if(last.begin(), last.end(),
                           [&id](const auto& e) { return e.first == id; });
    if (it == last.end()) it = last.insert(last.end(), {id, t0});
    pass.row_s.push_back(std::chrono::duration<double>(t - it->second).count());
    it->second = t;
  }
  return pass;
}

GcachedCase hot_case() {
  return {"gcached-hot", "item-lru",
          [](std::size_t length, std::uint64_t seed) {
            return make_zipf(kHotItems, length, seed);
          },
          kHotLength, 0};
}

GcachedCase fill_case() {
  return {"gcached-fill", "block-lru",
          [](std::size_t length, std::uint64_t seed) {
            return make_scan(kFillItems, length, seed);
          },
          kFillLength, kFillNs};
}

std::unique_ptr<gcd::ConcurrentCache> make_cache(const GcachedCase& c,
                                                 const Workload& w,
                                                 std::size_t shards,
                                                 std::uint64_t fill_ns,
                                                 Tracer* tracer) {
  Tracer::Span s(tracer, "gcached.make_concurrent_cache");
  gcd::GcachedConfig cfg;
  cfg.num_shards = shards;
  cfg.capacity = mid_capacity();
  cfg.fill_latency_ns = fill_ns;
  cfg.fill_mode = gcd::FillMode::kAsync;
  return gcd::make_concurrent_cache(c.spec, w.map, cfg);
}

LoadPass load_pass(gcd::ConcurrentCache& cache, const Workload& w,
                   std::size_t clients, std::uint64_t ops, std::uint64_t seed,
                   Tracer* tracer, gc::obs::Monitor* monitor) {
  gc::obs::Monitor idle;  // never started: only the final harvest runs
  gcd::LoadSpec load;
  load.threads = clients;
  load.total_ops = ops;
  load.seed = seed;
  load.monitor = monitor != nullptr ? monitor : &idle;
  Tracer::Span s(tracer, "gcached.run_load", ops == 0 ? w.trace.size() : ops);
  LoadPass p{gcd::run_load(cache, w.trace, w.trace.block_ids(), load), 0};
  s.stop();
  const std::vector<gc::obs::Snapshot> snaps = load.monitor->snapshots();
  if (!snaps.empty()) p.histogram_count = snaps.back().latency.count;
  return p;
}

std::string load_error(const LoadPass& p, std::uint64_t ops, bool fill) {
  const SimStats& s = p.result.stats;
  if (p.result.ops != ops) return "run_load completed a different op count";
  if (s.accesses != ops) return "accesses != ops";
  if (p.histogram_count != ops) return "merged histogram count != ops";
  if (!fill && s.delayed_hits != 0) return "delayed hits without a fill";
  return conservation_error(s, false);
}

Metrics run_workload(const Options& opt, Checks& checks, Tracer* tracer) {
  if (opt.workload == "sweep-grid") return run_sweep_grid(opt, checks, tracer);
  if (opt.workload == "gcached-hot")
    return run_gcached(opt, hot_case(), checks, tracer);
  return run_gcached(opt, fill_case(), checks, tracer);
}

}  // namespace gcbench
