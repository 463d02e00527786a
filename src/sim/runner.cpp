#include "sim/runner.hpp"

#include <algorithm>
#include <atomic>
#include <span>

#include "core/simulator.hpp"
#include "locality/sample.hpp"
#include "obs/obs.hpp"
#include "policies/factory.hpp"
#include "sim/thread_pool.hpp"
#include "util/contracts.hpp"

namespace gcaching::sim {

std::vector<SweepCell> run_sweep(const SweepSpec& spec) {
  GC_REQUIRE(spec.workloads != nullptr, "sweep needs workloads");
  GC_REQUIRE(!spec.policy_specs.empty(), "sweep needs at least one policy");
  GC_REQUIRE(!spec.capacities.empty(), "sweep needs at least one capacity");
  GC_REQUIRE(spec.sample_rate > 0.0 && spec.sample_rate <= 1.0,
             "sample_rate must be in (0, 1]");

  const std::size_t nw = spec.workloads->size();
  const std::size_t np = spec.policy_specs.size();
  const std::size_t nc = spec.capacities.size();
  std::vector<SweepCell> cells(nw * np * nc);
  for (std::size_t w = 0; w < nw; ++w)
    for (std::size_t p = 0; p < np; ++p)
      for (std::size_t c = 0; c < nc; ++c) {
        SweepCell& cell = cells[(w * np + p) * nc + c];
        cell.workload_index = w;
        cell.policy_index = p;
        cell.capacity = spec.capacities[c];
      }

  ThreadPool pool(spec.threads);

  // Sampling pass: filter each workload ONCE through the block-consistent
  // spatial-hash sampler; every engine below then runs on the filtered
  // trace. The per-workload effective rate drives capacity scaling and the
  // final counter rescale. Workloads are independent, so the (memory-bound)
  // filter passes run across the pool. Alternatively the caller already
  // filtered (spec.presampled, e.g. streamed from a binary trace file) and
  // only the scaling/rescale half applies here.
  const bool cfg_sampling = spec.sample_rate < 1.0 || spec.sample_blocks > 0;
  const bool presampled = !spec.presampled.empty();
  GC_REQUIRE(!(cfg_sampling && presampled),
             "presampled workloads cannot be sampled again");
  GC_REQUIRE(!presampled || spec.presampled.size() == nw,
             "presampled info must cover every workload");
  const bool sampling = cfg_sampling || presampled;
  std::vector<Workload> sampled;
  std::vector<std::uint64_t> sample_totals(nw, 0);
  std::vector<double> sample_rates(nw, 1.0);
  if (presampled) {
    for (std::size_t w = 0; w < nw; ++w) {
      const SweepSpec::Presampled& info = spec.presampled[w];
      GC_REQUIRE(info.rate > 0.0 && info.rate <= 1.0,
                 "presampled rate must be in (0, 1]");
      GC_REQUIRE(info.total_accesses >= (*spec.workloads)[w].trace.size(),
                 "presampled total is smaller than the filtered trace");
      sample_totals[w] = info.total_accesses;
      sample_rates[w] = info.rate;
    }
  }
  if (cfg_sampling) {
    sampled.resize(nw);
    pool.parallel_for(nw, [&](std::size_t w) {
      const Workload& workload = (*spec.workloads)[w];
      GC_REQUIRE(workload.map != nullptr, "workload has no block map");
      GC_OBS_SPAN(span, "sample_workload", "sweep");
      GC_OBS_SPAN_ARG(span, "workload", std::to_string(w));
      locality::SampleConfig cfg;
      cfg.rate = spec.sample_rate;
      cfg.max_blocks = spec.sample_blocks;
      cfg.seed = spec.sample_seed;
      locality::SampledTrace s = locality::sample_workload(workload, cfg);
      sample_totals[w] = s.total_accesses;
      // Scale capacities by the fraction of this universe the filter
      // actually accepted, not the nominal rate: the binomial gap between
      // the two shifts every scaled capacity and is the dominant
      // controllable error at small rates.
      sample_rates[w] =
          locality::realized_rate(s.filter, workload.map->num_blocks());
      sampled[w] = locality::make_sampled_workload(workload, std::move(s));
      GC_OBS_COUNT("sweep.workloads_sampled", 1);
    });
  }
  const std::vector<Workload>& work =
      cfg_sampling ? sampled : *spec.workloads;

  // Maps an original capacity to the one simulated for workload `w` —
  // scaled by the sample rate, floored at the partition's max block size so
  // block-granularity policies stay legal. Identity when not sampling.
  const auto effective_capacity = [&](std::size_t w, std::size_t capacity) {
    return sampling ? locality::scaled_capacity(
                          capacity, sample_rates[w],
                          work[w].map->max_block_size())
                    : capacity;
  };
  // Rescales a sampled run's counters to full-trace estimates; identity
  // (bit-for-bit) when not sampling.
  const auto correct_stats = [&](std::size_t w, const SimStats& stats) {
    return sampling ? locality::unsample_stats(stats, sample_totals[w])
                    : stats;
  };

  // Resolve each workload's per-access block ids once, up front: every
  // fast-path cell of the same workload shares one read-only array, so no
  // cell pays a virtual BlockMap::block_of call in its hot loop. Sampled
  // traces carry adopted ids from the filter pass, so resolve_block_ids
  // reuses them for free. The resolution itself is memory-bound and
  // per-workload independent, so it runs across the pool too.
  std::vector<std::vector<BlockId>> block_id_storage(nw);
  std::vector<std::span<const BlockId>> block_ids(nw);
  if (spec.use_fast_path)
    pool.parallel_for(nw, [&](std::size_t w) {
      const Workload& workload = work[w];
      GC_REQUIRE(workload.map != nullptr, "workload has no block map");
      GC_OBS_SPAN(span, "precompute_block_ids", "sweep");
      GC_OBS_SPAN_ARG(span, "workload", std::to_string(w));
      block_ids[w] = resolve_block_ids(*workload.map, workload.trace,
                                       block_id_storage[w]);
      GC_OBS_COUNT("sweep.block_id_precomputes", 1);
    });

  // One task per (workload, policy) row, every capacity in one go: the fast
  // engine through simulate_column_spec (a stack pass for item-lru and
  // block-lru, per-cell runs otherwise), the verifying engine one
  // Simulation per capacity. Per-policy costs skew ~17x, so rows go out
  // longest-estimated-first (LPT): a slow row dispatched last would hold the
  // whole sweep hostage on one thread. Cells are written into preassigned
  // row-major slices, so output order is deterministic no matter how the
  // schedule interleaves.
  struct Row {
    std::size_t w = 0;
    std::size_t p = 0;
    double cost = 0.0;
  };
  std::vector<Row> rows;
  rows.reserve(nw * np);
  for (std::size_t w = 0; w < nw; ++w)
    for (std::size_t p = 0; p < np; ++p)
      rows.push_back({w, p,
                      estimated_sim_cost(spec.policy_specs[p],
                                         work[w].trace.size())});
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Row& a, const Row& b) { return a.cost > b.cost; });
  // `done` is shared across workers; the progress callback itself is the
  // caller's to make thread-safe.
  std::atomic<std::size_t> done{0};
  const std::size_t total_rows = rows.size();
  for (const Row& row : rows)
    pool.submit([&spec, &cells, &block_ids, &done, &work, &effective_capacity,
                 &correct_stats, row, np, nc, total_rows] {
      const Workload& workload = work[row.w];
      const std::string& policy_spec = spec.policy_specs[row.p];
      {
        GC_OBS_SPAN(span, "sweep_row", "sweep");
        GC_OBS_SPAN_ARG(span, "policy", policy_spec);
        GC_OBS_SPAN_ARG(span, "workload", std::to_string(row.w));
        std::vector<std::size_t> caps(spec.capacities);
        for (std::size_t& cap : caps) cap = effective_capacity(row.w, cap);
        std::vector<SimStats> column;
        if (spec.use_fast_path) {
          column = simulate_column_spec(policy_spec, *workload.map,
                                        workload.trace, block_ids[row.w], caps);
        } else {
          for (const std::size_t cap : caps) {
            const auto policy = make_policy(policy_spec, cap);
            column.push_back(simulate(workload, *policy, cap));
          }
        }
        for (std::size_t c = 0; c < nc; ++c)
          cells[(row.w * np + row.p) * nc + c].stats =
              correct_stats(row.w, column[c]);
      }
      GC_OBS_COUNT("sweep.rows_completed", 1);
      if (spec.progress)
        spec.progress(done.fetch_add(1, std::memory_order_relaxed) + 1,
                      total_rows);
    });
  pool.wait();
  return cells;
}

}  // namespace gcaching::sim
