// Sweep engine: per-cell vs stack-column, plus one run_sweep wall.
//
// Two measurements, both asserting bit-identical SimStats before reporting:
//
//   * column — one (workload, stack policy) row over a geometric capacity
//     column, timed two ways: per-cell `simulate_fast_spec` (one trace pass
//     per capacity) and `simulate_column_spec` (ONE stack-distance pass for
//     the whole column). The headline is the stack path's speedup over
//     per-cell on the 64-capacity columns.
//   * grid — a mixed-cost policy grid through `run_sweep` (whole rows,
//     scheduled longest-estimated-first via estimated_sim_cost), checked
//     cell by cell against per-cell `simulate_fast_spec`.
//
// Note: in checking builds the stack path re-runs the per-cell engine as a
// cross-check, so its timings only mean something under GC_FAST_SIM (the
// `fast` preset); the JSON records which configuration ran, plus the git
// commit and machine it ran on. Output: aligned tables, optional CSV, and
// BENCH_sweep.json. See docs/PERF.md.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/simulator.hpp"
#include "policies/factory.hpp"
#include "sim/runner.hpp"
#include "sim/thread_pool.hpp"
#include "traces/synthetic.hpp"
#include "util/contracts.hpp"
#include "util/parse_number.hpp"

namespace gcaching::bench {
namespace {

struct Options {
  std::optional<std::string> csv_dir;
  std::string json_path = "BENCH_sweep.json";
  bool quick = false;
  int repeats = 3;
  std::size_t threads = 0;  // 0 = hardware concurrency
};

Options parse(int argc, char** argv) {
  Options opts;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--csv" && a + 1 < argc) {
      opts.csv_dir = argv[++a];
    } else if (arg == "--json" && a + 1 < argc) {
      opts.json_path = argv[++a];
    } else if (arg == "--threads" && a + 1 < argc) {
      opts.threads = parse_option<std::uint64_t>("threads", argv[++a]);
    } else if (arg == "--quick") {
      opts.quick = true;
      opts.repeats = 1;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0]
                << " [--csv DIR] [--json PATH] [--threads N] [--quick]\n";
      std::exit(0);
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      std::exit(2);
    }
  }
  return opts;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void require_identical(const std::vector<SimStats>& a,
                       const std::vector<SimStats>& b,
                       const std::string& what) {
  GC_REQUIRE(a.size() == b.size(), "result count mismatch: " + what);
  for (std::size_t i = 0; i < a.size(); ++i)
    GC_REQUIRE(a[i] == b[i], "stats mismatch (" + what + ") at column index " +
                                 std::to_string(i));
}

struct ColumnResult {
  std::string workload;
  std::string policy;
  std::size_t accesses = 0;
  std::size_t num_capacities = 0;
  double per_cell_s = 0.0;
  double stack_s = 0.0;
};

/// Times both column evaluations of one row and checks identity.
ColumnResult bench_column(const Options& opts, const std::string& spec,
                          const std::string& workload_name, const Workload& w,
                          const std::vector<std::size_t>& capacities) {
  const std::vector<BlockId> ids = compute_block_ids(*w.map, w.trace);
  const std::span<const BlockId> ids_span(ids);

  ColumnResult r;
  r.workload = workload_name;
  r.policy = spec;
  r.accesses = w.trace.size();
  r.num_capacities = capacities.size();
  r.per_cell_s = 1e300;
  r.stack_s = 1e300;

  std::vector<SimStats> per_cell(capacities.size());
  std::vector<SimStats> stack;
  for (int rep = 0; rep < opts.repeats; ++rep) {
    {
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < capacities.size(); ++i)
        per_cell[i] =
            simulate_fast_spec(spec, *w.map, w.trace, ids_span, capacities[i]);
      r.per_cell_s = std::min(r.per_cell_s, seconds_since(t0));
    }
    {
      const auto t0 = std::chrono::steady_clock::now();
      stack = simulate_column_spec(spec, *w.map, w.trace, ids_span, capacities);
      r.stack_s = std::min(r.stack_s, seconds_since(t0));
    }
  }
  require_identical(per_cell, stack, spec + " per-cell vs stack");
  return r;
}

struct GridResult {
  std::size_t cells = 0;
  std::uint64_t total_accesses = 0;
  std::size_t threads = 0;
  double sweep_s = 0.0;
};

GridResult bench_grid(const Options& opts, const std::vector<Workload>& ws,
                      const std::vector<std::string>& policies,
                      const std::vector<std::size_t>& capacities) {
  sim::SweepSpec spec;
  spec.workloads = &ws;
  spec.policy_specs = policies;
  spec.capacities = capacities;
  spec.threads = opts.threads;

  GridResult r;
  r.cells = ws.size() * policies.size() * capacities.size();
  for (const Workload& w : ws)
    r.total_accesses += w.trace.size() * policies.size() * capacities.size();
  r.threads = ThreadPool(opts.threads).num_threads();
  r.sweep_s = 1e300;

  std::vector<sim::SweepCell> cells;
  for (int rep = 0; rep < opts.repeats; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    cells = sim::run_sweep(spec);
    r.sweep_s = std::min(r.sweep_s, seconds_since(t0));
  }
  GC_REQUIRE(cells.size() == r.cells, "grid size mismatch");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const sim::SweepCell& cell = cells[i];
    const Workload& w = ws[cell.workload_index];
    GC_REQUIRE(cell.stats == simulate_fast_spec(policies[cell.policy_index], w,
                                                cell.capacity),
               "grid cell mismatch at " + std::to_string(i));
  }
  return r;
}

void write_json(const Options& opts, const std::vector<ColumnResult>& columns,
                const GridResult& grid) {
  std::ofstream out(opts.json_path);
  GC_REQUIRE(out.good(), "cannot open " + opts.json_path + " for writing");
  out << "{\n"
      << "  \"bench\": \"sweep\",\n"
      << "  \"git_commit\": \"" << current_git_commit() << "\",\n"
      << "  \"machine\": \"" << machine_name() << "\",\n"
      << "  \"gc_fast_sim\": " << (kHotChecksEnabled ? "false" : "true")
      << ",\n"
      << "  \"quick\": " << (opts.quick ? "true" : "false") << ",\n"
      << "  \"repeats\": " << opts.repeats << ",\n"
      << "  \"columns\": [\n";
  for (std::size_t i = 0; i < columns.size(); ++i) {
    const ColumnResult& c = columns[i];
    out << "    {\"workload\": \"" << c.workload << "\", \"policy\": \""
        << c.policy << "\", \"accesses\": " << c.accesses
        << ", \"num_capacities\": " << c.num_capacities
        << ", \"per_cell_seconds\": " << c.per_cell_s
        << ", \"stack_seconds\": " << c.stack_s
        << ", \"stack_speedup\": " << c.per_cell_s / c.stack_s
        << ", \"identical\": true}" << (i + 1 < columns.size() ? "," : "")
        << "\n";
  }
  out << "  ],\n"
      << "  \"grid\": {\"cells\": " << grid.cells
      << ", \"total_accesses\": " << grid.total_accesses
      << ", \"threads\": " << grid.threads
      << ", \"sweep_seconds\": " << grid.sweep_s
      << ", \"identical\": true}\n"
      << "}\n";
}

int run(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  BenchOptions table_opts;
  table_opts.csv_dir = opts.csv_dir;
  table_opts.quick = opts.quick;

  // The throughput bench's headline workload: small enough to stay cache
  // resident, so column timings measure engine work rather than DRAM.
  const std::size_t len = opts.quick ? 200'000 : 2'000'000;
  const Workload zipf = traces::zipf_items(4096, 16, len, 0.9, 42);
  // Two MRC-style columns over the same 48..3072 range: the 16-capacity
  // minimum from the acceptance bar, and the dense 64-capacity column that
  // real miss-ratio-curve sampling uses — per-cell cost grows with every
  // added capacity, the stack pass does not.
  std::vector<std::size_t> caps16, caps64;
  for (std::size_t i = 1; i <= 16; ++i) caps16.push_back(192 * i);
  for (std::size_t i = 1; i <= 64; ++i) caps64.push_back(48 * i);

  TableSink column_table(
      table_opts, "Capacity-column engines (seconds, min of repeats)",
      "sweep_columns",
      {"workload", "policy", "caps", "per_cell_s", "stack_s", "stack_x"});
  std::vector<ColumnResult> columns;
  for (const auto& [spec, caps] :
       std::vector<std::pair<std::string, const std::vector<std::size_t>*>>{
           {"item-lru", &caps16},
           {"item-lru", &caps64},
           {"block-lru", &caps16},
           {"block-lru", &caps64}}) {
    const ColumnResult r = bench_column(opts, spec, "zipf", zipf, *caps);
    column_table.add_row({r.workload, r.policy, fmti(r.num_capacities),
                          fmt(r.per_cell_s, 4), fmt(r.stack_s, 4),
                          fmtr(r.per_cell_s / r.stack_s)});
    columns.push_back(r);
  }
  column_table.flush();

  // Mixed-cost grid: the policy cost skew is what the longest-first row
  // schedule exists for. Two workloads keep the block-id precompute
  // parallelism honest too.
  const std::size_t grid_len = opts.quick ? 100'000 : 1'000'000;
  std::vector<Workload> grid_workloads;
  grid_workloads.push_back(traces::zipf_items(4096, 16, grid_len, 0.9, 42));
  grid_workloads.push_back(
      traces::hot_item_per_block(256, 16, grid_len, 64, 0.2, 7));
  const std::vector<std::string> grid_policies = {"item-lfu", "item-lru",
                                                  "item-fifo", "block-lru"};
  const GridResult grid =
      bench_grid(opts, grid_workloads, grid_policies, caps16);

  TableSink grid_table(
      table_opts, "Mixed lfu+lru grid through run_sweep (seconds)",
      "sweep_grid", {"cells", "threads", "sweep_s", "Macc/s"});
  grid_table.add_row(
      {fmti(grid.cells), fmti(grid.threads), fmt(grid.sweep_s, 4),
       fmt(static_cast<double>(grid.total_accesses) / grid.sweep_s * 1e-6,
           1)});
  grid_table.flush();

  write_json(opts, columns, grid);
  std::cout << "wrote " << opts.json_path << "\n";
  return 0;
}

}  // namespace
}  // namespace gcaching::bench

int main(int argc, char** argv) {
  return gcaching::bench::run(argc, argv);
}
