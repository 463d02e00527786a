// Concurrent gcached runtime scaling: closed-loop throughput and latency
// percentiles across a (fill mode) x shard-count x thread-count grid.
//
// Each grid cell builds a fresh ShardedCache and replays the same Zipf
// workload through N closed-loop client threads (bench/loadgen). Misses pay
// a simulated backend fill (--fill-us); WHERE that fill is paid is the
// point of the grid's mode axis:
//
//   sync   the legacy path — the fill sleeps while holding the shard
//          exclusively, so every fill serializes everything behind that
//          shard's lock. Shard count is the only source of overlap.
//   async  the MSHR path — the fill sleeps with no lock held; concurrent
//          accesses to the same shard proceed, accesses to the in-flight
//          block coalesce as delayed hits. Fills overlap even within one
//          shard, which is why the async/sync ratio at a fixed
//          (shards, threads) cell is the headline number.
//
// Ratios keep the scaling signal machine-independent — the CI perf-smoke
// gates assert sync (8 shards, 4 threads) >= 2x sync (1, 1), and async >=
// 2x sync at (8 shards, 8 threads), never an absolute number. Alongside
// throughput, each cell reports AMAT (average memory access time charged
// to fills: (misses*fill + delayed-hit waits) / accesses) and the
// delayed-hit counters, which only the async mode can make non-zero.
//
// Output: aligned table, optional CSV, and BENCH_gcached.json with the full
// grid plus git_commit/machine provenance stamps (see bench_common.hpp).
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "gcached/gcached.hpp"
#include "gcached/loadgen.hpp"
#include "obs/gcmon.hpp"
#include "obs/obs.hpp"
#include "obs/shard_metrics.hpp"
#include "traces/synthetic.hpp"
#include "util/contracts.hpp"
#include "util/parse_number.hpp"

namespace gcaching::bench {
namespace {

struct Options {
  std::optional<std::string> csv_dir;
  std::string json_path = "BENCH_gcached.json";
  std::optional<std::string> compare_path;  // previous BENCH_gcached.json
  bool quick = false;
  std::string policy = "item-lru";
  std::vector<std::size_t> shards;   // empty = default grid
  std::vector<std::size_t> threads;  // empty = default grid
  std::uint64_t ops = 0;             // 0 = default per-cell op count
  double fill_us = 50.0;
  /// Which fill-mode rows to run: "sync", "async", or "both" (default —
  /// the async/sync headline ratio needs both sides of every cell).
  std::string fill_mode = "both";
  std::size_t mshrs = 8;  ///< MSHR registers per shard (async mode)
  std::uint64_t seed = 1;
  /// Attach a live gcmon monitor (atlas + snapshot thread) to every cell —
  /// the configuration the CI overhead gate measures against a plain run.
  bool mon = false;
  std::uint64_t mon_interval_ms = 10;
  /// Capture per-thread hardware counters into the JSON (loud fallback to
  /// perf_valid=false where perf_event_open is unavailable).
  bool perf = false;
};

/// The comma-separated list of sizes given as --`key`.
std::vector<std::size_t> parse_size_list(const std::string& key,
                                         const std::string& arg) {
  std::vector<std::size_t> out;
  std::size_t start = 0;
  while (start <= arg.size()) {
    const std::size_t comma = arg.find(',', start);
    const std::size_t end = comma == std::string::npos ? arg.size() : comma;
    if (end > start)
      out.push_back(parse_option<std::uint64_t>(
          key, std::string_view(arg).substr(start, end - start)));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

Options parse(int argc, char** argv) {
  Options opts;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--csv" && a + 1 < argc) {
      opts.csv_dir = argv[++a];
    } else if (arg == "--json" && a + 1 < argc) {
      opts.json_path = argv[++a];
    } else if (arg == "--policy" && a + 1 < argc) {
      opts.policy = argv[++a];
    } else if (arg == "--shards" && a + 1 < argc) {
      opts.shards = parse_size_list("shards", argv[++a]);
    } else if (arg == "--threads" && a + 1 < argc) {
      opts.threads = parse_size_list("threads", argv[++a]);
    } else if (arg == "--ops" && a + 1 < argc) {
      opts.ops = parse_option<std::uint64_t>("ops", argv[++a]);
    } else if (arg == "--fill-us" && a + 1 < argc) {
      opts.fill_us = parse_option<double>("fill-us", argv[++a]);
      if (opts.fill_us * 1000.0 >= 0x1p64) {  // must fit the ns count
        std::cerr << "--fill-us is out of range\n";
        std::exit(2);
      }
    } else if (arg == "--fill-mode" && a + 1 < argc) {
      opts.fill_mode = argv[++a];
      if (opts.fill_mode != "sync" && opts.fill_mode != "async" &&
          opts.fill_mode != "both") {
        std::cerr << "--fill-mode must be sync, async, or both (got "
                  << opts.fill_mode << ")\n";
        std::exit(2);
      }
    } else if (arg == "--mshrs" && a + 1 < argc) {
      opts.mshrs = parse_option<std::uint64_t>("mshrs", argv[++a]);
    } else if (arg == "--seed" && a + 1 < argc) {
      opts.seed = parse_option<std::uint64_t>("seed", argv[++a]);
    } else if (arg == "--compare" && a + 1 < argc) {
      opts.compare_path = argv[++a];
    } else if (arg == "--mon-interval-ms" && a + 1 < argc) {
      opts.mon_interval_ms =
          parse_option<std::uint64_t>("mon-interval-ms", argv[++a]);
    } else if (arg == "--mon") {
      opts.mon = true;
    } else if (arg == "--perf") {
      opts.perf = true;
    } else if (arg == "--quick") {
      opts.quick = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0]
                << " [--csv DIR] [--json PATH] [--compare OLD.json]"
                << " [--quick] [--policy SPEC] [--shards S[,S...]]"
                << " [--threads N[,N...]] [--ops N] [--fill-us F]"
                << " [--fill-mode sync|async|both] [--mshrs N]"
                << " [--seed S] [--mon] [--mon-interval-ms M] [--perf]\n";
      std::exit(0);
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      std::exit(2);
    }
  }
  if (opts.shards.empty())
    opts.shards = opts.quick ? std::vector<std::size_t>{1, 2, 8}
                             : std::vector<std::size_t>{1, 2, 8, 32};
  // Quick threads include 8 so the CI async-vs-sync gate cell
  // (8 shards, 8 threads) exists even under --quick.
  if (opts.threads.empty())
    opts.threads = opts.quick ? std::vector<std::size_t>{1, 4, 8}
                              : std::vector<std::size_t>{1, 2, 4, 8};
  if (opts.ops == 0) opts.ops = opts.quick ? 40'000 : 150'000;
  return opts;
}

struct GridCell {
  std::string mode;  // "sync" | "async"
  std::size_t shards = 0;
  std::size_t threads = 0;
  gcached::LoadResult load;
};

/// An old BENCH_gcached.json cell, reloaded for `--compare`.
struct OldCell {
  std::string mode;  // cells that predate the mode axis load as "sync"
  std::size_t shards = 0;
  std::size_t threads = 0;
  double ops_per_sec = 0.0;
};

/// A previous run's JSON: provenance header plus result cells (the same
/// line-oriented scan bench_throughput uses — the format is our own
/// line-per-cell serialization, so this is exact).
struct OldJson {
  std::string git_commit;  // empty when the baseline predates stamping
  std::string machine;
  std::vector<OldCell> cells;
};

OldJson read_old_json(const std::string& path) {
  std::ifstream in(path);
  GC_REQUIRE(in.good(), "cannot open --compare file " + path);
  OldJson old;
  std::string line;
  while (std::getline(in, line)) {
    if (const auto commit = json_line_string(line, "git_commit"))
      old.git_commit = *commit;
    if (const auto machine = json_line_string(line, "machine"))
      old.machine = *machine;
    const auto shards = json_line_number(line, "shards");
    const auto threads = json_line_number(line, "threads");
    const auto ops = json_line_number(line, "ops_per_sec");
    if (shards && threads && ops) {
      // Baselines written before the fill-mode axis only ever ran the
      // synchronous path, so an absent tag means "sync", not "unknown".
      const auto mode = json_line_string(line, "fill_mode");
      old.cells.push_back({mode ? *mode : std::string("sync"),
                           static_cast<std::size_t>(*shards),
                           static_cast<std::size_t>(*threads), *ops});
    }
  }
  GC_REQUIRE(!old.cells.empty(), "no result cells found in " + path);
  return old;
}

const OldCell* find_old(const std::vector<OldCell>& old,
                        const std::string& mode, std::size_t shards,
                        std::size_t threads) {
  for (const OldCell& c : old)
    if (c.mode == mode && c.shards == shards && c.threads == threads)
      return &c;
  return nullptr;
}

/// Per-cell throughput delta against a previous run, keyed on
/// (fill_mode, shards, threads) — visible without hand-diffing two JSON
/// files. Cells the baseline lacks (e.g. async rows against a pre-MSHR
/// baseline) print as "new" rather than faking a ratio.
void print_compare(const std::string& path, const std::vector<OldCell>& old,
                   const std::vector<GridCell>& cells) {
  std::cout << "\nthroughput delta vs " << path << "\n";
  std::cout << "  " << std::right << std::setw(6) << "mode" << std::setw(7)
            << "shards" << std::setw(8) << "threads" << std::setw(14)
            << "old_ops_s" << std::setw(14) << "new_ops_s" << std::setw(10)
            << "ratio" << "\n";
  for (const GridCell& cell : cells) {
    const OldCell* prev = find_old(old, cell.mode, cell.shards, cell.threads);
    std::cout << "  " << std::setw(6) << cell.mode << std::setw(7)
              << cell.shards << std::setw(8) << cell.threads;
    if (prev == nullptr) {
      std::cout << std::setw(14) << "-" << std::setw(14)
                << fmti(static_cast<std::uint64_t>(cell.load.ops_per_sec))
                << std::setw(10) << "new" << "\n";
      continue;
    }
    std::cout << std::setw(14)
              << fmti(static_cast<std::uint64_t>(prev->ops_per_sec))
              << std::setw(14)
              << fmti(static_cast<std::uint64_t>(cell.load.ops_per_sec))
              << std::setw(10) << fmtr(cell.load.ops_per_sec / prev->ops_per_sec)
              << "\n";
  }
}

void write_json(const Options& opts, const Workload& workload,
                std::size_t capacity, const std::vector<GridCell>& cells,
                const std::vector<OldCell>& old) {
  std::ofstream out(opts.json_path);
  GC_REQUIRE(out.good(), "cannot open " + opts.json_path + " for writing");
  out << "{\n"
      << "  \"bench\": \"gcached\",\n"
      << "  \"git_commit\": \"" << current_git_commit() << "\",\n"
      << "  \"machine\": \"" << machine_name() << "\",\n"
      << "  \"gc_fast_sim\": " << (kHotChecksEnabled ? "false" : "true")
      << ",\n"
      << "  \"quick\": " << (opts.quick ? "true" : "false") << ",\n"
      << "  \"policy\": \"" << opts.policy << "\",\n"
      << "  \"workload_accesses\": " << workload.trace.size() << ",\n"
      << "  \"capacity\": " << capacity << ",\n"
      << "  \"fill_latency_us\": " << opts.fill_us << ",\n"
      << "  \"mshrs\": " << opts.mshrs << ",\n"
      << "  \"ops_per_cell\": " << opts.ops << ",\n"
      << "  \"mon\": " << (opts.mon ? "true" : "false") << ",\n"
      << "  \"results\": [\n";
  const std::uint64_t fill_ns =
      static_cast<std::uint64_t>(opts.fill_us * 1000.0);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const GridCell& c = cells[i];
    out << "    {\"fill_mode\": \"" << c.mode << "\", \"shards\": " << c.shards
        << ", \"threads\": " << c.threads
        << ", \"ops\": " << c.load.ops << ", \"seconds\": " << c.load.seconds
        << ", \"ops_per_sec\": " << c.load.ops_per_sec
        << ", \"p50_us\": " << c.load.p50_us
        << ", \"p99_us\": " << c.load.p99_us
        << ", \"p999_us\": " << c.load.p999_us
        << ", \"miss_rate\": " << c.load.stats.miss_rate()
        << ", \"amat_us\": " << c.load.stats.amat_ns(fill_ns) * 1e-3
        << ", \"delayed_hits\": " << c.load.stats.delayed_hits
        << ", \"free_delayed_hits\": " << c.load.stats.free_delayed_hits
        << ", \"delayed_hit_wait_ns\": " << c.load.stats.delayed_hit_wait_ns
        << ", \"lock_contended\": " << c.load.lock_contended
        << ", \"backoff_rounds\": " << c.load.backoff_rounds
        << ", \"backoff_ns\": " << c.load.backoff_ns;
    // perf_valid is always emitted so readers can distinguish "counters
    // read zero" from "perf_event_open unavailable on this machine".
    out << ", \"perf_valid\": " << (c.load.perf.valid ? "true" : "false");
    if (c.load.perf.valid) {
      out << ", \"cycles\": " << c.load.perf.cycles
          << ", \"instructions\": " << c.load.perf.instructions
          << ", \"llc_misses\": " << c.load.perf.llc_misses
          << ", \"context_switches\": " << c.load.perf.context_switches;
    }
    if (const OldCell* prev = find_old(old, c.mode, c.shards, c.threads)) {
      out << ", \"baseline_ops_per_sec\": " << prev->ops_per_sec
          << ", \"vs_baseline\": " << c.load.ops_per_sec / prev->ops_per_sec;
    }
    out << "}" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

const GridCell* find_cell(const std::vector<GridCell>& cells,
                          const std::string& mode, std::size_t shards,
                          std::size_t threads) {
  for (const GridCell& c : cells)
    if (c.mode == mode && c.shards == shards && c.threads == threads)
      return &c;
  return nullptr;
}

int run(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  if (opts.mon && !obs::kObsEnabled) {
    std::cerr << "--mon requires an observability build (GCACHING_OBS): the "
                 "fast preset compiles the GC_MON_* publish sites to nothing, "
                 "so the monitor would harvest only zeros.\n";
    return 2;
  }
  BenchOptions table_opts;
  table_opts.csv_dir = opts.csv_dir;
  table_opts.quick = opts.quick;

  // Same regime as bench_throughput's zipf-large: 64Ki items at 6%
  // capacity, ~47% item-lru miss rate — misses (hence backend fills) are
  // frequent enough that shard-level fill overlap dominates the cell time.
  Workload workload = traces::zipf_items(65536, 16, 200'000, 0.9, 42);
  const std::size_t capacity = 4096;
  workload.trace.precompute_block_ids(*workload.map);

  gcached::GcachedConfig cfg;
  cfg.capacity = capacity;
  cfg.fill_latency_ns = static_cast<std::uint64_t>(opts.fill_us * 1000.0);
  cfg.mshr_entries = opts.mshrs;

  TableSink table(table_opts, "gcached closed-loop scaling (" + opts.policy +
                                  ", fill " + fmt(opts.fill_us, 1) + "us)",
                  "gcached",
                  {"mode", "shards", "threads", "ops_s", "p50_us", "p99_us",
                   "amat_us", "delayed", "contended"});

  std::vector<std::string> modes;
  if (opts.fill_mode == "both")
    modes = {"sync", "async"};
  else
    modes = {opts.fill_mode};

  std::vector<GridCell> cells;
  for (const std::string& mode : modes) {
    for (std::size_t shards : opts.shards) {
      if (!cells.empty()) table.add_separator();
      for (std::size_t threads : opts.threads) {
        cfg.num_shards = shards;
        cfg.fill_mode = mode == "async" ? gcached::FillMode::kAsync
                                        : gcached::FillMode::kSync;
        const auto cache =
            gcached::make_concurrent_cache(opts.policy, workload.map, cfg);
        gcached::LoadSpec spec;
        spec.threads = threads;
        spec.total_ops = opts.ops;
        spec.seed = opts.seed;
        spec.perf = opts.perf;
        // --mon reproduces the CI overhead-gate configuration: a live atlas
        // receiving every access's counters plus a background snapshot thread
        // harvesting on a tight interval, with no file exporters in the loop.
        std::optional<obs::ShardAtlas> atlas;
        std::optional<obs::Monitor> monitor;
        if (opts.mon) {
          atlas.emplace(shards);
          obs::MonitorConfig mcfg;
          mcfg.interval = std::chrono::milliseconds(opts.mon_interval_ms);
          monitor.emplace(mcfg);
          monitor->attach_atlas(&*atlas);
          cache->attach_atlas(&*atlas);
          monitor->start();
          spec.monitor = &*monitor;
        }
        GridCell cell;
        cell.mode = mode;
        cell.shards = shards;
        cell.threads = threads;
        cell.load = run_load(*cache, workload.trace,
                             workload.trace.block_ids(), spec);
        if (monitor) {
          monitor->stop();
          cache->attach_atlas(nullptr);
        }
        table.add_row(
            {mode, fmti(shards), fmti(threads),
             fmti(static_cast<std::uint64_t>(cell.load.ops_per_sec)),
             fmt(cell.load.p50_us, 1), fmt(cell.load.p99_us, 1),
             fmt(cell.load.stats.amat_ns(cfg.fill_latency_ns) * 1e-3, 1),
             fmti(cell.load.stats.delayed_hits),
             fmti(cell.load.lock_contended)});
        cells.push_back(cell);
      }
    }
  }
  table.flush();

  // Headline ratios — the pairs the CI perf-smoke gates check. Both are
  // within-machine ratios, so absolute speed never gates.
  const GridCell* base = find_cell(cells, "sync", 1, 1);
  const GridCell* scaled = find_cell(cells, "sync", 8, 4);
  if (base != nullptr && scaled != nullptr) {
    std::cout << "sync scaling (8 shards, 4 threads) vs (1 shard, 1 thread): "
              << fmtr(scaled->load.ops_per_sec / base->load.ops_per_sec)
              << "x\n";
  }
  const GridCell* sync88 = find_cell(cells, "sync", 8, 8);
  const GridCell* async88 = find_cell(cells, "async", 8, 8);
  if (sync88 != nullptr && async88 != nullptr) {
    std::cout << "async vs sync at (8 shards, 8 threads): "
              << fmtr(async88->load.ops_per_sec / sync88->load.ops_per_sec)
              << "x\n";
  }

  OldJson old;
  if (opts.compare_path) {
    old = read_old_json(*opts.compare_path);
    warn_if_stale_baseline(*opts.compare_path, old.git_commit, old.machine);
    print_compare(*opts.compare_path, old.cells, cells);
  }
  write_json(opts, workload, capacity, cells, old.cells);
  std::cout << "wrote " << opts.json_path << "\n";
  return 0;
}

}  // namespace
}  // namespace gcaching::bench

int main(int argc, char** argv) {
  return gcaching::bench::run(argc, argv);
}
