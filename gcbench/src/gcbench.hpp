// gcbench: the repository's end-to-end and per-layer benchmark.
//
// Everything here calls the library's public entry points from outside; no
// span or counter lives inside the program under test. See gcbench/METRICS.md
// for the workloads, the metrics and which layer metric moves which
// end-to-end metric.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/stats.hpp"
#include "core/trace.hpp"
#include "gcached/loadgen.hpp"

namespace gcbench {

using gcaching::SimStats;
using gcaching::Workload;

// ---- Inputs -----------------------------------------------------------------
// Every input is generated from the run's seed; the program under test sees
// only the generated traces.

inline constexpr std::size_t kBlockSize = 8;
/// Item universe of the sweep-grid traces, small enough for the policies'
/// per-item state to stay in the core's private caches. With 65536 items the
/// sweep's wall time drifted twice as much between interleaved runs on the
/// reference host (0.64-0.73 s against 0.48-0.51 s).
inline constexpr std::size_t kSweepItems = 8192;
/// Item universes of the gcached-hot and gcached-fill traces.
inline constexpr std::size_t kHotItems = 65536;
inline constexpr std::size_t kFillItems = 32768;
/// Length of each sweep-grid trace.
inline constexpr std::size_t kSweepLength = 400'000;
/// Length of the gcached-hot trace; one run_load pass replays it once.
inline constexpr std::size_t kHotLength = 1'000'000;
/// Length of the gcached-fill trace; one run_load pass replays it once.
inline constexpr std::size_t kFillLength = 150'000;
/// Nominal backend fill of gcached-fill, and the fill amat_us is priced at.
inline constexpr std::uint64_t kFillNs = 20'000;
inline constexpr std::size_t kClients = 2;
inline constexpr std::size_t kShards = 4;
inline constexpr std::size_t kSweepThreads = 2;

/// The geometric capacity column of the sweep grid.
const std::vector<std::size_t>& capacities();
/// The column's middle capacity: gcached runs and the per-policy timings.
std::size_t mid_capacity();
/// The sweep grid's policy specs, in row order.
const std::vector<std::string>& policies();

/// zipf-items: theta 0.99, B = 8.
Workload make_zipf(std::size_t items, std::size_t length, std::uint64_t seed);
/// scan-hotset: 30% sequential scan, 70% zipf(0.9) block visits of 4 items.
Workload make_scan(std::size_t items, std::size_t length, std::uint64_t seed);

// ---- Tracing ------------------------------------------------------------------

/// In-memory span recorder. Spans are recorded only around calls from the
/// benchmark into a layer, on the benchmark's main thread, and written out
/// once at the end of the run.
class Tracer {
 public:
  struct Record {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  ///< index of the enclosing span, -1 for a root
    std::uint64_t items = 0;  ///< accesses or ops the call processed
  };

  /// RAII span; a null tracer records nothing.
  class Span {
   public:
    Span(Tracer* tracer, std::string name, std::uint64_t items = 0);
    ~Span() { stop(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// Closes the span (idempotent) and returns its duration in seconds.
    double stop();

   private:
    Tracer* tracer_;
    int index_ = -1;
    std::chrono::steady_clock::time_point start_;
    double seconds_ = -1.0;
  };

  const std::vector<Record>& records() const { return records_; }
  /// One JSON object per line: name, start_ns, end_ns, parent, items.
  bool write_jsonl(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Record> records_;
  std::vector<int> open_;
};

// ---- Results --------------------------------------------------------------------

/// Correctness bookkeeping: each check covers some units (grid cells or
/// gcached ops); a failed check counts all of its units as failed.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void check(bool ok, std::uint64_t units, const std::string& what);
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;
inline void put(Metrics& m, const std::string& name, double value,
                const std::string& unit) {
  m[name] = Metric{value, unit};
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Perturb one measured output before it is checked (self-test of the
  /// checks: the run must then fail).
  bool corrupt = false;
  /// Golden sweep-grid digest: the seed it was recorded at and its value.
  std::uint64_t golden_seed = 0;
  std::string golden_digest;
};

// ---- Helpers --------------------------------------------------------------------

double seconds_since(std::chrono::steady_clock::time_point t0);
double median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
/// FNV-1a over every counter of every SimStats, in order.
std::uint64_t digest(const std::vector<SimStats>& stats);
std::string hex(std::uint64_t v);
/// Conservation laws a SimStats must satisfy; "" when they hold.
/// `sequential` adds the laws of the sequential engines (no delayed hits,
/// every miss loads its requested item exactly once).
std::string conservation_error(const SimStats& s, bool sequential);
double peak_rss_mb();
double process_cpu_s();
double thread_cpu_s();

// ---- Calls into the layers, shared by the workloads and the layer suite -------

/// The two sweep-grid traces (zipf-items, scan-hotset) with block ids
/// precomputed. `gen_s` receives the trace-generation time.
std::vector<Workload> sweep_traces(std::uint64_t seed, Tracer* tracer,
                                   double* gen_s = nullptr);

struct SweepPass {
  double wall_s = 0.0;
  std::vector<double> row_s;  ///< service time of each row, completion order
  std::vector<SimStats> cells;
};
/// One sim::run_sweep over traces x specs x capacities() on `threads`
/// workers, with default engine settings.
SweepPass sweep_pass(const std::vector<Workload>& traces,
                     const std::vector<std::string>& specs,
                     std::size_t threads, Tracer* tracer);

/// A gcached configuration: policy, trace generator, trace length, fill.
struct GcachedCase {
  std::string name;
  std::string spec;
  Workload (*make)(std::size_t, std::uint64_t);
  std::size_t length;
  std::uint64_t fill_ns;
};
GcachedCase hot_case();
GcachedCase fill_case();
std::unique_ptr<gcaching::gcached::ConcurrentCache> make_cache(
    const GcachedCase& c, const Workload& w, std::size_t shards,
    std::uint64_t fill_ns, Tracer* tracer);

struct LoadPass {
  gcaching::gcached::LoadResult result;
  std::uint64_t histogram_count = 0;  ///< merged latency samples
};
/// One closed-loop run_load over `w` (ops == 0: one trace pass). A monitor
/// is always attached, unstarted unless the caller passes a running one, so
/// the merged histogram count can be checked against the op count.
LoadPass load_pass(gcaching::gcached::ConcurrentCache& cache, const Workload& w,
                   std::size_t clients, std::uint64_t ops, std::uint64_t seed,
                   Tracer* tracer,
                   gcaching::obs::Monitor* monitor = nullptr);
/// "" when a pass of `ops` ops conserved every count.
std::string load_error(const LoadPass& p, std::uint64_t ops, bool fill);

/// Runs `opt.workload` for `opt.seconds`: setup (repeated, median reported),
/// measured units, then every output check. Fills `checks`.
Metrics run_workload(const Options& opt, Checks& checks, Tracer* tracer);

/// The traced run's layer suite: every per-layer metric.
Metrics run_layers(const Options& opt, Checks& checks, Tracer& tracer);

}  // namespace gcbench
