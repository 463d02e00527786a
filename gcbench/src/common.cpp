#include <time.h>

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "gcbench.hpp"
#include "traces/synthetic.hpp"

namespace gcbench {

const std::vector<std::size_t>& capacities() {
  static const std::vector<std::size_t> caps = {256, 512, 1024, 2048, 4096};
  return caps;
}

std::size_t mid_capacity() { return capacities()[capacities().size() / 2]; }

const std::vector<std::string>& policies() {
  // Two stack policies (the sweep's stack pass), the paper's GC policies,
  // and item-only policies that take the requested-only load path.
  static const std::vector<std::string> specs = {
      "item-lru", "block-lru",  "iblp",     "gcm",
      "athreshold", "item-lfu", "item-arc", "item-clock"};
  return specs;
}

Workload make_zipf(std::size_t items, std::size_t length, std::uint64_t seed) {
  return gcaching::traces::zipf_items(items, kBlockSize, length, 0.99, seed);
}

Workload make_scan(std::size_t items, std::size_t length, std::uint64_t seed) {
  // A seed of its own, so the two traces of one run are independent.
  return gcaching::traces::scan_with_hotset(items / kBlockSize, kBlockSize,
                                            length, 0.3, 0.9, kBlockSize / 2,
                                            seed ^ 0x5ca9a11e5eedULL);
}

// ---- Tracer -----------------------------------------------------------------

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

Tracer::Span::Span(Tracer* tracer, std::string name, std::uint64_t items)
    : tracer_(tracer), start_(std::chrono::steady_clock::now()) {
  if (tracer_ == nullptr) return;
  Record r;
  r.name = std::move(name);
  r.start_ns = tracer_->now_ns();
  r.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  r.items = items;
  index_ = static_cast<int>(tracer_->records_.size());
  tracer_->records_.push_back(std::move(r));
  tracer_->open_.push_back(index_);
}

double Tracer::Span::stop() {
  if (seconds_ >= 0.0) return seconds_;
  seconds_ = seconds_since(start_);
  if (tracer_ != nullptr) {
    tracer_->records_[static_cast<std::size_t>(index_)].end_ns =
        tracer_->now_ns();
    tracer_->open_.pop_back();
  }
  return seconds_;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const Record& r : records_)
    out << "{\"name\": \"" << r.name << "\", \"start_ns\": " << r.start_ns
        << ", \"end_ns\": " << r.end_ns << ", \"parent\": " << r.parent
        << ", \"items\": " << r.items << "}\n";
  return out.good();
}

// ---- Checks and helpers -----------------------------------------------------

void Checks::check(bool ok, std::uint64_t units, const std::string& what) {
  attempted += units;
  if (ok) return;
  failed += units;
  std::cerr << "gcbench: CHECK FAILED (" << units << " units): " << what
            << "\n";
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[rank == 0 ? 0 : rank - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t digest(const std::vector<SimStats>& stats) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const SimStats& s : stats)
    for (const std::uint64_t v :
         {s.accesses, s.hits, s.misses, s.temporal_hits, s.spatial_hits,
          s.items_loaded, s.sideloads, s.evictions, s.wasted_sideloads,
          s.delayed_hits, s.free_delayed_hits, s.delayed_hit_wait_ns})
      mix(v);
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string conservation_error(const SimStats& s, bool sequential) {
  if (s.hits + s.misses + s.delayed_hits != s.accesses)
    return "hits + misses + delayed_hits != accesses";
  if (s.temporal_hits + s.spatial_hits != s.hits)
    return "temporal_hits + spatial_hits != hits";
  if (s.free_delayed_hits > s.delayed_hits)
    return "free_delayed_hits > delayed_hits";
  if (s.wasted_sideloads > s.sideloads) return "wasted_sideloads > sideloads";
  if (s.evictions > s.items_loaded) return "evictions > items_loaded";
  if (!sequential) return "";
  if (s.delayed_hits != 0 || s.delayed_hit_wait_ns != 0)
    return "delayed hits in a sequential engine";
  if (s.items_loaded != s.misses + s.sideloads)
    return "items_loaded != misses + sideloads";
  if (s.spatial_hits + s.wasted_sideloads > s.sideloads)
    return "spatial_hits + wasted_sideloads > sideloads";
  return "";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

namespace {
double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

}  // namespace gcbench
