#include "obs/timeline.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "util/csv.hpp"

namespace gcaching::obs {

void StatsTimeline::open(std::size_t capacity, std::uint64_t total_accesses) {
  *this = StatsTimeline(requested_window_);
  window_ = requested_window_;
  if (window_ == kAutoWindow)
    window_ = std::max<std::uint64_t>(1, total_accesses / kAutoTargetWindows);
  capacity_ = capacity;
}

void StatsTimeline::record(const SimStats& live) {
  TimelineWindow w;
  w.start = seen_;
  w.length = in_window_;
  w.delta = live - last_;
  rows_.push_back(w);
  seen_ += in_window_;
  in_window_ = 0;
  last_ = live;
}

void StatsTimeline::close(const SimStats& final_totals) {
  if (in_window_ > 0) record(final_totals);
  GC_ENSURE(last_ == final_totals,
            "timeline window deltas diverged from the run's final stats");
  final_totals_ = final_totals;
  closed_ = true;
}

SimStats StatsTimeline::window_sum() const {
  SimStats sum;
  for (const TimelineWindow& w : rows_) sum += w.delta;
  return sum;
}

namespace {

std::string fmt_rate(double v) {
  std::ostringstream os;
  os.precision(6);
  os << v;
  return os.str();
}

}  // namespace

void StatsTimeline::write_csv(const std::string& path) const {
  CsvWriter csv(path,
                {"capacity", "window", "start", "length", "accesses", "misses",
                 "miss_rate", "temporal_hits", "spatial_hits",
                 "spatial_hit_share", "items_loaded", "sideloads",
                 "evictions", "wasted_sideloads", "wasted_sideload_share"});
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const TimelineWindow& w = rows_[i];
    csv.add_row({std::to_string(capacity_), std::to_string(i),
                 std::to_string(w.start), std::to_string(w.length),
                 std::to_string(w.delta.accesses),
                 std::to_string(w.delta.misses), fmt_rate(w.miss_rate()),
                 std::to_string(w.delta.temporal_hits),
                 std::to_string(w.delta.spatial_hits),
                 fmt_rate(w.spatial_hit_share()),
                 std::to_string(w.delta.items_loaded),
                 std::to_string(w.delta.sideloads),
                 std::to_string(w.delta.evictions),
                 std::to_string(w.delta.wasted_sideloads),
                 fmt_rate(w.wasted_sideload_share())});
  }
}

void StatsTimeline::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  GC_REQUIRE(out.good(), "cannot open " + path + " for writing");
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const TimelineWindow& w = rows_[i];
    out << "{\"capacity\": " << capacity_ << ", \"window\": " << i
        << ", \"start\": " << w.start << ", \"length\": " << w.length
        << ", \"accesses\": " << w.delta.accesses
        << ", \"misses\": " << w.delta.misses
        << ", \"miss_rate\": " << fmt_rate(w.miss_rate())
        << ", \"temporal_hits\": " << w.delta.temporal_hits
        << ", \"spatial_hits\": " << w.delta.spatial_hits
        << ", \"spatial_hit_share\": " << fmt_rate(w.spatial_hit_share())
        << ", \"items_loaded\": " << w.delta.items_loaded
        << ", \"sideloads\": " << w.delta.sideloads
        << ", \"evictions\": " << w.delta.evictions
        << ", \"wasted_sideloads\": " << w.delta.wasted_sideloads
        << ", \"wasted_sideload_share\": "
        << fmt_rate(w.wasted_sideload_share()) << "}\n";
  }
}

}  // namespace gcaching::obs
