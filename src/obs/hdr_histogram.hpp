// Log-bucketed HDR latency histogram: wait-free record, lock-free merge.
//
// The gcached load generator used to store one latency sample per operation
// and sort the merged vector at the end — O(ops) memory, percentiles only
// after the run, nothing a live monitor could read. This histogram replaces
// that: a fixed ~34 KB table of relaxed-atomic bucket counts whose `record`
// is ONE fetch_add (wait-free on every platform where fetch_add is a single
// RMW instruction), whose buckets can be read or merged concurrently with
// recording, and whose percentile queries are O(buckets), independent of
// how many samples were recorded.
//
// Layout (classic HdrHistogram linear-log hybrid, kSubBucketBits = P = 7):
//
//   * values in [0, 2^(P+1))                     one bucket per value, exact;
//   * values in [2^k, 2^(k+1)), k = P+1 .. 39    2^P equal sub-buckets per
//                                                octave, width 2^(k-P);
//   * values >= 2^40 (~18.3 minutes in ns)       a single overflow bucket.
//
// Error bound: a bucket covering [lo, lo + w) satisfies w <= lo * 2^-P, and
// queries report the bucket midpoint, so every reported quantile is within
// a relative error of 2^-(P+1) < 0.4% of the exact nearest-rank sample —
// documented as <= 1% (the bound the tests enforce with margin, and exact
// to the bit for values below 2^(P+1), where buckets have width 1). The
// overflow bucket reports its lower edge; a latency that saturates 18
// minutes has no meaningful percentile left to preserve.
//
// Rank agreement: bucket index is monotone in value, so the bucket holding
// the cumulative rank-r count is exactly the bucket containing the r-th
// smallest recorded sample. Percentiles therefore never land in a "wrong"
// bucket — the only error is the within-bucket rounding bounded above.
//
// Concurrency: counts are relaxed atomics. A single writer sees its own
// recordings exactly; concurrent readers (the gcmon snapshot thread, a
// merging aggregator) see a possibly-torn-across-buckets but never-corrupt
// view — each bucket count is individually exact, totals lag by at most the
// in-flight records. That is the documented read discipline of the whole
// gcmon tier (docs/CONCURRENCY.md): monitoring reads are allowed to be
// slightly stale, never allowed to block a writer.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace gcaching::obs {

class HdrHistogram {
 public:
  /// Sub-bucket precision: 2^7 sub-buckets per octave -> relative bucket
  /// width <= 2^-7, midpoint error <= 2^-8 < 0.4% (documented bound: 1%).
  static constexpr unsigned kSubBucketBits = 7;
  /// Largest exactly-bucketed-by-octave exponent: values >= 2^40 share the
  /// overflow bucket (2^40 ns ~ 18.3 min — beyond any latency we rank).
  static constexpr unsigned kMaxExponent = 40;

  static constexpr std::uint64_t kSubBuckets = 1ULL << kSubBucketBits;
  /// [0, 2*kSubBuckets) exact + kSubBuckets per octave + overflow.
  static constexpr std::size_t kBuckets =
      2 * kSubBuckets +
      (kMaxExponent - kSubBucketBits - 1) * kSubBuckets + 1;
  static constexpr std::size_t kOverflowBucket = kBuckets - 1;

  HdrHistogram() = default;
  HdrHistogram(const HdrHistogram&) = delete;
  HdrHistogram& operator=(const HdrHistogram&) = delete;

  /// Bucket of `v`: exact below 2*kSubBuckets, linear-log above, overflow
  /// at the top. Branch-light and allocation-free.
  static constexpr std::size_t bucket_index(std::uint64_t v) noexcept {
    if (v < 2 * kSubBuckets) return static_cast<std::size_t>(v);
    if (v >= (1ULL << kMaxExponent)) return kOverflowBucket;
    const unsigned k =
        static_cast<unsigned>(std::bit_width(v)) - 1;  // floor(log2 v) >= P+1
    const unsigned shift = k - kSubBucketBits;      // sub-bucket width 2^shift
    // v >> shift is in [kSubBuckets, 2*kSubBuckets), so octave k's buckets
    // occupy [ (shift+1)*kSubBuckets, (shift+2)*kSubBuckets ) — contiguous
    // with the exact region at shift 0 and inverse to bucket_lower below.
    return static_cast<std::size_t>(
        static_cast<std::uint64_t>(shift) * kSubBuckets + (v >> shift));
  }

  /// Inclusive lower edge of bucket `idx`.
  static constexpr std::uint64_t bucket_lower(std::size_t idx) noexcept {
    if (idx < 2 * kSubBuckets) return idx;
    if (idx >= kOverflowBucket) return 1ULL << kMaxExponent;
    const std::uint64_t shift = idx / kSubBuckets - 1;
    return (idx % kSubBuckets + kSubBuckets) << shift;
  }

  /// Width of bucket `idx` (1 in the exact region; the overflow bucket's
  /// nominal width is 1 so its representative is its lower edge).
  static constexpr std::uint64_t bucket_width(std::size_t idx) noexcept {
    if (idx < 2 * kSubBuckets || idx >= kOverflowBucket) return 1;
    return 1ULL << (idx / kSubBuckets - 1);
  }

  /// The value a bucket reports: its midpoint (exactly the value itself for
  /// width-1 buckets, so small samples round-trip bit-identically).
  static constexpr double bucket_representative(std::size_t idx) noexcept {
    return static_cast<double>(bucket_lower(idx)) +
           static_cast<double>(bucket_width(idx) - 1) / 2.0;
  }

  /// Wait-free: one relaxed fetch_add. Safe concurrently with any number of
  /// other record / merge_from / query calls.
  void record(std::uint64_t value) noexcept {
    counts_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  }

  /// Bucket-wise accumulate of `other` into this histogram (relaxed reads of
  /// a possibly-live source; see the tearing note in the header comment).
  /// Bucket-wise addition is associative and commutative, so merge order
  /// never changes any percentile — pinned by tests/test_gcmon.cpp.
  void merge_from(const HdrHistogram& other) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t c =
          other.counts_[i].load(std::memory_order_relaxed);
      if (c != 0) counts_[i].fetch_add(c, std::memory_order_relaxed);
    }
  }

  /// Samples recorded so far: the sum of the buckets, so `record` pays one
  /// RMW, not two. O(kBuckets); its callers are cold (monitor harvest, end
  /// of run). May lag concurrent recorders by the in-flight handful; exact
  /// once recording threads are quiesced.
  std::uint64_t count() const noexcept {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < kBuckets; ++i)
      n += counts_[i].load(std::memory_order_relaxed);
    return n;
  }

  std::uint64_t bucket_count(std::size_t idx) const noexcept {
    return counts_[idx].load(std::memory_order_relaxed);
  }

  /// Nearest-rank quantile, same rank convention as a sorted-sample lookup
  /// at index round(q * (N - 1)): returns the representative value of the
  /// bucket containing that rank. 0.0 when empty. O(kBuckets).
  double quantile(double q) const noexcept {
    // Walk a consistent local copy of the cumulative count so a concurrent
    // recorder cannot move the target rank mid-scan.
    std::uint64_t n = 0;
    std::array<std::uint64_t, kBuckets> local;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      local[i] = counts_[i].load(std::memory_order_relaxed);
      n += local[i];
    }
    if (n == 0) return 0.0;
    const double pos = q * static_cast<double>(n - 1);
    const std::uint64_t rank =
        static_cast<std::uint64_t>(pos + 0.5) + 1;  // 1-based target rank
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += local[i];
      if (seen >= rank) return bucket_representative(i);
    }
    return bucket_representative(kOverflowBucket);
  }

  /// Representative of the highest non-empty bucket — the histogram's view
  /// of the maximum recorded value (within the documented error bound).
  double max_value() const noexcept {
    for (std::size_t i = kBuckets; i-- > 0;) {
      if (counts_[i].load(std::memory_order_relaxed) != 0)
        return bucket_representative(i);
    }
    return 0.0;
  }

  /// Reset every bucket to zero (not concurrency-safe against recorders;
  /// reuse is a quiesced-only operation).
  void clear() noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i)
      counts_[i].store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
};

}  // namespace gcaching::obs
