// The sanctioned per-shard lock of the gcached runtime.
//
// Every gcached shard is guarded by one `ShardLock`: a view over a single
// std::atomic<bool>. This file is the ONLY place per-access code may touch a
// raw lock: gclint's `hot-region-raw-lock` rule bans mutex/lock_guard tokens
// inside GC_HOT_REGION blocks everywhere else, so all per-access locking is
// forced through these helpers and automatically inherits
//
//   * one atomic exchange on the uncontended path — no syscall and no
//     reader count: block sharding makes every op exactly one exclusive
//     acquisition, so the lock has no shared mode;
//   * randomized exponential backoff on contention — a few yields, then
//     jittered sleeps whose cap doubles per round (the jitter decorrelates
//     threads that collided once so they do not collide forever); each
//     retry reads the flag before exchanging (test-and-test-and-set);
//   * contention telemetry — acquisitions / contended acquisitions / backoff
//     rounds are counted into the caller's ClientContext, cheap per-thread
//     plain counters that the load generator aggregates and emits through
//     GC_OBS_COUNT at collect time (never per operation).
//
// It is also the sanctioned *blocking* home: gclint's lock-discipline rule is
// unconditional ("no blocking while a shard guard is live — period", not
// suppressible with GCLINT-ALLOW), so every primitive that parks a thread —
// the simulated backend fill sleep (`backend_fill`) and the MSHR fill-gate
// wait/notify pair (`FillGate`) — lives here, callable only with no guard
// held. The gate's wait helper is likewise the only place the async fill
// path may read a clock (this file and gcmon are the clock homes): the
// delayed-hit queuing cost is measured inside `FillGate::await_past`, never
// in the access transition itself.
//
// See docs/CONCURRENCY.md for the full locking discipline.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace gcaching::gcached {

// Backoff schedule for contended shard acquisitions, tuned for "short
// critical section, occasionally held across a simulated fill": yields
// resolve sub-microsecond collisions without burning CPU (important on
// oversubscribed hosts), and the sleep cap bounds the retry storm when a
// sync fill holds the shard for tens of microseconds.

/// Failed acquisition attempts answered with std::this_thread::yield()
/// before the schedule escalates to sleeping.
inline constexpr std::uint32_t kBackoffYieldRounds = 4;
/// First sleep; doubles every round after the yields. A power of two, so
/// the jitter is drawn with a mask.
inline constexpr std::uint64_t kBackoffBaseSleepNs = 256;
/// Doublings before the sleep cap stops growing (256ns << 8 = 65us).
inline constexpr std::uint32_t kBackoffMaxDoublings = 8;
static_assert((kBackoffBaseSleepNs & (kBackoffBaseSleepNs - 1)) == 0,
              "the backoff jitter mask needs a power-of-two base sleep");

/// Per-client-thread state: the jitter RNG (SplitMix64, seeded per thread so
/// backoff stays deterministic given a seed and schedule-independent in
/// distribution) plus the contention counters this thread accumulated.
/// Never shared between threads — that is what makes the counters free.
struct ClientContext {
  explicit ClientContext(std::uint64_t seed = 0)
      : rng(seed ^ 0x9e3779b97f4a7c15ULL) {}

  SplitMix64 rng;
  std::uint64_t lock_acquisitions = 0;  ///< total lock() calls
  std::uint64_t lock_contended = 0;     ///< calls whose first exchange failed
  std::uint64_t backoff_rounds = 0;     ///< yields + sleeps across all calls
  std::uint64_t backoff_ns = 0;         ///< requested sleep ns across rounds
};

/// One shard's lock: a view over one flag word, exclusive only. The word
/// lives wherever its owner places it; gcached's shards use the word their
/// CacheContents lends (`CacheContents::owner_lock`), which sits on the line
/// every access writes, so taking the lock also fetches that line. Every
/// access transition, residency probe and stats snapshot takes it through
/// ShardGuard.
class ShardLock {
 public:
  explicit ShardLock(std::atomic<bool>& held) noexcept : held_(&held) {}

  GC_HOT_REGION_BEGIN(shard_lock_acquire)
  /// Every backoff round follows exactly one failed attempt (a held flag
  /// seen by the relaxed read or a lost exchange), so backoff_rounds also
  /// counts failed attempts — gcmon publishes it as trylock failures.
  void lock(ClientContext& ctx) {
    ++ctx.lock_acquisitions;
    if (!held_->exchange(true, std::memory_order_acquire)) return;
    ++ctx.lock_contended;
    for (std::uint32_t round = 1;; ++round) {
      ++ctx.backoff_rounds;
      backoff(ctx, round);
      if (!held_->load(std::memory_order_relaxed) &&
          !held_->exchange(true, std::memory_order_acquire)) {
        return;
      }
    }
  }

  void unlock() { held_->store(false, std::memory_order_release); }
  GC_HOT_REGION_END(shard_lock_acquire)

 private:
  GC_HOT_REGION_BEGIN(shard_lock_backoff)
  /// One backoff round: yield while round <= kBackoffYieldRounds, then sleep
  /// a jittered duration in [base, base + cap) where cap doubles per
  /// sleeping round up to base << kBackoffMaxDoublings.
  static void backoff(ClientContext& ctx, std::uint32_t round) {
    if (round <= kBackoffYieldRounds) {
      std::this_thread::yield();
      return;
    }
    const std::uint32_t doublings =
        round - kBackoffYieldRounds < kBackoffMaxDoublings
            ? round - kBackoffYieldRounds
            : kBackoffMaxDoublings;
    const std::uint64_t cap = kBackoffBaseSleepNs << doublings;
    const std::uint64_t sleep_ns =
        kBackoffBaseSleepNs + (ctx.rng() & (cap - 1));
    // Requested (not measured) duration: reading a clock here would tax the
    // contention path it instruments — and trip gclint's
    // hot-region-raw-clock rule, which allowlists only this file and gcmon.
    ctx.backoff_ns += sleep_ns;
    std::this_thread::sleep_for(std::chrono::nanoseconds(sleep_ns));
  }
  GC_HOT_REGION_END(shard_lock_backoff)

  std::atomic<bool>* held_;
};

/// RAII exclusive acquisition — the only way gcached hot paths take a shard.
class ShardGuard {
 public:
  GC_HOT_REGION_BEGIN(shard_guard)
  ShardGuard(ShardLock lock, ClientContext& ctx) : lock_(lock) {
    lock_.lock(ctx);
  }
  ~ShardGuard() { lock_.unlock(); }
  GC_HOT_REGION_END(shard_guard)

  ShardGuard(const ShardGuard&) = delete;
  ShardGuard& operator=(const ShardGuard&) = delete;

 private:
  ShardLock lock_;
};

/// The simulated backend fill, slept with NO shard guard held (the async
/// fill path's unlocked window; the sync compat path calls it as its whole
/// fill too). Centralized here because this file is the one blocking home
/// the lock-discipline rule recognises — a sleep token anywhere else in a
/// gcached hot path is a lint error, with no ALLOW escape.
GC_HOT_REGION_BEGIN(backend_fill)
inline void backend_fill(std::uint64_t fill_latency_ns) {
  if (fill_latency_ns == 0) return;
  std::this_thread::sleep_for(std::chrono::nanoseconds(fill_latency_ns));
}
GC_HOT_REGION_END(backend_fill)

/// One MSHR entry's completion gate: coalesced waiters park here while the
/// filling thread sleeps its backend fill, and the filler's commit releases
/// them all at once. Epoch-based so the hand-off is race-free without the
/// waiter ever holding two locks:
///
///   waiter (under shard guard):  seen = gate.epoch()        — entry in flight
///   waiter (guard RELEASED):     ns = gate.await_past(seen) — parks
///   filler (commit, under guard): gate.advance()            — epoch++, wake
///
/// If the commit lands between the waiter's epoch read and its await_past
/// call, the epoch has already moved past `seen` and await_past returns
/// immediately — the waiter can never sleep through a wake-up. Entry reuse
/// is safe for the same reason: reserve/advance both happen under the shard
/// guard, so a new waiter of a recycled entry always reads the post-advance
/// epoch.
///
/// await_past also *measures* the wait with a steady clock — the delayed
/// hit's queuing cost (remaining fill time at arrival). That read is legal
/// only because this file is a gclint clock home; the measurement belongs to
/// the blocking primitive, not to the cache transition that consumes it.
class FillGate {
 public:
  FillGate() = default;
  FillGate(const FillGate&) = delete;
  FillGate& operator=(const FillGate&) = delete;

  GC_HOT_REGION_BEGIN(fill_gate)
  /// Current completion epoch. Callable under the shard guard (relaxed
  /// atomic load; never blocks).
  std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_relaxed);
  }

  /// Parks until the epoch moves past `seen`; returns the measured wait in
  /// nanoseconds. MUST be called with no shard guard held.
  std::uint64_t await_past(std::uint64_t seen) {
    const auto t0 = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] {
      return epoch_.load(std::memory_order_relaxed) != seen;
    });
    lk.unlock();
    const auto t1 = std::chrono::steady_clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
  }

  /// Commit hand-off: bumps the epoch and releases every parked waiter.
  /// Called by the filling thread under the shard guard (the cv mutex is
  /// internal and held only for the store — waiters in cv_.wait have
  /// released it, so this never blocks meaningfully).
  void advance() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      epoch_.store(epoch_.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
    }
    cv_.notify_all();
  }
  GC_HOT_REGION_END(fill_gate)

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<std::uint64_t> epoch_{0};
};

}  // namespace gcaching::gcached
