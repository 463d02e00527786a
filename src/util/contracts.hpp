// Checked contracts, in two tiers.
//
// The simulator in this project is a *verifying* simulator: model invariants
// (Definition 1 of the paper) are enforced at runtime rather than assumed.
// Contract violations indicate a policy or harness bug and therefore throw
// `gcaching::ContractViolation` instead of invoking UB, so tests can assert
// on them and long benchmark runs fail loudly.
//
// Tiers:
//   * GC_REQUIRE / GC_ENSURE / GC_CHECK — cold-path contracts (construction,
//     configuration, per-run setup). Always on, in every build.
//   * GC_HOT_REQUIRE / GC_HOT_ENSURE / GC_HOT_CHECK — per-access contracts on
//     the simulation hot path (CacheContents mutations, recency-list ops).
//     On by default; compiled to nothing when the GC_FAST_SIM build
//     configuration is active (see docs/PERF.md), which is what lets the
//     fast-path engine run multi-million-access sweeps at memory speed.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace gcaching {

/// Thrown when a GC_REQUIRE / GC_ENSURE / GC_CHECK contract fails.
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what_arg)
      : std::logic_error(what_arg) {}
};

namespace detail {

[[noreturn]] inline void contract_fail(const char* kind, const char* expr,
                                       const char* file, int line,
                                       const std::string& msg) {
  std::ostringstream os;
  os << kind << " failed: (" << expr << ") at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw ContractViolation(os.str());
}

}  // namespace detail

/// True when hot-path contracts are compiled in (i.e. not a GC_FAST_SIM
/// build). Lets tests and benches report which configuration they measured.
#if defined(GC_FAST_SIM)
inline constexpr bool kHotChecksEnabled = false;
#else
inline constexpr bool kHotChecksEnabled = true;
#endif

}  // namespace gcaching

/// Precondition check: argument/state requirements at function entry.
#define GC_REQUIRE(cond, msg)                                              \
  do {                                                                     \
    if (!(cond))                                                           \
      ::gcaching::detail::contract_fail("precondition", #cond, __FILE__,   \
                                        __LINE__, (msg));                  \
  } while (0)

/// Postcondition check: guarantees at function exit.
#define GC_ENSURE(cond, msg)                                               \
  do {                                                                     \
    if (!(cond))                                                           \
      ::gcaching::detail::contract_fail("postcondition", #cond, __FILE__,  \
                                        __LINE__, (msg));                  \
  } while (0)

/// Internal-consistency check (invariants mid-function).
#define GC_CHECK(cond, msg)                                                \
  do {                                                                     \
    if (!(cond))                                                           \
      ::gcaching::detail::contract_fail("invariant", #cond, __FILE__,      \
                                        __LINE__, (msg));                  \
  } while (0)

// ---- gclint hot-region markers ---------------------------------------------
// GC_HOT_REGION_BEGIN / GC_HOT_REGION_END delimit per-access hot-loop code —
// the regions `simulate_fast` executes once per access (CacheContents
// mutators, fast_step, the stack-distance walker). They expand
// to nothing; `tools/gclint` enforces that only GC_HOT_* contracts appear
// between them, because a cold GC_REQUIRE/GC_ENSURE/GC_CHECK there would
// silently reintroduce the per-access overhead GC_FAST_SIM exists to remove.
// The label is free-form but must match between BEGIN and END; regions must
// not nest. See docs/ANALYSIS.md.
#define GC_HOT_REGION_BEGIN(label)
#define GC_HOT_REGION_END(label)

// Hot-path tier: identical to the cold-path macros by default; compiled to
// nothing under GC_FAST_SIM. The disabled form keeps `cond` as an
// unevaluated operand so variables referenced only by checks stay "used"
// (no -Wunused breakage) and side effects are impossible either way.
#if defined(GC_FAST_SIM)
#define GC_HOT_REQUIRE(cond, msg) \
  do {                            \
    (void)sizeof((cond) ? 1 : 0); \
  } while (0)
#define GC_HOT_ENSURE(cond, msg) GC_HOT_REQUIRE(cond, msg)
#define GC_HOT_CHECK(cond, msg) GC_HOT_REQUIRE(cond, msg)
#else
#define GC_HOT_REQUIRE(cond, msg) GC_REQUIRE(cond, msg)
#define GC_HOT_ENSURE(cond, msg) GC_ENSURE(cond, msg)
#define GC_HOT_CHECK(cond, msg) GC_CHECK(cond, msg)
#endif
