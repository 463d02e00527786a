// Cache-line layout helpers for state that cores hand to each other.
//
// A gcached shard moves from core to core through its lock, and each line
// the holder writes must be fetched back by the next holder. A read-mostly
// field on such a line pays that remote fetch too. The types a shard hold
// touches keep read-mostly fields off written lines, and GC_ASSERT_APART
// pins the split at compile time. The converse also pays: fields that
// every hold writes share one line, so a hold fetches it once, and
// GC_ASSERT_TOGETHER pins that (docs/CONCURRENCY.md, "Shard memory
// layout"). The line size is a constant because GCC 12 warns
// (-Winterference-size) on std::hardware_destructive_interference_size in
// headers.
#pragma once

#include <cstddef>

namespace gcaching {

inline constexpr std::size_t kCacheLineBytes = 64;

/// True when bytes [a, a + a_size) and [b, b + b_size) of a line-aligned
/// object touch a common cache line.
constexpr bool shares_cache_line(std::size_t a, std::size_t a_size,
                                 std::size_t b, std::size_t b_size) noexcept {
  const std::size_t a_first = a / kCacheLineBytes;
  const std::size_t a_last = (a + a_size - 1) / kCacheLineBytes;
  const std::size_t b_first = b / kCacheLineBytes;
  const std::size_t b_last = (b + b_size - 1) / kCacheLineBytes;
  return a_first <= b_last && b_first <= a_last;
}

/// True when bytes [a, a + a_size) and [b, b + b_size) of a line-aligned
/// object all lie on one cache line.
constexpr bool on_one_cache_line(std::size_t a, std::size_t a_size,
                                 std::size_t b, std::size_t b_size) noexcept {
  const std::size_t first = (a < b ? a : b) / kCacheLineBytes;
  const std::size_t end = a + a_size > b + b_size ? a + a_size : b + b_size;
  return (end - 1) / kCacheLineBytes == first;
}

}  // namespace gcaching

/// Compile-time layout pin: member `written` of `Type` (a field the access
/// path stores to) shares no cache line with member `read_mostly` wherever
/// a `Type` starts on a line. Use it where `Type` is complete (a member
/// function body), since offsetof is evaluated there. offsetof on a
/// non-standard-layout class (a reference member, a polymorphic member) is
/// conditionally supported; GCC and Clang support it for classes without
/// virtual bases, so the warning is silenced here only.
#define GC_ASSERT_APART(Type, written, read_mostly)                          \
  _Pragma("GCC diagnostic push")                                             \
  _Pragma("GCC diagnostic ignored \"-Winvalid-offsetof\"")                   \
  static_assert(!::gcaching::shares_cache_line(                              \
                    offsetof(Type, written), sizeof(Type::written),          \
                    offsetof(Type, read_mostly), sizeof(Type::read_mostly)), \
                #Type "::" #written " (written per access) shares a cache "  \
                "line with " #Type "::" #read_mostly " (read-mostly)");      \
  _Pragma("GCC diagnostic pop")

/// Compile-time layout pin, the converse of GC_ASSERT_APART: members `a`
/// and `b` of `Type`, both written on every access, lie wholly on one cache
/// line wherever a `Type` starts on a line. Same offsetof caveats as above.
#define GC_ASSERT_TOGETHER(Type, a, b)                                      \
  _Pragma("GCC diagnostic push")                                            \
  _Pragma("GCC diagnostic ignored \"-Winvalid-offsetof\"")                  \
  static_assert(::gcaching::on_one_cache_line(offsetof(Type, a),            \
                                              sizeof(Type::a),              \
                                              offsetof(Type, b),            \
                                              sizeof(Type::b)),             \
                #Type "::" #a " and " #Type "::" #b " (both written per "   \
                "access) do not lie on one cache line");                    \
  _Pragma("GCC diagnostic pop")
