// The one checked number parser of every binary and of policy specs.
//
// A value parses only if all of it is one number: a full-length
// `std::from_chars`, so trailing junk, an empty value, an exponent where an
// integer is read and an out-of-range value are all rejected instead of
// truncated or wrapped. Unsigned and floating-point values are non-negative
// (`from_chars` already rejects a sign for unsigned types; a double's sign
// is rejected here), and a double must be finite. Signed integer types keep
// their sign, so a caller can name a negative count in its own diagnostic.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace gcaching {

/// `raw` as a T, or nullopt when it is not exactly one acceptable number.
template <typename T>
std::optional<T> parse_number(std::string_view raw) {
  T v{};
  const char* const end = raw.data() + raw.size();
  const auto [ptr, ec] = std::from_chars(raw.data(), end, v);
  if (raw.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (raw.front() == '-' || !std::isfinite(v)) return std::nullopt;
  }
  return v;
}

/// Command-line form: the value `raw` of option --`key`, or exit 2 with
/// `invalid number for --KEY: 'RAW'` when it does not parse.
template <typename T>
T parse_option(std::string_view key, std::string_view raw) {
  if (const std::optional<T> v = parse_number<T>(raw)) return *v;
  std::cerr << "invalid number for --" << key << ": '" << raw << "'\n";
  std::exit(2);
}

}  // namespace gcaching
