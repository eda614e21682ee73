// Textual workload specs shared by cpq_bench_cli and the tests.
//
//   key specs:      uniform32 | uniform16 | uniform8 | ascending |
//                   descending | hold | zipf:THETA[,BITS] |
//                   hotspot:HOT_OPS,HOT_KEYS[,BITS] | dijkstra:MIN,MAX
//   arrival specs:  closed | poisson:HZ | mmpp:HZ_ON,HZ_OFF,ON_MS,OFF_MS
//
// Parsers return std::nullopt on any malformed or out-of-range spec; the
// CLI maps that to its usual exit-2 bad-flag path. Every accepted spec
// round-trips through KeyConfig::name() / ArrivalConfig::name() closely
// enough for log labels, and the numeric bounds here are the single source
// of truth for what the harness will accept.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "workloads/arrivals.hpp"
#include "workloads/keyspace.hpp"

namespace cpq::workloads {

namespace detail {

// Split "a,b,c" into fields; empty fields are malformed.
inline std::optional<std::vector<std::string>> split_fields(
    std::string_view text) {
  std::vector<std::string> fields;
  while (true) {
    const auto comma = text.find(',');
    const std::string_view field =
        comma == std::string_view::npos ? text : text.substr(0, comma);
    if (field.empty()) return std::nullopt;
    fields.emplace_back(field);
    if (comma == std::string_view::npos) return fields;
    text.remove_prefix(comma + 1);
  }
}

inline std::optional<double> parse_double_field(const std::string& field) {
  char* end = nullptr;
  const double value = std::strtod(field.c_str(), &end);
  if (end == field.c_str() || *end != '\0') return std::nullopt;
  return value;
}

inline std::optional<std::uint64_t> parse_u64_field(const std::string& field) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(field.c_str(), &end, 10);
  if (end == field.c_str() || *end != '\0') return std::nullopt;
  if (field.front() == '-') return std::nullopt;
  return static_cast<std::uint64_t>(value);
}

// Optional trailing BITS field for zipf/hotspot: the keyspace span is
// mask+1, so 64-bit spans would wrap — cap at 63.
inline std::optional<unsigned> parse_bits_field(const std::string& field) {
  const auto bits = parse_u64_field(field);
  if (!bits || *bits < 1 || *bits > 63) return std::nullopt;
  return static_cast<unsigned>(*bits);
}

}  // namespace detail

inline std::optional<KeyConfig> parse_key_spec(std::string_view spec) {
  if (spec == "uniform32") return KeyConfig::uniform(32);
  if (spec == "uniform16") return KeyConfig::uniform(16);
  if (spec == "uniform8") return KeyConfig::uniform(8);
  if (spec == "ascending") return KeyConfig::ascending();
  if (spec == "descending") return KeyConfig::descending();
  if (spec == "hold") return KeyConfig::hold();

  const auto colon = spec.find(':');
  if (colon == std::string_view::npos) return std::nullopt;
  const std::string_view kind = spec.substr(0, colon);
  const auto fields = detail::split_fields(spec.substr(colon + 1));
  if (!fields) return std::nullopt;

  if (kind == "zipf") {
    if (fields->size() < 1 || fields->size() > 2) return std::nullopt;
    const auto theta = detail::parse_double_field((*fields)[0]);
    if (!theta || *theta <= 0.0 || *theta > 16.0) return std::nullopt;
    unsigned bits = 32;
    if (fields->size() == 2) {
      const auto parsed = detail::parse_bits_field((*fields)[1]);
      if (!parsed) return std::nullopt;
      bits = *parsed;
    }
    return KeyConfig::zipf(*theta, bits);
  }
  if (kind == "hotspot") {
    if (fields->size() < 2 || fields->size() > 3) return std::nullopt;
    const auto hot_ops = detail::parse_double_field((*fields)[0]);
    const auto hot_keys = detail::parse_double_field((*fields)[1]);
    if (!hot_ops || *hot_ops < 0.0 || *hot_ops > 1.0) return std::nullopt;
    if (!hot_keys || *hot_keys <= 0.0 || *hot_keys > 1.0) return std::nullopt;
    unsigned bits = 32;
    if (fields->size() == 3) {
      const auto parsed = detail::parse_bits_field((*fields)[2]);
      if (!parsed) return std::nullopt;
      bits = *parsed;
    }
    return KeyConfig::hotspot(*hot_ops, *hot_keys, bits);
  }
  if (kind == "dijkstra") {
    if (fields->size() != 2) return std::nullopt;
    const auto min_inc = detail::parse_u64_field((*fields)[0]);
    const auto max_inc = detail::parse_u64_field((*fields)[1]);
    if (!min_inc || !max_inc) return std::nullopt;
    if (*max_inc < 1 || *min_inc > *max_inc) return std::nullopt;
    return KeyConfig::dijkstra(*min_inc, *max_inc);
  }
  return std::nullopt;
}

inline std::optional<ArrivalConfig> parse_arrival_spec(std::string_view spec) {
  if (spec == "closed") return ArrivalConfig::closed();

  const auto colon = spec.find(':');
  if (colon == std::string_view::npos) return std::nullopt;
  const std::string_view kind = spec.substr(0, colon);
  const auto fields = detail::split_fields(spec.substr(colon + 1));
  if (!fields) return std::nullopt;

  if (kind == "poisson") {
    if (fields->size() != 1) return std::nullopt;
    const auto hz = detail::parse_double_field((*fields)[0]);
    if (!hz || *hz <= 0.0) return std::nullopt;
    return ArrivalConfig::poisson(*hz);
  }
  if (kind == "mmpp") {
    if (fields->size() != 4) return std::nullopt;
    const auto hz_on = detail::parse_double_field((*fields)[0]);
    const auto hz_off = detail::parse_double_field((*fields)[1]);
    const auto on_ms = detail::parse_double_field((*fields)[2]);
    const auto off_ms = detail::parse_double_field((*fields)[3]);
    if (!hz_on || *hz_on <= 0.0) return std::nullopt;
    if (!hz_off || *hz_off < 0.0 || *hz_off > *hz_on) return std::nullopt;
    if (!on_ms || *on_ms <= 0.0) return std::nullopt;
    if (!off_ms || *off_ms <= 0.0) return std::nullopt;
    return ArrivalConfig::mmpp(*hz_on, *hz_off, *on_ms * 1e-3, *off_ms * 1e-3);
  }
  return std::nullopt;
}

}  // namespace cpq::workloads
