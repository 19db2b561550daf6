// Command-line plumbing shared by the operational CLIs: usage errors,
// strict number parsing, comma-separated lists and the cell drivers'
// --engine spelling.  A usage error prints one line to stderr and exits
// with status 2.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace memreal::cli {

/// The tool a usage error names, and where its message sends the user.
struct Tool {
  const char* name;
  const char* usage_hint = "run with --help for usage";
};

/// Prints "<tool>: <what> (<usage hint>)" to stderr and exits with 2.
[[noreturn]] inline void usage_error(const Tool& tool,
                                     const std::string& what) {
  std::fprintf(stderr, "%s: %s (%s)\n", tool.name, what.c_str(),
               tool.usage_hint);
  std::exit(2);
}

[[noreturn]] inline void bad_value(const Tool& tool, const std::string& flag,
                                   const char* value) {
  usage_error(tool, "bad value '" + std::string(value) + "' for " + flag);
}

/// A base-10 unsigned integer spelling all of `value`.  The first
/// character must be a digit: strtoull would skip leading whitespace and
/// wrap a negative to 2^64 - 1.  Values past 2^64 - 1 are rejected, not
/// clamped.
inline std::uint64_t parse_u64(const Tool& tool, const std::string& flag,
                               const char* value) {
  if (!std::isdigit(static_cast<unsigned char>(value[0]))) {
    bad_value(tool, flag, value);
  }
  errno = 0;
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(value, &end, 10);
  if (*end != '\0' || errno == ERANGE) bad_value(tool, flag, value);
  return v;
}

/// A finite number spelling all of `value` (no leading whitespace; inf,
/// nan and overflowing literals are rejected).
inline double parse_double(const Tool& tool, const std::string& flag,
                           const char* value) {
  if (value[0] == '\0' || std::isspace(static_cast<unsigned char>(value[0]))) {
    bad_value(tool, flag, value);
  }
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (*end != '\0' || !std::isfinite(v)) bad_value(tool, flag, value);
  return v;
}

/// Splits "a,b,c"; empty elements are dropped.
inline std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string item = csv.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// The cell drivers' --engine: "validated" or "release" names the cell
/// store; "arena" is an alias for --arena over the validated store.
inline void parse_engine(const Tool& tool, const char* value,
                         std::string& engine, bool& arena) {
  engine = value;
  if (engine == "arena") {
    engine = "validated";
    arena = true;
  } else if (engine != "validated" && engine != "release") {
    usage_error(tool, "--engine must be 'validated', 'release', or 'arena'");
  }
}

}  // namespace memreal::cli
