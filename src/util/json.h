// A minimal JSON document builder + reader for machine-readable artifacts
// (BENCH_*.json, memreal_shard --json).  Keys keep insertion order so
// emitted files diff cleanly across runs.  The reader (`Json::parse`) is
// what the report layer (`src/report/`) uses to load BENCH_*.json back;
// dump/parse round-trips are exact (uints stay uints, doubles are emitted
// with max_digits10).
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace memreal {

/// Thrown by Json::parse on malformed input; the message carries the
/// 1-based line and column of the offending byte.
class JsonParseError : public std::runtime_error {
 public:
  explicit JsonParseError(const std::string& what)
      : std::runtime_error(what) {}
};

class Json {
 public:
  /// Scalars.  Doubles are emitted with max_digits10 so round-trips are
  /// exact; non-finite doubles are emitted as null (JSON has no inf/nan).
  Json() : kind_(Kind::kNull) {}
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}             // NOLINT
  Json(double d) : kind_(Kind::kNumber), num_(d) {}          // NOLINT
  Json(std::uint64_t u) : kind_(Kind::kUInt), uint_(u) {}    // NOLINT
  Json(int i) : kind_(Kind::kNumber), num_(i) {}             // NOLINT
  Json(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}  // NOLINT
  Json(const char* s) : kind_(Kind::kString), str_(s) {}     // NOLINT

  static Json object() { return Json(Kind::kObject); }
  static Json array() { return Json(Kind::kArray); }

  /// Parses a complete JSON document (trailing garbage is an error).
  /// Non-negative integers without fraction/exponent parse as uints,
  /// everything else numeric as double — so dump/parse round-trips keep
  /// 64-bit counters exact.  Throws JsonParseError on malformed input.
  [[nodiscard]] static Json parse(std::string_view text);

  /// Object member (insertion-ordered; duplicate keys are kept as-is, the
  /// caller is expected not to produce them).  Returns *this for chaining.
  Json& set(const std::string& key, Json value);

  /// Array element.  Returns *this for chaining.
  Json& push(Json value);

  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_uint() const { return kind_ == Kind::kUInt; }
  /// True for both floating-point and unsigned-integer values.
  [[nodiscard]] bool is_number() const {
    return kind_ == Kind::kNumber || kind_ == Kind::kUInt;
  }
  [[nodiscard]] std::size_t size() const { return children_.size(); }

  /// Typed accessors; each throws JsonParseError when the value has a
  /// different kind (the report layer surfaces these as artifact errors).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;  ///< kNumber or kUInt
  [[nodiscard]] std::uint64_t as_u64() const;
  [[nodiscard]] const std::string& as_string() const;

  /// Object lookup: first member named `key`, or nullptr.
  [[nodiscard]] const Json* find(const std::string& key) const;
  /// Object lookup that throws JsonParseError when `key` is absent.
  [[nodiscard]] const Json& at(const std::string& key) const;
  /// Raw members: (key, value) for objects, ("", value) for arrays.
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& items()
      const {
    return children_;
  }

  /// Serializes the document.  indent = 0 is compact; indent > 0
  /// pretty-prints with that many spaces per level.
  [[nodiscard]] std::string dump(int indent = 0) const;

 private:
  enum class Kind : unsigned char {
    kNull, kBool, kNumber, kUInt, kString, kObject, kArray
  };

  explicit Json(Kind kind) : kind_(kind) {}

  void write(std::string& out, int indent, int depth) const;
  static void write_escaped(std::string& out, const std::string& s);

  Kind kind_;
  bool bool_ = false;
  double num_ = 0.0;
  std::uint64_t uint_ = 0;
  std::string str_;
  std::vector<std::pair<std::string, Json>> children_;  ///< object / array
};

}  // namespace memreal
