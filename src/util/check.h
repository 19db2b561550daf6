// Always-on invariant checking.
//
// The allocators in this library are executable proofs: every lemma-level
// invariant from the paper is asserted at runtime.  Violations throw
// memreal::InvariantViolation (so tests can EXPECT_THROW and production
// users get a diagnosable failure rather than silent corruption).
#pragma once

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace memreal {

/// Thrown when a paper invariant (disjointness, resizable bound, level-size
/// invariant, ...) fails at runtime.
class InvariantViolation : public std::logic_error {
 public:
  /// `reason_at` indexes the start of the failed check's own message in
  /// `what` (0: the whole text is the reason).
  explicit InvariantViolation(const std::string& what,
                              std::size_t reason_at = 0)
      : std::logic_error(what), reason_at_(reason_at) {}

  /// The check's streamed message, without the expression and source
  /// location; the whole what() for a check that has no message.
  [[nodiscard]] std::string_view reason() const {
    return std::string_view(what()).substr(reason_at_);
  }

 private:
  std::size_t reason_at_;
};

namespace detail {
[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "invariant violated: " << expr << " at " << file << ":" << line;
  std::size_t reason_at = 0;
  if (!msg.empty()) {
    os << " — ";
    reason_at = static_cast<std::size_t>(os.tellp());
    os << msg;
  }
  throw InvariantViolation(os.str(), reason_at);
}
}  // namespace detail

}  // namespace memreal

/// MEMREAL_CHECK(cond) — throw InvariantViolation unless cond holds.
#define MEMREAL_CHECK(cond)                                              \
  do {                                                                   \
    if (!(cond)) {                                                       \
      ::memreal::detail::check_failed(#cond, __FILE__, __LINE__, "");    \
    }                                                                    \
  } while (0)

/// MEMREAL_CHECK_MSG(cond, msg) — as MEMREAL_CHECK with a streamed message.
#define MEMREAL_CHECK_MSG(cond, msg)                                     \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::ostringstream memreal_os_;                                    \
      memreal_os_ << msg; /* NOLINT */                                   \
      ::memreal::detail::check_failed(#cond, __FILE__, __LINE__,         \
                                      memreal_os_.str());                \
    }                                                                    \
  } while (0)

namespace memreal {

namespace detail {
[[noreturn, gnu::cold, gnu::noinline]] inline void overflow_failed(
    const char* what, std::uint64_t a, std::uint64_t b) {
  std::ostringstream os;
  os << what << " overflows 64 bits: " << a << " + " << b;
  check_failed("a + b < 2^64", __FILE__, __LINE__, os.str());
}
}  // namespace detail

/// a + b for a running mass or byte total; throws InvariantViolation when
/// the sum would wrap past 2^64 - 1 (`what` names the total), so a wrapped
/// total can never turn into a plausible-looking cost ratio.  The failure
/// path stays out of line: the hot callers keep one add and one branch.
[[nodiscard]] inline std::uint64_t checked_add(std::uint64_t a,
                                               std::uint64_t b,
                                               const char* what) {
  std::uint64_t sum = 0;
  if (__builtin_add_overflow(a, b, &sum)) [[unlikely]] {
    detail::overflow_failed(what, a, b);
  }
  return sum;
}

}  // namespace memreal
