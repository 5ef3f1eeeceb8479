#pragma once
// Checked preconditions and invariants.
//
// STTSV_REQUIRE  - argument/precondition validation; always on; throws
//                  sttsv::PreconditionError so callers can test misuse.
// STTSV_CHECK    - internal invariant; always on; throws sttsv::InternalError.
//                  These guard combinatorial constructions (Steiner systems,
//                  matchings, partitions) whose failure would silently produce
//                  wrong communication schedules, so they stay on in release.
// STTSV_DCHECK   - hot-path invariant; compiled out unless STTSV_DEBUG_CHECKS.
// STTSV_UNREACHABLE - ends a path that must never run (e.g. after a switch
//                  over every enumerator) with an unconditional InternalError,
//                  so no compiler flags the function for a missing return.

#include <stdexcept>
#include <string>

namespace sttsv {

/// Thrown when a caller violates a documented precondition.
class PreconditionError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Thrown when an internal invariant is violated (a library bug).
class InternalError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {
[[noreturn]] void throw_precondition(const char* expr, const char* file,
                                     int line, const std::string& msg);
[[noreturn]] void throw_internal(const char* expr, const char* file, int line,
                                 const std::string& msg);
}  // namespace detail

}  // namespace sttsv

#define STTSV_REQUIRE(expr, msg)                                        \
  do {                                                                  \
    if (!(expr)) {                                                      \
      ::sttsv::detail::throw_precondition(#expr, __FILE__, __LINE__,    \
                                          (msg));                       \
    }                                                                   \
  } while (false)

#define STTSV_CHECK(expr, msg)                                        \
  do {                                                                \
    if (!(expr)) {                                                    \
      ::sttsv::detail::throw_internal(#expr, __FILE__, __LINE__,      \
                                      (msg));                         \
    }                                                                 \
  } while (false)

#define STTSV_UNREACHABLE(msg) \
  ::sttsv::detail::throw_internal("unreachable", __FILE__, __LINE__, (msg))

#ifdef STTSV_DEBUG_CHECKS
#define STTSV_DCHECK(expr, msg) STTSV_CHECK(expr, msg)
#else
#define STTSV_DCHECK(expr, msg) \
  do {                          \
  } while (false)
#endif
