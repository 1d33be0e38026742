/**
 * @file
 * Error-reporting primitives, in the spirit of gem5's logging.hh.
 *
 * stepPanic()  — internal invariant violated (a bug in this library).
 * stepFatal()  — the user configured something impossible.
 * STEP_ASSERT — cheap invariant check that is kept in release builds;
 *               its failure path is cold and out of line.
 */
#pragma once

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace step {

/** Exception thrown for user-caused configuration errors. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string& what) : std::runtime_error(what) {}
};

/** Exception thrown for internal invariant violations. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {

/** Format a message with file/line context. */
[[nodiscard]] inline std::string
formatWhere(const char* kind, const char* file, int line,
            const std::string& msg)
{
    std::ostringstream os;
    os << kind << " at " << file << ":" << line << ": " << msg;
    return os.str();
}

} // namespace detail

} // namespace step

/** Report an internal bug and unwind. */
#define stepPanic(msg)                                                       \
    do {                                                                     \
        std::ostringstream _step_os;                                         \
        _step_os << msg;                                                     \
        throw ::step::PanicError(::step::detail::formatWhere(                \
            "panic", __FILE__, __LINE__, _step_os.str()));                   \
    } while (0)

/** Report a user-caused error and unwind. */
#define stepFatal(msg)                                                       \
    do {                                                                     \
        std::ostringstream _step_os;                                         \
        _step_os << msg;                                                     \
        throw ::step::FatalError(::step::detail::formatWhere(                \
            "fatal", __FILE__, __LINE__, _step_os.str()));                   \
    } while (0)

/**
 * Invariant check kept in all build types. The failure branch is an
 * immediately invoked cold, out-of-line lambda, so a passing check
 * costs one predicted branch and the message formatting (a stream and a
 * throw) never bloats or blocks inlining of the hot caller. __FILE__ and
 * __LINE__ still name the assert's own line.
 */
#define STEP_ASSERT(cond, msg)                                               \
    do {                                                                     \
        if (!(cond)) [[unlikely]] {                                          \
            [&]() __attribute__((cold, noinline, noreturn)) {                \
                stepPanic("assertion `" #cond "` failed: " << msg);          \
            }();                                                             \
        }                                                                    \
    } while (0)
