/**
 * @file
 * Error-reporting and status-message helpers.
 *
 * Follows the gem5 convention: panic() is for internal invariant
 * violations (a bug in this library), fatal() is for user-level errors
 * (bad arguments, missing files), warn() is the non-fatal status
 * channel.
 */

#ifndef MMXDSP_SUPPORT_LOGGING_HH
#define MMXDSP_SUPPORT_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <string>

namespace mmxdsp {

namespace detail {

/** Format a printf-style message into a std::string. */
std::string formatMessage(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Emit a prefixed message to stderr and abort. */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Emit a prefixed message to stderr and exit(1). */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Emit a prefixed, non-fatal message to stderr. */
void warnImpl(const std::string &msg);

} // namespace detail

} // namespace mmxdsp

/** Internal invariant violated: print and abort. */
#define mmxdsp_panic(...)                                                    \
    ::mmxdsp::detail::panicImpl(__FILE__, __LINE__,                          \
                                ::mmxdsp::detail::formatMessage(__VA_ARGS__))

/** Unrecoverable user-level error: print and exit(1). */
#define mmxdsp_fatal(...)                                                    \
    ::mmxdsp::detail::fatalImpl(__FILE__, __LINE__,                          \
                                ::mmxdsp::detail::formatMessage(__VA_ARGS__))

/** Non-fatal warning about questionable conditions. */
#define mmxdsp_warn(...)                                                     \
    ::mmxdsp::detail::warnImpl(::mmxdsp::detail::formatMessage(__VA_ARGS__))

#endif // MMXDSP_SUPPORT_LOGGING_HH
