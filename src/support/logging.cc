#include "logging.hh"

#include <cstdarg>

namespace mmxdsp {

namespace detail {

std::string
formatMessage(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);

    std::string out;
    if (needed > 0) {
        out.resize(static_cast<size_t>(needed) + 1);
        std::vsnprintf(out.data(), out.size(), fmt, args_copy);
        out.resize(static_cast<size_t>(needed));
    }
    va_end(args_copy);
    return out;
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

} // namespace detail

} // namespace mmxdsp
