#include "common/log.h"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace moca {

namespace {

std::string
vformat(const char *fmt, va_list ap)
{
    va_list ap_copy;
    va_copy(ap_copy, ap);
    int len = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (len < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<size_t>(len) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data(), static_cast<size_t>(len));
}

void
emit(const char *prefix, const char *fmt, va_list ap)
{
    std::string body = vformat(fmt, ap);
    std::fprintf(stderr, "%s%s\n", prefix, body.c_str());
}

} // anonymous namespace

void
inform(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    emit("info: ", fmt, ap);
    va_end(ap);
}

void
warn(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    emit("warn: ", fmt, ap);
    va_end(ap);
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    emit("fatal: ", fmt, ap);
    va_end(ap);
    std::exit(1);
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    emit("panic: ", fmt, ap);
    va_end(ap);
    std::abort();
}

std::string
strprintf(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vformat(fmt, ap);
    va_end(ap);
    return s;
}

} // namespace moca
