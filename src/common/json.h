/**
 * @file
 * JSON string-literal escaping shared by every hand-written JSON
 * emitter (sweep sinks, the Chrome-trace exporter, detlint reports).
 * Header-only so targets that do not link moca_core (detlint) can use
 * it too.
 */

#ifndef MOCA_COMMON_JSON_H
#define MOCA_COMMON_JSON_H

#include <cstdio>
#include <string>

namespace moca {

/**
 * Escape `s` for the inside of a JSON string literal: quotes,
 * backslashes, and every control character (\n, \t, \r by name, the
 * rest as \u00XX), so the result is always valid JSON.
 */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace moca

#endif // MOCA_COMMON_JSON_H
