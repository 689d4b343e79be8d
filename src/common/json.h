/**
 * @file
 * JSON rendering, shared by the results-file writer behind every
 * bench's `--json` (exp/sweep/records.h, one flat object per line) and
 * detlint's nested report, plus writeTextFile(): the checked write
 * behind every result file (JSON, CSV, Chrome trace, timeseries).
 * Header-only so detlint, which does not link moca_core, can use it.
 */

#ifndef MOCA_COMMON_JSON_H
#define MOCA_COMMON_JSON_H

#include <cstdio>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

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

/** One rendered JSON value: a quoted string, an integer, a bool, or
 *  pre-rendered JSON via raw().  Deliberately not constructible from
 *  a floating-point value (use jsonFixed). */
class JsonValue
{
  public:
    JsonValue(const std::string &s) : text('"' + jsonEscape(s) + '"') {}
    JsonValue(const char *s) : JsonValue(std::string(s)) {}
    template <typename T,
              std::enable_if_t<std::is_integral_v<T>, int> = 0>
    JsonValue(T v)
    {
        if constexpr (std::is_same_v<T, bool>)
            text = v ? "true" : "false";
        else
            text = std::to_string(v);
    }

    static JsonValue
    raw(std::string json)
    {
        JsonValue v;
        v.text = std::move(json);
        return v;
    }

    std::string text;

  private:
    JsonValue() = default;
};

/** `v` printed as printf("%.<decimals>f"). */
inline JsonValue
jsonFixed(double v, int decimals)
{
    const int n = std::snprintf(nullptr, 0, "%.*f", decimals, v);
    std::string s(static_cast<std::size_t>(n), '\0');
    std::snprintf(s.data(), s.size() + 1, "%.*f", decimals, v);
    return JsonValue::raw(std::move(s));
}

/** The `"key": value` fields that share one output line. */
using JsonLine = std::vector<std::pair<const char *, JsonValue>>;

/** A line break followed by `indent` spaces. */
inline std::string
jsonNewline(int indent)
{
    return "\n" + std::string(static_cast<std::size_t>(indent), ' ');
}

/** Fields joined by ", ", lines by "," + jsonNewline(indent). */
inline std::string
jsonFields(const std::vector<JsonLine> &lines, int indent)
{
    std::string out;
    for (std::size_t l = 0; l < lines.size(); ++l) {
        if (l > 0)
            out += "," + jsonNewline(indent);
        for (std::size_t i = 0; i < lines[l].size(); ++i)
            out.append(i > 0 ? ", " : "")
                .append(JsonValue(lines[l][i].first).text)
                .append(": ")
                .append(lines[l][i].second.text);
    }
    return out;
}

/** `{a, b,\n<indent>c}`: an object whose later lines are indented. */
inline JsonValue
jsonObject(const std::vector<JsonLine> &lines, int indent = 0)
{
    return JsonValue::raw("{" + jsonFields(lines, indent) + "}");
}

/** A top-level document: one line per JsonLine, indented 2. */
inline std::string
jsonDocument(const std::vector<JsonLine> &lines)
{
    return "{\n  " + jsonFields(lines, 2) + "\n}\n";
}

/** One item per line, `indent` spaces in.  The `]` goes on its own
 *  line `close` spaces in, or right after the last item when
 *  `close < 0`.  Empty renders as `[]`. */
inline JsonValue
jsonArray(const std::vector<JsonValue> &items, int indent, int close)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
        out.append(i > 0 ? "," : "")
            .append(jsonNewline(indent))
            .append(items[i].text);
    if (!items.empty() && close >= 0)
        out += jsonNewline(close);
    return JsonValue::raw(out + "]");
}

/** Write `text` to `path`; false if the open, write or close fails. */
inline bool
writeTextFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const bool wrote =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && wrote;
}

} // namespace moca

#endif // MOCA_COMMON_JSON_H
