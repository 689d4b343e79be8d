#include "common/argparse.h"

#include <cctype>
#include <cstdlib>

#include "common/log.h"
#include "common/text.h"

namespace moca {

namespace {

/** Whether a token can be the value of a preceding dashed option:
 *  anything not shaped like an option itself.  "-1.5" and "-.5" are
 *  values (negative numbers); "--jobs" and "-v" are options.  A bare
 *  key=value token is its own argument — except when a ':' precedes
 *  the first '=', which marks a policy spec ("moca:tick=2048"). */
bool
isOptionValue(const std::string &token)
{
    if (token.empty())
        return false;
    if (token[0] != '-') {
        const auto eq = token.find('=');
        return eq == std::string::npos ||
            token.find(':') < eq;
    }
    return token.size() > 1 &&
        (std::isdigit(static_cast<unsigned char>(token[1])) ||
         token[1] == '.');
}

} // namespace

std::int64_t
parseIntValue(const std::string &what, const std::string &value)
{
    char *end = nullptr;
    const long long v = std::strtoll(value.c_str(), &end, 0);
    if (end == value.c_str() || *end != '\0')
        fatal("%s=%s is not an integer", what.c_str(), value.c_str());
    return v;
}

double
parseDoubleValue(const std::string &what, const std::string &value)
{
    char *end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0')
        fatal("%s=%s is not a number", what.c_str(), value.c_str());
    return v;
}

bool
parseBoolValue(const std::string &what, const std::string &value)
{
    if (value == "1" || value == "true" || value == "yes" ||
        value == "on")
        return true;
    if (value == "0" || value == "false" || value == "no" ||
        value == "off")
        return false;
    fatal("%s=%s is not a boolean", what.c_str(), value.c_str());
}

std::vector<int>
parseIntList(const std::string &what, const std::string &text)
{
    if (text.empty())
        fatal("%s needs at least one value", what.c_str());
    std::vector<int> values;
    for (const auto &tok : splitCommaList(text))
        values.push_back(static_cast<int>(parseIntValue(what, tok)));
    return values;
}

std::vector<double>
parseDoubleList(const std::string &what, const std::string &text)
{
    if (text.empty())
        fatal("%s needs at least one value", what.c_str());
    std::vector<double> values;
    for (const auto &tok : splitCommaList(text))
        values.push_back(parseDoubleValue(what, tok));
    return values;
}

ArgMap::ArgMap(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];

        // GNU-style spellings normalize onto the key=value map:
        // `--jobs 4`, `--jobs=4`, and `jobs=4` are equivalent.
        bool dashed = false;
        while (!arg.empty() && arg[0] == '-') {
            arg.erase(0, 1);
            dashed = true;
        }

        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            values_[arg.substr(0, eq)] = arg.substr(eq + 1);
        } else if (dashed && i + 1 < argc &&
                   isOptionValue(argv[i + 1])) {
            values_[arg] = argv[++i];
        } else {
            values_[arg] = "1";
        }
    }
}

const std::string *
ArgMap::lookup(const std::string &key) const
{
    read_.insert(key);
    const auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
}

bool
ArgMap::has(const std::string &key) const
{
    return lookup(key) != nullptr;
}

std::string
ArgMap::getString(const std::string &key, const std::string &def) const
{
    const std::string *v = lookup(key);
    return v == nullptr ? def : *v;
}

std::int64_t
ArgMap::getInt(const std::string &key, std::int64_t def) const
{
    const std::string *v = lookup(key);
    return v == nullptr ? def : parseIntValue("argument " + key, *v);
}

double
ArgMap::getDouble(const std::string &key, double def) const
{
    const std::string *v = lookup(key);
    return v == nullptr ? def : parseDoubleValue("argument " + key, *v);
}

bool
ArgMap::getBool(const std::string &key, bool def) const
{
    const std::string *v = lookup(key);
    return v == nullptr ? def : parseBoolValue("argument " + key, *v);
}

void
ArgMap::requireAllRead() const
{
    std::string unread;
    for (const auto &kv : values_) {
        if (read_.count(kv.first) == 0)
            unread += (unread.empty() ? "" : ", ") + kv.first;
    }
    if (!unread.empty())
        fatal("unknown argument(s): %s (misspelled, or not an option "
              "of this program)", unread.c_str());
}

} // namespace moca
