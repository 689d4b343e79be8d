#include "common/spec.h"

#include "common/log.h"

namespace moca {

Spec
Spec::parse(const std::string &spec, const char *noun)
{
    Spec out;
    const auto colon = spec.find(':');
    out.name = spec.substr(0, colon);
    if (out.name.empty())
        fatal("empty %s spec%s", noun,
              spec.empty() ? "" : (" in '" + spec + "'").c_str());
    if (colon == std::string::npos)
        return out;

    std::string rest = spec.substr(colon + 1);
    std::size_t pos = 0;
    while (pos <= rest.size()) {
        auto comma = rest.find(',', pos);
        if (comma == std::string::npos)
            comma = rest.size();
        const std::string item = rest.substr(pos, comma - pos);
        const auto eq = item.find('=');
        if (item.empty() || eq == 0 || eq == std::string::npos)
            fatal("malformed %s spec '%s': expected "
                  "key=value after ':', got '%s'",
                  noun, spec.c_str(), item.c_str());
        out.params.emplace_back(item.substr(0, eq),
                                item.substr(eq + 1));
        pos = comma + 1;
        if (comma == rest.size())
            break;
    }
    return out;
}

std::string
Spec::canonical() const
{
    std::string out = name;
    for (std::size_t i = 0; i < params.size(); ++i) {
        out += i == 0 ? ":" : ",";
        out += params[i].first + "=" + params[i].second;
    }
    return out;
}

std::string
Spec::param(const std::string &key, const std::string &def) const
{
    for (const auto &[k, v] : params)
        if (k == key)
            return v;
    return def;
}

std::vector<std::string>
splitSpecList(const std::string &list, const char *flag)
{
    std::vector<std::string> specs;
    std::size_t pos = 0;
    while (pos <= list.size()) {
        auto comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        const std::string token = list.substr(pos, comma - pos);
        if (!token.empty() &&
            token.find('=') != std::string::npos &&
            token.find(':') == std::string::npos && !specs.empty()) {
            // A bare key=value continues the previous spec's
            // parameter list ("moca:tick=2048,threshold=fixed").
            specs.back() += "," + token;
        } else if (!token.empty()) {
            specs.push_back(token);
        }
        if (comma == list.size())
            break;
        pos = comma + 1;
    }
    if (specs.empty())
        fatal("%s: empty spec list", flag);
    return specs;
}

} // namespace moca
