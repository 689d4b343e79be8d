/**
 * @file
 * Minimal key=value argument parsing for the benchmark and example
 * binaries, e.g. `paper_figs tasks=300 seed=7 load=0.9`.
 */

#ifndef MOCA_COMMON_ARGPARSE_H
#define MOCA_COMMON_ARGPARSE_H

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace moca {

/**
 * Parse a typed value out of a free-standing string (shared by ArgMap
 * and the policy-spec parameter surface).  `what` names the setting in
 * the fatal() message on malformed input.
 */
std::int64_t parseIntValue(const std::string &what,
                           const std::string &value);
double parseDoubleValue(const std::string &what,
                        const std::string &value);
bool parseBoolValue(const std::string &what, const std::string &value);

/** Parse a non-empty comma list ("1,4,64") of typed values; fatal()
 *  on a malformed token or an empty list. */
std::vector<int> parseIntList(const std::string &what,
                              const std::string &text);
std::vector<double> parseDoubleList(const std::string &what,
                                    const std::string &text);

/**
 * Parsed key=value command-line overrides with typed lookups.  Every
 * lookup records its key, so requireAllRead() can reject arguments
 * the program never asked for.
 */
class ArgMap
{
  public:
    ArgMap() = default;

    /**
     * Parse argv entries of the form key=value; entries without '='
     * are treated as boolean flags set to "1".
     */
    ArgMap(int argc, char **argv);

    bool has(const std::string &key) const;

    std::string getString(const std::string &key,
                          const std::string &def) const;
    std::int64_t getInt(const std::string &key, std::int64_t def) const;
    double getDouble(const std::string &key, double def) const;
    bool getBool(const std::string &key, bool def) const;

    /**
     * fatal() naming every given argument no lookup has read (a
     * misspelled key, or a flag this program does not have), so it
     * cannot silently run the defaults.  Call once the program has
     * read all of its options, before it starts work.
     */
    void requireAllRead() const;

  private:
    std::map<std::string, std::string> values_;
    /** Keys looked up so far, given or not. */
    // detlint: allow(R4) per-instance; a main reads its args on one thread
    mutable std::set<std::string> read_;

    /** Record `key` as read; its value, or nullptr when not given. */
    const std::string *lookup(const std::string &key) const;
};

} // namespace moca

#endif // MOCA_COMMON_ARGPARSE_H
