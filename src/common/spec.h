/**
 * @file
 * The shared *spec* grammar of every self-registering factory registry
 * in the tree (scheduling policies, memory models, cluster
 * dispatchers, admission policies):
 *
 *     name[:key=value[,key=value...]]
 *
 * e.g. "moca", "moca:tick=2048,threshold=fixed",
 * "banked:banks=16,remap=xor".  A Spec is the parsed form; SpecParam
 * is one declared parameter of a registered factory (the schema entry
 * the registries validate specs against and print in their --list-*
 * catalogues).
 */

#ifndef MOCA_COMMON_SPEC_H
#define MOCA_COMMON_SPEC_H

#include <string>
#include <utility>
#include <vector>

namespace moca {

/** A parsed spec: base name + key=value parameters in the order
 *  given. */
struct Spec
{
    std::string name;
    std::vector<std::pair<std::string, std::string>> params;

    /** Parse "name:key=value,..."; fatal on syntax errors.  `noun`
     *  names the spec kind in error messages ("policy",
     *  "dispatcher", "memory model") — required, so a new registry
     *  cannot silently mislabel its errors. */
    static Spec parse(const std::string &spec, const char *noun);

    /** Re-serialize to the canonical "name:key=value,..." form. */
    std::string canonical() const;

    /** Value of parameter `key`, or `def` when not given. */
    std::string param(const std::string &key,
                      const std::string &def) const;
};

/** One declared parameter of a registered factory (schema entry used
 *  by the --list-* catalogues and spec validation). */
struct SpecParam
{
    std::string key;
    std::string type; ///< "int", "double", "bool", or an enum list.
    std::string defaultValue;
    std::string description;
};

/**
 * Split a `--policy`-style list into individual specs.  Commas
 * separate both specs and parameters; a token containing '=' extends
 * the previous spec's parameter list, any other token starts a new
 * spec: "moca:tick=2048,threshold=fixed,prema" is the parameterized
 * moca spec followed by plain prema.  `flag` names the option in the
 * empty-list error ("--policy", "mems=").
 */
std::vector<std::string> splitSpecList(const std::string &list,
                                       const char *flag);

} // namespace moca

#endif // MOCA_COMMON_SPEC_H
