/**
 * @file
 * Open, string-keyed policy registry: the seam through which every
 * multi-tenancy mechanism — the paper's four plus any user-defined
 * policy — is named, parameterized, and instantiated.
 *
 * A *policy spec* is a string of the form
 *
 *     name[:key=value[,key=value...]]
 *
 * e.g. "moca", "moca:tick=2048,threshold=fixed", or
 * "prema:preempt_margin=1.5".  Each registered policy declares a
 * factory, a one-line description, and a parameter schema; the
 * registry validates specs against the schema and fails loudly with
 * actionable errors (unknown names get a did-you-mean suggestion,
 * unknown parameters get the declared parameter list).
 *
 * Registration is open: link-time self-registration through
 * `PolicyRegistrar` lets examples and downstream users plug in new
 * policies without touching this file (see
 * examples/scheduler_playground.cpp).  The four built-in policies are
 * registered by the registry itself so they are always available.
 */

#ifndef MOCA_EXP_REGISTRY_H
#define MOCA_EXP_REGISTRY_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/spec.h"
#include "common/spec_registry.h"
#include "sim/config.h"
#include "sim/policy.h"

namespace moca::exp {

/** A parsed policy spec: base name + key=value parameters in the
 *  order given (the shared registry grammar of common/spec.h). */
using PolicySpec = moca::Spec;

/** One declared parameter of a registered policy (schema entry used
 *  by --list-policies and spec validation). */
using PolicyParam = moca::SpecParam;

/** Everything the registry knows about one policy. */
struct PolicyInfo
{
    std::string name;
    std::string description;
    std::vector<PolicyParam> params;

    /**
     * Build the policy for `cfg` with `spec`'s parameters applied.
     * Called with an already-validated spec (name matches, every
     * param key is declared); factories apply values through the
     * config structs' applyParam surface, which is fatal on
     * malformed values.  Must be thread-safe: sweep workers invoke
     * it concurrently.
     */
    std::function<std::unique_ptr<sim::Policy>(
        const sim::SocConfig &cfg, const PolicySpec &spec)>
        factory;
};

/**
 * The process-wide policy registry.  All lookups go through spec
 * strings; iteration order is registration order (built-ins first, in
 * the paper's presentation order).  Registration, name lookup with
 * did-you-mean, parameter-key validation, and the catalogue come from
 * the shared moca::SpecRegistry base.
 */
class PolicyRegistry : public moca::SpecRegistry<PolicyInfo>
{
  public:
    /** The singleton (built-ins are registered on first use). */
    static PolicyRegistry &instance();

    /**
     * Parse, validate, and build a policy from a spec string.  This
     * is the one entry point scenario and sweep use; unknown
     * names and undeclared parameters are fatal with actionable
     * messages.
     */
    std::unique_ptr<sim::Policy> make(const std::string &spec,
                                      const sim::SocConfig &cfg) const;
    std::unique_ptr<sim::Policy> make(const PolicySpec &spec,
                                      const sim::SocConfig &cfg) const;

    /**
     * Structurally validate a spec string without building the
     * policy: grammar, name (did-you-mean on typos), and declared
     * parameter keys.  Parameter values are checked when the policy
     * is built against its actual SoC configuration.
     */
    void validate(const std::string &spec) const;

  private:
    PolicyRegistry()
        : SpecRegistry("policy", "policies", "--list-policies")
    {
    }
};

/**
 * Link-time self-registration hook:
 *
 *     static exp::PolicyRegistrar reg({"mine", "...", {...}, factory});
 */
struct PolicyRegistrar
{
    explicit PolicyRegistrar(PolicyInfo info)
    {
        PolicyRegistry::instance().add(std::move(info));
    }
};

/**
 * Split a `--policy`-style list into individual specs.  Commas
 * separate both specs and parameters; a token containing '=' extends
 * the previous spec's parameter list, any other token starts a new
 * spec: "moca:tick=2048,threshold=fixed,prema" is the parameterized
 * moca spec followed by plain prema.  `flag` names the option in the
 * empty-list error ("--policy", "--dispatcher").
 */
std::vector<std::string> splitPolicyList(const std::string &list,
                                         const char *flag = "--policy");

} // namespace moca::exp

#endif // MOCA_EXP_REGISTRY_H
