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
 * The registry is moca::SpecRegistry over sim::Policy, built against
 * the SoC configuration the policy runs on.  Registration is open:
 * link-time self-registration through `PolicyRegistrar` lets examples
 * and downstream users plug in new policies without touching this
 * file (see examples/scheduler_playground.cpp).  The built-in
 * policies are registered by `instance()` so they are always
 * available.
 */

#ifndef MOCA_EXP_REGISTRY_H
#define MOCA_EXP_REGISTRY_H

#include "common/spec.h"
#include "common/spec_registry.h"
#include "sim/config.h"
#include "sim/policy.h"

namespace moca::exp {

/** A parsed policy spec: base name + key=value parameters in the
 *  order given (the shared registry grammar of common/spec.h). */
using PolicySpec = moca::Spec;

/**
 * The process-wide policy registry (`--list-policies`, `--policy`).
 * Iteration order is registration order: built-ins first, in the
 * paper's presentation order.  validate() is structural only —
 * grammar, name, and declared parameter keys: parameter *values* are
 * checked when the policy is built against the SoC configuration it
 * actually runs on (range checks like "solo:tiles=16" depend on it).
 */
using PolicyRegistry =
    moca::SpecRegistry<sim::Policy, const sim::SocConfig &>;

/** Link-time self-registration hook:
 *
 *     static exp::PolicyRegistrar reg({"mine", "...", {...}, factory});
 */
using PolicyRegistrar = moca::Registrar<PolicyRegistry>;

} // namespace moca::exp

namespace moca {
template <>
exp::PolicyRegistry &exp::PolicyRegistry::instance();
} // namespace moca

#endif // MOCA_EXP_REGISTRY_H
