/**
 * @file
 * Admission control for the closed-loop serving front-end: the
 * pluggable policy consulted *before* placement that decides whether
 * an arriving request enters the fleet at all.  Shedding at the door
 * is the classic serving-system defense against overload collapse —
 * a request the fleet cannot finish inside its SLO only steals
 * capacity from the ones it could.
 *
 * Admission policies are string-keyed self-registering factories
 * mirroring cluster::DispatcherRegistry, with the shared spec grammar
 *
 *     name[:key=value[,key=value...]]
 *
 * and the same error discipline (did-you-mean on unknown names,
 * declared-parameter validation, `--list-admission` catalogue).
 * Built-ins:
 *
 *  - `always`     admit everything (the open-loop baseline)
 *  - `queue-cap`  shed (or defer) when mean outstanding work per Up
 *                 SoC exceeds a depth cap
 *  - `slo-budget` token bucket metering admissions to a sustainable
 *                 rate with bounded burst
 *
 * A policy sees the arriving task, the front-end clock, and the load
 * snapshot of the *Up* SoCs only — failed and draining capacity is
 * invisible, exactly as it is to the dispatcher.  `Defer` asks the
 * front-end to retry admission later (the client keeps waiting);
 * `Shed` rejects outright (the client backs off and retries, or gives
 * up).  One instance per serve run; implementations may keep state
 * (token buckets) and are only called from the single-threaded
 * front-end loop, so the closed loop stays deterministic.
 */

#ifndef MOCA_SERVE_ADMISSION_H
#define MOCA_SERVE_ADMISSION_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/dispatcher.h"
#include "cluster/workload.h"
#include "common/spec.h"
#include "common/spec_registry.h"
#include "common/units.h"

namespace moca::serve {

/** Outcome of one admission decision. */
enum class AdmissionDecision
{
    Admit, ///< Place the request now.
    Shed,  ///< Reject; the client sees an error and backs off.
    Defer, ///< Hold at the front door; re-decide next control tick.
};

/** A serving admission-control policy (one instance per run). */
class AdmissionPolicy
{
  public:
    virtual ~AdmissionPolicy() = default;

    virtual const char *name() const = 0;

    /**
     * Decide the fate of `task` arriving at front-end cycle `now`.
     * `up_socs` snapshots the load of the currently-Up SoCs only
     * (never empty: the front-end holds requests while no capacity
     * is Up rather than consulting admission).
     */
    virtual AdmissionDecision
    decide(const cluster::ClusterTask &task, Cycles now,
           const std::vector<cluster::SocLoad> &up_socs) = 0;
};

/** Admission specs reuse the shared spec grammar and parser. */
using AdmissionSpec = moca::Spec;
/** ... and the shared parameter-schema entry type. */
using AdmissionParam = moca::SpecParam;

/** Everything the registry knows about one admission policy. */
struct AdmissionInfo
{
    std::string name;
    std::string description;
    std::vector<AdmissionParam> params;

    /** Build the policy from an already-validated spec. */
    std::function<std::unique_ptr<AdmissionPolicy>(
        const AdmissionSpec &spec)>
        factory;
};

/**
 * The process-wide admission-policy registry (iteration order is
 * registration order, built-ins first).  The shared machinery lives
 * in the moca::SpecRegistry base.
 */
class AdmissionRegistry : public moca::SpecRegistry<AdmissionInfo>
{
  public:
    static AdmissionRegistry &instance();

    /** Parse, validate, and build a policy from a spec string. */
    std::unique_ptr<AdmissionPolicy>
    make(const std::string &spec) const;
    std::unique_ptr<AdmissionPolicy>
    make(const AdmissionSpec &spec) const;

    /**
     * Full spec validation: grammar, name, parameter keys, and
     * parameter *values* by trial-building (admission parameters
     * carry no SoC-configuration dependence, like dispatchers).
     * Fatal with actionable messages before any simulation work.
     */
    void validate(const std::string &spec) const;

  private:
    AdmissionRegistry()
        : SpecRegistry("admission policy", "admission policies",
                       "--list-admission")
    {
    }
};

/**
 * Link-time self-registration hook:
 *
 *     static serve::AdmissionRegistrar reg({"mine", "...", {...},
 *                                           factory});
 */
struct AdmissionRegistrar
{
    explicit AdmissionRegistrar(AdmissionInfo info)
    {
        AdmissionRegistry::instance().add(std::move(info));
    }
};

} // namespace moca::serve

#endif // MOCA_SERVE_ADMISSION_H
