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
 * behind `AdmissionRegistry` — moca::SpecRegistry over
 * AdmissionPolicy, built from the spec alone — with the shared spec
 * grammar
 *
 *     name[:key=value[,key=value...]]
 *
 * and the shared error discipline (did-you-mean on unknown names,
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
 * snapshot of the *Up* SoCs only — failed capacity is invisible,
 * exactly as it is to the dispatcher.  `Defer` asks the
 * front-end to retry admission later (the client keeps waiting);
 * `Shed` rejects outright (the client backs off and retries, or gives
 * up).  One instance per serve run; implementations may keep state
 * (token buckets) and are only called from the single-threaded
 * front-end loop, so the closed loop stays deterministic.
 */

#ifndef MOCA_SERVE_ADMISSION_H
#define MOCA_SERVE_ADMISSION_H

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

/** Admission specs use the shared registry grammar. */
using AdmissionSpec = moca::Spec;

/**
 * The process-wide admission-policy registry (`--list-admission`,
 * `--admission`; iteration order is registration order, built-ins
 * first).  validate() is full: admission parameters carry no
 * SoC-configuration dependence, like dispatchers, so it trial-builds
 * and catches bad parameter *values* before any simulation work.
 */
using AdmissionRegistry = moca::SpecRegistry<AdmissionPolicy>;

/** Link-time self-registration hook:
 *
 *     static serve::AdmissionRegistrar reg({"mine", "...", {...},
 *                                           factory});
 */
using AdmissionRegistrar = moca::Registrar<AdmissionRegistry>;

} // namespace moca::serve

namespace moca {
template <>
serve::AdmissionRegistry &serve::AdmissionRegistry::instance();
} // namespace moca

#endif // MOCA_SERVE_ADMISSION_H
