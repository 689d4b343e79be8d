/**
 * @file
 * Cluster front-end dispatchers: the pluggable task-placement policy
 * of the fleet simulator.  A dispatcher sees one arriving task plus a
 * load snapshot of every SoC and picks the SoC the task is queued on;
 * it is the datacenter-level counterpart of the per-SoC scheduling
 * Policy.
 *
 * Dispatchers are string-keyed self-registering factories behind
 * `DispatcherRegistry` — moca::SpecRegistry over Dispatcher, built
 * against a fleet size and seed — with the shared spec grammar
 *
 *     name[:key=value[,key=value...]]
 *
 * and the shared error discipline: unknown names fail with a
 * did-you-mean suggestion, undeclared parameters list the declared
 * ones, and `--list-dispatchers` prints the catalogue.  Built-ins:
 *
 *  - `rr`           round-robin (the placement-oblivious baseline)
 *  - `random`       seeded uniform choice
 *  (the two read no SoC state — Dispatcher::readsLoad is false — so
 *  a runCluster stream under them runs without per-arrival barriers)
 *  - `least-loaded` minimum queue depth (or outstanding work)
 *  - `p2c`          power-of-two-choices: the classic
 *                   O(1)-information balancer
 *  - `qos-aware`    routes high-priority / QoS-Hard tasks to the
 *                   least-contended SoC, everything else round-robin
 *
 * Registration is open via `DispatcherRegistrar`, so benches and
 * downstream users can plug in placement strategies without touching
 * this file.
 */

#ifndef MOCA_CLUSTER_DISPATCHER_H
#define MOCA_CLUSTER_DISPATCHER_H

#include <cstdint>
#include <vector>

#include "cluster/workload.h"
#include "common/spec.h"
#include "common/spec_registry.h"

namespace moca::cluster {

/** Load snapshot of one SoC at a placement decision. */
struct SocLoad
{
    int socIdx = 0;
    int waiting = 0;      ///< Queued (waiting/paused) jobs.
    int running = 0;      ///< Jobs currently on tiles.
    int freeTiles = 0;
    int numTiles = 0;
    int tasksAssigned = 0; ///< Tasks ever placed here.
    /** Placed-but-unfinished task count (queue-depth feedback). */
    int outstanding() const { return waiting + running; }
    /** MACs of placed-but-unfinished tasks (work feedback). */
    double outstandingMacs = 0.0;
};

/** A cluster task-placement policy.  One instance per cluster run;
 *  implementations may keep state (round-robin cursors, RNGs) and are
 *  only ever called from the (single-threaded) cluster loop. */
class Dispatcher
{
  public:
    virtual ~Dispatcher() = default;

    virtual const char *name() const = 0;

    /** Pick the SoC index in [0, socs.size()) the task is placed on.
     *  Called once per task, in arrival order. */
    virtual int place(const ClusterTask &task,
                      const std::vector<SocLoad> &socs) = 0;

    /**
     * Whether place() reads SoC state.  A dispatcher that returns
     * false may use only `socs.size()` and each entry's `socIdx` (and
     * the task and its own state); every other SocLoad field may then
     * be stale, because a fixed-arrival stream is placed before any
     * SoC advances to the task's arrival (cluster/parallel.h, stream
     * replay).  The conservative default keeps a dispatcher — a
     * wrapper included — on the per-arrival barrier path unless it
     * opts out.
     */
    virtual bool readsLoad() const { return true; }
};

/** Dispatcher specs use the shared registry grammar. */
using DispatcherSpec = moca::Spec;

/**
 * The process-wide dispatcher registry (`--list-dispatchers`,
 * `--dispatcher`; iteration order is registration order, built-ins
 * first).  A factory builds for a fleet of `num_socs` SoCs; `seed`
 * feeds any randomized strategy (random, p2c) so cluster runs stay
 * reproducible.  validate() is full: dispatcher parameters carry no
 * SoC-configuration dependence, so it trial-builds for a 1-SoC fleet
 * and catches bad parameter *values* too — before a sweep spends
 * minutes synthesizing a 100k-task stream only to die in a worker.
 */
using DispatcherRegistry =
    moca::SpecRegistry<Dispatcher, int, std::uint64_t>;
/** Everything the registry knows about one dispatcher. */
using DispatcherInfo = DispatcherRegistry::Info;

/** Link-time self-registration hook:
 *
 *     static cluster::DispatcherRegistrar reg({"mine", "...", {...},
 *                                              factory});
 */
using DispatcherRegistrar = moca::Registrar<DispatcherRegistry>;

} // namespace moca::cluster

namespace moca {
template <>
cluster::DispatcherRegistry &cluster::DispatcherRegistry::instance();
} // namespace moca

#endif // MOCA_CLUSTER_DISPATCHER_H
