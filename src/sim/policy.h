/**
 * @file
 * Execution-policy interface: the seam where MoCA and the baseline
 * multi-tenancy mechanisms (PREMA, static partitioning, Planaria)
 * plug into the SoC simulator.  The simulator invokes the policy at
 * scheduling points (arrivals, completions, periodic ticks) and at
 * layer-block boundaries; the policy reacts by starting, resizing,
 * pausing, or throttling jobs through the Soc's control interface.
 */

#ifndef MOCA_SIM_POLICY_H
#define MOCA_SIM_POLICY_H

#include "sim/job.h"

namespace moca::sim {

class Soc;

/** Why the policy's schedule() hook is being invoked. */
enum class SchedEvent
{
    JobArrival,
    JobCompletion,
    PeriodicTick,
};

/** Base class for multi-tenancy execution policies. */
class Policy
{
  public:
    virtual ~Policy() = default;

    /** Short policy name for reports ("moca", "prema", ...). */
    virtual const char *name() const = 0;

    /**
     * Main scheduling hook.  Inspect the Soc's job queues and issue
     * control calls (startJob / resizeJob / pauseJob /
     * configureThrottle).  Invoked whenever `event` occurs, with
     * two exceptions for PeriodicTick:
     *  - it is not delivered while the SoC has no running and no
     *    waiting job, so an idle gap costs O(1) however long it is;
     *  - the event kernel does not deliver it while the policy's
     *    Soc::quietTicks() declaration holds: a policy that proves at
     *    the end of schedule() that a tick in the current state cannot
     *    act may say so, and steps then cross its ticks.
     * A policy must therefore be a no-op on such a tick, read time
     * from soc.now(), and never count ticks.
     */
    virtual void schedule(Soc &soc, SchedEvent event) = 0;

    /**
     * Job `id` crossed a layer-block boundary (it is about to begin
     * its next block).  Policies reconfigure resources at this
     * granularity (Sec. IV-D).  Default: no action.
     */
    virtual void onBlockBoundary(Soc &soc, int id);

    /** Job `id` finished; called before the follow-up schedule(). */
    virtual void onJobComplete(Soc &soc, int id);
};

} // namespace moca::sim

#endif // MOCA_SIM_POLICY_H
