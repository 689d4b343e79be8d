/**
 * @file
 * Cross-layer telemetry capture: the coordinator-side bag a cluster
 * or serve run fills when a caller wants a unified timeline.  Holds
 * the three layers the Chrome-trace exporter aligns:
 *
 *  - per-SoC TraceRecorder events (merged, stamped with socId),
 *  - PDES epoch / horizon-stall spans from cluster::ParallelEngine,
 *  - serve front-end events (admission shed/defer, SoC fail/recover)
 *    recorded by the coordinator,
 *
 * plus any per-SoC sampled timeseries.  A null Capture pointer in
 * ClusterConfig/ServeConfig disables all of it (the default); the
 * capture is written single-threaded by the coordinator, so one
 * capture must not be shared across concurrently running cells.
 */

#ifndef MOCA_OBS_CAPTURE_H
#define MOCA_OBS_CAPTURE_H

#include <vector>

#include "common/units.h"
#include "obs/sampler.h"
#include "sim/trace.h"

namespace moca::obs {

/** One PDES epoch (or horizon stall) on the coordinator clock. */
struct EpochSpan
{
    Cycles begin = 0;
    Cycles end = 0;
    /** SoCs that actually stepped this epoch (0 for a stall). */
    std::uint64_t socsStepped = 0;
    /** True when the horizon was already reached (no epoch ran). */
    bool stall = false;
};

/** Everything one cluster/serve run recorded for export. */
struct Capture
{
    /** Serve front-end events (empty in plain cluster runs). */
    sim::TraceRecorder frontend;

    /** Merged per-SoC trace events, each stamped with its socId. */
    std::vector<sim::TraceEvent> socEvents;

    std::vector<EpochSpan> epochs;

    /** Per-SoC sampled instrument series (socId-indexed order);
     *  empty unless SocConfig::sampleEvery was set. */
    std::vector<Timeseries> socSeries;
};

} // namespace moca::obs

#endif // MOCA_OBS_CAPTURE_H
