/**
 * @file
 * Execution-trace recording: an optional, low-overhead event log the
 * SoC simulator fills while running (job lifecycle, layer-block
 * boundaries, throttle reconfigurations, migrations).  Used by the
 * timeline example and by tests that assert ordering properties that
 * aggregate metrics cannot see.
 */

#ifndef MOCA_SIM_TRACE_H
#define MOCA_SIM_TRACE_H

#include <string>
#include <vector>

#include "common/units.h"

namespace moca::sim {

/** Kind of a trace event. */
enum class TraceEventKind
{
    JobDispatched,  ///< Entered the task queue.
    JobStarted,     ///< First placed on tiles.
    JobResumed,     ///< Re-placed after preemption.
    JobPaused,      ///< Preempted (PREMA).
    JobResized,     ///< Tile allocation changed.
    JobCompleted,
    BlockBoundary,  ///< Crossed into a new layer block.
    ThrottleConfig, ///< MoCA throttle engines reprogrammed.
    SchedTick,      ///< Periodic scheduler tick fired (jobId = -1).
    // Cluster / serve front-end kinds (recorded by the coordinator,
    // jobId = request or slot id as noted).
    AdmissionShed,  ///< Admission dropped a request (jobId = req).
    AdmissionDefer, ///< Admission deferred a request (jobId = req).
    SocFail,        ///< A fleet SoC failed (jobId = slot).
    SocRecover,     ///< A failed SoC came back (jobId = slot).
};

/** Count of TraceEventKind values (for coverage iteration). */
inline constexpr int kNumTraceEventKinds =
    static_cast<int>(TraceEventKind::SocRecover) + 1;

/** One recorded event. */
struct TraceEvent
{
    Cycles cycle = 0;
    TraceEventKind kind = TraceEventKind::JobDispatched;
    int jobId = -1;
    /** Event-dependent value: tiles for start/resize, block index
     *  for boundaries, window cycles for throttle configs. */
    long long value = 0;
    /** Owning SoC in fleet runs (recorder context; 0 standalone). */
    int socId = 0;
};

/** Printable event-kind name. */
const char *traceEventKindName(TraceEventKind kind);

/** Append-only event log. */
class TraceRecorder
{
  public:
    /** Recording is off until enabled (zero overhead when off). */
    void enable() { enabled_ = true; }
    bool enabled() const { return enabled_; }

    /** SoC id stamped on subsequent events (fleet context). */
    void setSocId(int soc_id) { soc_id_ = soc_id; }
    int socId() const { return soc_id_; }

    void
    record(Cycles cycle, TraceEventKind kind, int job_id,
           long long value = 0)
    {
        if (enabled_)
            events_.push_back({cycle, kind, job_id, value, soc_id_});
    }

    const std::vector<TraceEvent> &events() const { return events_; }

    /** Events of one job, in time order. */
    std::vector<TraceEvent> forJob(int job_id) const;

    /** Count of events of a kind (optionally for one job). */
    std::size_t count(TraceEventKind kind, int job_id = -1) const;

    /** Render a human-readable timeline (cycles in Kcyc). */
    std::string render(std::size_t max_events = 200) const;

    void clear() { events_.clear(); }

  private:
    bool enabled_ = false;
    int soc_id_ = 0;
    std::vector<TraceEvent> events_;
};

} // namespace moca::sim

#endif // MOCA_SIM_TRACE_H
