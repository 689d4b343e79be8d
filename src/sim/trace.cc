#include "sim/trace.h"

#include "common/log.h"

namespace moca::sim {

const char *
traceEventKindName(TraceEventKind kind)
{
    switch (kind) {
      case TraceEventKind::JobDispatched: return "dispatch";
      case TraceEventKind::JobStarted: return "start";
      case TraceEventKind::JobResumed: return "resume";
      case TraceEventKind::JobPaused: return "pause";
      case TraceEventKind::JobResized: return "resize";
      case TraceEventKind::JobCompleted: return "complete";
      case TraceEventKind::BlockBoundary: return "block";
      case TraceEventKind::ThrottleConfig: return "throttle";
      case TraceEventKind::SchedTick: return "tick";
      case TraceEventKind::AdmissionShed: return "shed";
      case TraceEventKind::AdmissionDefer: return "defer";
      case TraceEventKind::SocFail: return "fail";
      case TraceEventKind::SocRecover: return "recover";
    }
    return "?";
}

std::vector<TraceEvent>
TraceRecorder::forJob(int job_id) const
{
    std::vector<TraceEvent> out;
    for (const auto &e : events_)
        if (e.jobId == job_id)
            out.push_back(e);
    return out;
}

std::size_t
TraceRecorder::count(TraceEventKind kind, int job_id) const
{
    std::size_t n = 0;
    for (const auto &e : events_)
        if (e.kind == kind && (job_id < 0 || e.jobId == job_id))
            ++n;
    return n;
}

std::string
TraceRecorder::render(std::size_t max_events) const
{
    std::string out;
    std::size_t shown = 0;
    for (const auto &e : events_) {
        if (shown++ >= max_events) {
            out += strprintf("... (%zu more events)\n",
                             events_.size() - max_events);
            break;
        }
        out += strprintf("%10.1fK  job %-3d %-9s %lld\n",
                         static_cast<double>(e.cycle) / 1e3, e.jobId,
                         traceEventKindName(e.kind), e.value);
    }
    return out;
}

} // namespace moca::sim
