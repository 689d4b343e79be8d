#include "obs/chrome_trace.h"

#include <algorithm>

#include "common/json.h"
#include "common/log.h"

namespace moca::obs {

namespace {

/** Cycles -> trace microseconds at the 1 GHz simulated clock. */
double
cyclesToUs(Cycles c)
{
    return static_cast<double>(c) / 1e3;
}

} // namespace

void
ChromeTraceWriter::processName(int pid, const std::string &name)
{
    events_.push_back({'M', pid, 0, name, 0, 0, 0.0});
}

void
ChromeTraceWriter::span(int pid, int tid, const std::string &name,
                        Cycles begin, Cycles end)
{
    events_.push_back({'X', pid, tid, name, begin,
                       end >= begin ? end - begin : 0, 0.0});
}

void
ChromeTraceWriter::instant(int pid, int tid, const std::string &name,
                           Cycles at)
{
    events_.push_back({'i', pid, tid, name, at, 0, 0.0});
}

void
ChromeTraceWriter::counter(int pid, const std::string &name, Cycles at,
                           double value)
{
    events_.push_back({'C', pid, 0, name, at, 0, value});
}

void
ChromeTraceWriter::addSocEvents(
    const std::vector<sim::TraceEvent> &events)
{
    // Open spans per (socId, jobId): start/resume opens, pause/
    // complete closes.  Events arrive per-SoC in time order.
    struct Open
    {
        int socId;
        int jobId;
        Cycles since;
    };
    std::vector<Open> open;
    Cycles last_cycle = 0;

    auto find = [&](int soc, int job) -> std::size_t {
        for (std::size_t i = 0; i < open.size(); i++)
            if (open[i].socId == soc && open[i].jobId == job)
                return i;
        return open.size();
    };

    for (const auto &e : events) {
        const int pid = e.socId + 1;
        last_cycle = std::max(last_cycle, e.cycle);
        switch (e.kind) {
          case sim::TraceEventKind::JobStarted:
          case sim::TraceEventKind::JobResumed:
            if (find(e.socId, e.jobId) == open.size())
                open.push_back({e.socId, e.jobId, e.cycle});
            break;
          case sim::TraceEventKind::JobPaused:
          case sim::TraceEventKind::JobCompleted: {
            std::size_t i = find(e.socId, e.jobId);
            if (i < open.size()) {
                span(pid, e.jobId,
                     strprintf("job %d", e.jobId), open[i].since,
                     e.cycle);
                open.erase(open.begin() +
                           static_cast<std::ptrdiff_t>(i));
            }
            if (e.kind == sim::TraceEventKind::JobCompleted)
                instant(pid, e.jobId, "complete", e.cycle);
            break;
          }
          default:
            instant(pid, e.jobId,
                    sim::traceEventKindName(e.kind), e.cycle);
        }
    }
    // Jobs still running when the capture ended: close at the last
    // seen cycle so the span is visible rather than dropped.
    for (const auto &o : open)
        span(o.socId + 1, o.jobId, strprintf("job %d (open)", o.jobId),
             o.since, last_cycle);
}

void
ChromeTraceWriter::addTimeseries(int pid, const std::string &prefix,
                                 const Timeseries &ts)
{
    for (const auto &row : ts.rows)
        for (std::size_t c = 0; c < ts.columns.size(); c++)
            counter(pid, prefix + ts.columns[c], row.at,
                    row.values[c]);
}

void
ChromeTraceWriter::addCapture(const Capture &capture)
{
    processName(0, "coordinator");

    int max_soc = -1;
    for (const auto &e : capture.socEvents)
        max_soc = std::max(max_soc, e.socId);
    max_soc = std::max(max_soc,
                       static_cast<int>(capture.socSeries.size()) - 1);
    for (int s = 0; s <= max_soc; s++)
        processName(s + 1, strprintf("soc %d", s));

    for (const auto &ep : capture.epochs) {
        if (ep.stall)
            instant(0, 0, "horizon-stall", ep.end);
        else
            span(0, 0,
                 strprintf("epoch (%llu socs)",
                           static_cast<unsigned long long>(
                               ep.socsStepped)),
                 ep.begin, ep.end);
    }

    for (const auto &e : capture.frontend.events())
        instant(0, 0,
                strprintf("%s %d", sim::traceEventKindName(e.kind),
                          e.jobId),
                e.cycle);

    addSocEvents(capture.socEvents);

    for (std::size_t s = 0; s < capture.socSeries.size(); s++)
        addTimeseries(static_cast<int>(s) + 1, "",
                      capture.socSeries[s]);
}

std::string
ChromeTraceWriter::render() const
{
    std::string out = "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < events_.size(); i++) {
        const auto &e = events_[i];
        switch (e.ph) {
          case 'M':
            out += strprintf(
                "{\"ph\": \"M\", \"pid\": %d, \"name\": "
                "\"process_name\", \"args\": {\"name\": \"%s\"}}",
                e.pid, jsonEscape(e.name).c_str());
            break;
          case 'X':
            out += strprintf(
                "{\"ph\": \"X\", \"pid\": %d, \"tid\": %d, "
                "\"name\": \"%s\", \"ts\": %.3f, \"dur\": %.3f}",
                e.pid, e.tid, jsonEscape(e.name).c_str(),
                cyclesToUs(e.ts), cyclesToUs(e.dur));
            break;
          case 'i':
            out += strprintf(
                "{\"ph\": \"i\", \"s\": \"t\", \"pid\": %d, "
                "\"tid\": %d, \"name\": \"%s\", \"ts\": %.3f}",
                e.pid, e.tid, jsonEscape(e.name).c_str(),
                cyclesToUs(e.ts));
            break;
          case 'C':
            out += strprintf(
                "{\"ph\": \"C\", \"pid\": %d, \"name\": \"%s\", "
                "\"ts\": %.3f, \"args\": {\"value\": %.6f}}",
                e.pid, jsonEscape(e.name).c_str(), cyclesToUs(e.ts),
                e.value);
            break;
          default:
            panic("unknown chrome trace phase '%c'", e.ph);
        }
        out += i + 1 < events_.size() ? ",\n" : "\n";
    }
    out += "]}\n";
    return out;
}

void
ChromeTraceWriter::write(const std::string &path) const
{
    if (!writeTextFile(path, render()))
        fatal("cannot write %s", path.c_str());
    inform("wrote %zu trace events to %s (load in chrome://tracing "
           "or https://ui.perfetto.dev)",
           events_.size(), path.c_str());
}

} // namespace moca::obs
