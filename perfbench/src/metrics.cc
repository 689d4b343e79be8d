#include "metrics.h"

#include <cmath>

#include "common/log.h"

namespace perfbench {

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"cpu_s", "s"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MiB"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"sim.steps", "count"},
        {"sim.ns_per_step", "ns"},
        {"sim.self_s", "s"},
        {"sim.sla_err", "fraction"},
        {"sim.stp_err_pct", "%"},
        {"mem.arbitrate_calls", "count"},
        {"mem.arbitrate_s", "s"},
        {"mem.ns_per_arbitrate", "ns"},
        {"policy.calls", "count"},
        {"policy.s", "s"},
        {"policy.throttle_reconfigs", "count"},
        {"policy.migrations", "count"},
        {"policy.preemptions", "count"},
        {"pdes.epochs", "count"},
        {"pdes.shard_advance_s", "s"},
        {"pdes.barrier_wait_s", "s"},
        {"pdes.dispatch_s", "s"},
        {"pdes.barrier_share", "fraction"},
        {"pdes.speedup", "x"},
        {"dispatch.calls", "count"},
        {"dispatch.s", "s"},
        {"serve.requests", "count"},
        {"serve.attempts", "count"},
        {"serve.responses", "count"},
        {"serve.retries", "count"},
        {"serve.timeouts", "count"},
        {"serve.requeued", "count"},
        {"serve.orphans", "count"},
        {"serve.useful_ratio", "fraction"},
        {"admission.calls", "count"},
        {"admission.s", "s"},
        {"serve.coordinator_s", "s"},
        {"setup.trace_s", "s"},
        {"setup.tasks", "count"},
        {"trace.overhead_pct", "%"},
    };
    return defs;
}

namespace {

const MetricDef *
findMetric(const std::string &name)
{
    for (const auto *defs : {&endToEndMetrics(), &perLayerMetrics()})
        for (const auto &d : *defs)
            if (name == d.name)
                return &d;
    return nullptr;
}

} // namespace

void
MetricSet::set(const std::string &name, double value)
{
    if (!findMetric(name))
        moca::fatal("metric '%s' is not declared", name.c_str());
    values_.emplace_back(name, value);
}

std::string
resultJson(bool correct, long attempted, long failed, const MetricSet &m)
{
    std::string out = moca::strprintf(
        "{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
        "\"metrics\": {",
        correct ? "true" : "false", attempted, failed);
    const char *sep = "";
    for (const auto &[name, value] : m.values()) {
        // JSON has no NaN or infinity; a metric that cannot be
        // computed reads 0.
        const double v = std::isfinite(value) ? value : 0.0;
        out += moca::strprintf("%s\"%s\": {\"value\": %.17g, "
                               "\"unit\": \"%s\"}",
                               sep, name.c_str(), v,
                               findMetric(name)->unit);
        sep = ", ";
    }
    return out + "}}";
}

} // namespace perfbench
