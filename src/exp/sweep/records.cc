#include "exp/sweep/records.h"

#include <thread>

#include "common/log.h"
#include "common/table.h"

// The build's compiler, type, flags and commit, set on this file by
// the build (CMakeLists.txt); a build that does not set them says
// "unknown".
#ifndef MOCA_COMPILER
#define MOCA_COMPILER "unknown"
#endif
#ifndef MOCA_BUILD_TYPE
#define MOCA_BUILD_TYPE "unknown"
#endif
#ifndef MOCA_FLAGS
#define MOCA_FLAGS "unknown"
#endif
#ifndef MOCA_COMMIT
#define MOCA_COMMIT "unknown"
#endif

namespace moca::exp {

namespace {

/** The per-cell record schema: field name + whether JSON emits it
 *  unquoted.  Typing is by field semantics, not value shape, so the
 *  schema is stable: a label that happens to look like "8" still
 *  serializes as a string.  Keep in sync with sweepRecordValues(). */
struct SweepField
{
    const char *name;
    bool numeric;
};

const SweepField kSweepFields[] = {
    {"index", true},
    {"label", false},
    {"policy", false},
    {"workload_set", false},
    {"qos", false},
    {"arrivals", false},
    {"tasks", true},
    {"seed", true},
    {"load_factor", true},
    {"qos_scale", true},
    {"sla_rate", true},
    {"sla_low", true},
    {"sla_mid", true},
    {"sla_high", true},
    {"stp", true},
    {"fairness", true},
    {"mean_norm_latency", true},
    {"worst_norm_latency", true},
    {"num_jobs", true},
    {"makespan", true},
    {"goodput", true},
    {"dram_busy", true},
    {"migrations", true},
    {"preemptions", true},
    {"throttle_reconfigs", true},
    {"mem", false},
    {"row_hits", true},
    {"row_misses", true},
    {"bank_bytes_cv", true},
    {"l2_conflict_bytes", true},
};

} // namespace

const std::vector<std::string> &
sweepRecordFields()
{
    static const std::vector<std::string> fields = [] {
        std::vector<std::string> out;
        for (const auto &f : kSweepFields)
            out.push_back(f.name);
        return out;
    }();
    return fields;
}

std::vector<std::string>
sweepRecordValues(std::size_t index, const SweepCell &cell,
                  const ScenarioResult &r)
{
    const auto &t = r.trace;
    return {
        strprintf("%zu", index),
        cell.label,
        r.policy,
        workload::workloadSetName(t.set),
        workload::qosLevelName(t.qos),
        workload::arrivalPatternName(t.arrivals),
        strprintf("%d", t.numTasks),
        strprintf("%llu", static_cast<unsigned long long>(t.seed)),
        strprintf("%.6g", t.loadFactor),
        strprintf("%.6g", t.qosScale),
        strprintf("%.6f", r.metrics.slaRate),
        strprintf("%.6f", r.metrics.slaRateLow),
        strprintf("%.6f", r.metrics.slaRateMid),
        strprintf("%.6f", r.metrics.slaRateHigh),
        strprintf("%.6f", r.metrics.stp),
        strprintf("%.6f", r.metrics.fairness),
        strprintf("%.6f", r.metrics.meanNormLatency),
        strprintf("%.6f", r.metrics.worstNormLatency),
        strprintf("%d", r.metrics.numJobs),
        strprintf("%llu", static_cast<unsigned long long>(r.makespan)),
        strprintf("%.6f", r.makespan > 0
                              ? r.metrics.slaRate * r.metrics.numJobs *
                                    1e9 / static_cast<double>(r.makespan)
                              : 0.0),
        strprintf("%.6f", r.dramBusyFraction),
        strprintf("%d", r.totalMigrations),
        strprintf("%d", r.totalPreemptions),
        strprintf("%d", r.totalThrottleReconfigs),
        cell.soc.memModel,
        strprintf("%llu", static_cast<unsigned long long>(
                              r.memTraffic.dramRowHits)),
        strprintf("%llu", static_cast<unsigned long long>(
                              r.memTraffic.dramRowMisses)),
        strprintf("%.6f", r.memTraffic.bankBytesCv()),
        strprintf("%.0f", r.memTraffic.l2ConflictLostBytes),
    };
}

std::string
sweepCsv(const std::vector<SweepCell> &cells,
         const std::vector<ScenarioResult> &results)
{
    Table table(sweepRecordFields());
    for (std::size_t i = 0; i < results.size(); ++i) {
        table.row();
        for (const auto &value : sweepRecordValues(i, cells[i], results[i]))
            table.cell(value);
    }
    return table.csv();
}

std::vector<Record>
sweepRecords(const std::vector<SweepCell> &cells,
             const std::vector<ScenarioResult> &results)
{
    std::vector<Record> records;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto values = sweepRecordValues(i, cells[i], results[i]);
        Record &rec = records.emplace_back();
        for (std::size_t f = 0; f < values.size(); ++f)
            rec.emplace_back(kSweepFields[f].name,
                             kSweepFields[f].numeric
                                 ? JsonValue::raw(values[f])
                                 : JsonValue(values[f]));
    }
    return records;
}

Record
runMeta(const char *bench, int jobs, const Record &params)
{
    Record meta = {{"kind", "meta"}, {"bench", bench}};
    meta.insert(meta.end(), params.begin(), params.end());
    meta.insert(meta.end(),
                {{"jobs", resolveJobs(jobs)},
                 {"nproc", std::thread::hardware_concurrency()},
                 {"compiler", MOCA_COMPILER},
                 {"build_type", MOCA_BUILD_TYPE},
                 {"flags", MOCA_FLAGS},
                 {"commit", MOCA_COMMIT}});
    return meta;
}

std::string
recordsText(const Record &meta, const std::vector<Record> &records)
{
    std::string out;
    auto line = [&](const Record &rec) {
        for (const auto &[key, value] : rec)
            if (!value.text.empty() &&
                (value.text.front() == '{' || value.text.front() == '['))
                panic("record field %s is not a scalar: %s", key,
                      value.text.c_str());
        out += "{" + jsonFields({rec}, 0) + "}\n";
    };
    line(meta);
    for (const auto &rec : records)
        line(rec);
    return out;
}

void
writeRecords(const std::string &path, const Record &meta,
             const std::vector<Record> &records)
{
    if (!path.empty() && !writeTextFile(path, recordsText(meta, records)))
        fatal("cannot write %s", path.c_str());
}

} // namespace moca::exp
