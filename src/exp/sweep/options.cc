#include "exp/sweep/options.h"

#include <cstdio>

#include "cluster/cluster.h"
#include "common/json.h"
#include "common/log.h"
#include "common/units.h"
#include "mem/memory_model.h"
#include "obs/capture.h"
#include "obs/chrome_trace.h"

namespace moca::exp {

sim::SocConfig
socConfigFromArgs(const ArgMap &args)
{
    sim::SocConfig cfg;
    const auto mem_specs =
        specsFromArgs<mem::MemoryModelRegistry>(args, {cfg.memModel});
    if (mem_specs.size() != 1)
        fatal("--mem takes one memory-model spec (got %zu)",
              mem_specs.size());
    cfg.memModel = mem_specs.front();
    cfg.numTiles = static_cast<int>(args.getInt("tiles", cfg.numTiles));
    cfg.dramBytesPerCycle =
        args.getDouble("dram_bw", cfg.dramBytesPerCycle);
    cfg.l2Bytes = static_cast<std::uint64_t>(
        args.getInt("l2_kib",
                    static_cast<std::int64_t>(cfg.l2Bytes / KiB))) *
        KiB;
    cfg.overlapF = args.getDouble("overlap_f", cfg.overlapF);
    cfg.quantum = static_cast<Cycles>(
        args.getInt("quantum", static_cast<std::int64_t>(cfg.quantum)));
    cfg.kernel = parseSimKernel(
        args.getString("kernel", simKernelName(cfg.kernel)));
    const std::int64_t max_cycles = args.getInt(
        "max-cycles",
        args.getInt("max_cycles",
                    static_cast<std::int64_t>(cfg.maxCycles)));
    if (max_cycles < 1)
        fatal("max-cycles must be >= 1 (got %lld)",
              static_cast<long long>(max_cycles));
    cfg.maxCycles = static_cast<Cycles>(max_cycles);
    const std::int64_t sample_every = args.getInt(
        "sample-every", static_cast<std::int64_t>(cfg.sampleEvery));
    if (sample_every < 0)
        fatal("sample-every must be >= 0 (got %lld; 0 disables "
              "telemetry sampling)",
              static_cast<long long>(sample_every));
    cfg.sampleEvery = static_cast<Cycles>(sample_every);
    // Trial-build against the actual configuration so a bad --mem
    // parameter value fails before any sweep work starts.
    (void)mem::MemoryModelRegistry::instance().make(cfg.memModel, cfg);
    return cfg;
}

sim::SimKernel
parseSimKernel(const std::string &name)
{
    if (name == "quantum")
        return sim::SimKernel::Quantum;
    if (name == "event")
        return sim::SimKernel::Event;
    fatal("kernel=%s: expected 'quantum' or 'event'", name.c_str());
}

void
printSocBanner(const sim::SocConfig &cfg)
{
    std::printf("SoC configuration (paper Table II):\n");
    std::printf("  systolic array (per tile)  %dx%d\n", cfg.arrayDim,
                cfg.arrayDim);
    std::printf("  scratchpad (per tile)      %llu KiB\n",
                static_cast<unsigned long long>(
                    cfg.scratchpadBytes / KiB));
    std::printf("  accumulator (per tile)     %llu KiB\n",
                static_cast<unsigned long long>(
                    cfg.accumulatorBytes / KiB));
    std::printf("  accelerator tiles          %d\n", cfg.numTiles);
    std::printf("  shared L2                  %llu MB, %d banks\n",
                static_cast<unsigned long long>(cfg.l2Bytes / MiB),
                cfg.l2Banks);
    std::printf("  DRAM bandwidth             %.0f GB/s @ 1 GHz\n",
                cfg.dramBytesPerCycle);
    std::printf("  simulation kernel          %s\n",
                sim::simKernelName(cfg.kernel));
    std::printf("  memory model               %s\n",
                cfg.memModel.c_str());
    std::printf("\n");
}

SweepOptions
sweepOptionsFromArgs(const ArgMap &args)
{
    SweepOptions opts;
    opts.jobs = static_cast<int>(args.getInt("jobs", 1));
    if (opts.jobs < 0)
        fatal("--jobs %d: must be >= 0 (0 = hardware concurrency)",
              opts.jobs);
    opts.verbose = args.getBool("verbose", false);
    return opts;
}

OutputFiles
outputFilesFromArgs(const ArgMap &args)
{
    return {args.getString("csv", ""), args.getString("json", "")};
}

void
writeSweepFiles(const OutputFiles &out, const Record &meta,
                const std::vector<SweepCell> &cells,
                const std::vector<ScenarioResult> &results)
{
    if (!out.csv.empty() &&
        !writeTextFile(out.csv, sweepCsv(cells, results)))
        fatal("cannot write %s", out.csv.c_str());
    writeRecords(out.json, meta, sweepRecords(cells, results));
}

std::string
sampleOutFromArgs(const ArgMap &args, sim::SocConfig &cfg)
{
    std::string path = args.getString("sample-out", "");
    if (!path.empty() && cfg.sampleEvery == 0) {
        cfg.sampleEvery = 100'000;
        inform("--sample-out without --sample-every: defaulting to "
               "sampling every %llu cycles",
               static_cast<unsigned long long>(cfg.sampleEvery));
    }
    return path;
}

FleetOptions
fleetOptionsFromArgs(const ArgMap &args)
{
    FleetOptions fleet;
    fleet.soc = socConfigFromArgs(args);
    // stress_scale compares the kernels; fleet scale wants the fast one.
    if (!args.has("kernel"))
        fleet.soc.kernel = sim::SimKernel::Event;
    fleet.sweep = sweepOptionsFromArgs(args);
    fleet.clusterJobs = static_cast<int>(args.getInt("cluster-jobs", 1));
    if (fleet.clusterJobs < 1)
        fatal("--cluster-jobs %d: the fleet engine needs at least "
              "one worker", fleet.clusterJobs);
    fleet.timing = args.getBool("timing", true);
    fleet.recordWall =
        fleet.timing && resolveJobs(fleet.sweep.jobs) == 1;
    fleet.traceOut = args.getString("trace-out", "");
    return fleet;
}

void
writeFleetTelemetry(const std::string &trace_out,
                    const std::string &sample_out,
                    const obs::Capture &capture)
{
    if (!trace_out.empty()) {
        obs::ChromeTraceWriter writer;
        writer.addCapture(capture);
        writer.write(trace_out);
    }
    if (sample_out.empty())
        return;
    if (capture.socSeries.empty())
        warn("--sample-out %s: the run produced no sampled series",
             sample_out.c_str());
    else
        obs::writeTimeseries(capture.socSeries.front(), sample_out);
}

std::string
phaseReport(const std::string &title, const cluster::PhaseBreakdown &p,
            const char *dispatch_label)
{
    const double sum = p.shardAdvanceSec + p.barrierWaitSec + p.dispatchSec;
    std::string out = title + "\n";
    auto row = [&](const char *name, double sec) {
        out += strprintf("  %-16s %9.3f s  %5.1f%%\n", name, sec,
                         sum > 0.0 ? 100.0 * sec / sum : 0.0);
    };
    row("shard-advance", p.shardAdvanceSec);
    row("barrier-wait", p.barrierWaitSec);
    row(dispatch_label, p.dispatchSec);
    out += strprintf("  %-16s %9llu worker releases\n", "barriers",
                     static_cast<unsigned long long>(p.barriers));
    return out;
}

} // namespace moca::exp
