#include "exp/sweep/options.h"

#include <cstdio>

#include "common/json.h"
#include "common/log.h"
#include "common/units.h"
#include "exp/sweep/records.h"
#include "mem/memory_model.h"

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

void
writeSweepFiles(const ArgMap &args, const std::vector<SweepCell> &cells,
                const std::vector<ScenarioResult> &results)
{
    const std::string csv = args.getString("csv", "");
    if (!csv.empty() && !writeTextFile(csv, sweepCsv(cells, results)))
        fatal("cannot write %s", csv.c_str());
    const std::string json = args.getString("json", "");
    if (!json.empty() && !writeTextFile(json, sweepJson(cells, results)))
        fatal("cannot write %s", json.c_str());
}

} // namespace moca::exp
