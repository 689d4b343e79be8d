#include "exp/oracle.h"

#include <cstring>
#include <map>
#include <mutex>
#include <tuple>

#include "common/log.h"

namespace moca::exp {

void
SoloPolicy::schedule(sim::Soc &soc, sim::SchedEvent)
{
    while (soc.freeTiles() >= tilesPerJob_) {
        const auto waiting = soc.waitingJobs();
        if (waiting.empty())
            break;
        soc.startJob(waiting.front(), tilesPerJob_);
    }
}

namespace {

/** FNV-1a over every SocConfig field, so cells with different SoC
 *  configurations can share the cache concurrently (sensitivity and
 *  ablation sweeps) without poisoning each other. */
std::uint64_t
configFingerprint(const sim::SocConfig &cfg)
{
    std::uint64_t h = 0xCBF29CE484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 0x100000001B3ULL;
        }
    };
    auto mixd = [&](double d) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof(bits));
        mix(bits);
    };
    mix(static_cast<std::uint64_t>(cfg.numTiles));
    mix(static_cast<std::uint64_t>(cfg.arrayDim));
    mix(cfg.scratchpadBytes);
    mix(cfg.accumulatorBytes);
    mix(cfg.l2Bytes);
    mix(static_cast<std::uint64_t>(cfg.l2Banks));
    mixd(cfg.l2BankBytesPerCycle);
    mixd(cfg.dramBytesPerCycle);
    mixd(cfg.tileDmaBytesPerCycle);
    mixd(cfg.dmaRunAhead);
    mix(cfg.dmaBeatBytes);
    mixd(cfg.overlapF);
    mix(cfg.quantum);
    // The kernel stays in the key.  Solo runs agree across kernels on
    // every zoo model at 1 and 8 tiles, but not everywhere (SqueezeNet
    // on 2 tiles: 2,177,312 quantum vs 2,177,824 event cycles), and
    // one shared entry per kernel pair moved fig1, latency-model
    // validation and sensitivity-sweep results.
    mix(static_cast<std::uint64_t>(cfg.kernel));
    mix(cfg.schedPeriod);
    mix(cfg.maxCycles);
    mix(cfg.layerBoundaryEvents ? 1 : 0);
    mix(cfg.migrationCycles);
    mix(cfg.interTileSyncCycles);
    mixd(cfg.multiTileSerialFraction);
    mix(cfg.dramProportionalArbitration ? 1 : 0);
    mixd(cfg.dramThrashFactor);
    mixd(cfg.dramThrashOnset);
    // The memory-model spec changes isolated latencies like any
    // other SoC parameter, so it is part of the cache identity.
    for (const char c : cfg.memModel)
        mix(static_cast<std::uint64_t>(
            static_cast<unsigned char>(c)));
    return h;
}

/** Cache key: model, tiles, and the full SoC configuration. */
using OracleKey = std::tuple<int, int, std::uint64_t>;

OracleKey
makeKey(dnn::ModelId id, int num_tiles, const sim::SocConfig &cfg)
{
    return {static_cast<int>(id), num_tiles, configFingerprint(cfg)};
}

std::mutex &
cacheMutex()
{
    static std::mutex m;
    return m;
}

std::map<OracleKey, Cycles> &
cache()
{
    // detlint: allow(R4) all access guarded by cacheMutex()
    static std::map<OracleKey, Cycles> c;
    return c;
}

} // anonymous namespace

Cycles
isolatedLatency(const dnn::Model &model, int num_tiles,
                const sim::SocConfig &cfg)
{
    SoloPolicy policy(num_tiles);
    sim::Soc soc(cfg, policy);
    sim::JobSpec spec;
    spec.id = 0;
    spec.model = &model;
    soc.addJob(spec);
    soc.run();
    return soc.results().front().latency();
}

Cycles
isolatedLatency(dnn::ModelId id, int num_tiles,
                const sim::SocConfig &cfg)
{
    const OracleKey key = makeKey(id, num_tiles, cfg);
    {
        std::lock_guard<std::mutex> lock(cacheMutex());
        auto it = cache().find(key);
        if (it != cache().end())
            return it->second;
    }

    // Simulate outside the lock; a racing duplicate computes the
    // identical deterministic value, so last-writer-wins is harmless.
    const Cycles latency =
        isolatedLatency(dnn::getModel(id), num_tiles, cfg);
    std::lock_guard<std::mutex> lock(cacheMutex());
    cache()[key] = latency;
    return latency;
}

void
clearOracleCache()
{
    std::lock_guard<std::mutex> lock(cacheMutex());
    cache().clear();
}

} // namespace moca::exp
