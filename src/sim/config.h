/**
 * @file
 * SoC configuration (paper Table II defaults): eight Gemmini-style
 * accelerator tiles with 16x16 weight-stationary systolic arrays and
 * private scratchpads, a shared 2 MB / 8-bank L2, and 16 GB/s DRAM at
 * a 1 GHz clock.
 */

#ifndef MOCA_SIM_CONFIG_H
#define MOCA_SIM_CONFIG_H

#include <cstdint>
#include <string>

#include "common/units.h"

namespace moca::sim {

using moca::Cycles;

/**
 * Time-advance strategy of Soc::run.  Both kernels run the same step
 * function (Soc::step), which always stops at the next scheduler tick,
 * arrival and horizon; the kernel only sets the further cap on how far
 * a step moves simulated time.
 */
enum class SimKernel
{
    /** Steps of at most cfg.quantum (the reference kernel): cost
     *  scales with simulated cycles. */
    Quantum,

    /**
     * Steps capped at the earliest in-SoC state change (memory-model
     * change, stall expiry, layer completion, binding throttle-window
     * rollover), rounded up to the quantum grid so the two kernels
     * stay comparable.  Cost scales with scheduling activity instead
     * of cycles.
     */
    Event,
};

/** Printable kernel name ("quantum" / "event"). */
inline const char *
simKernelName(SimKernel kernel)
{
    return kernel == SimKernel::Event ? "event" : "quantum";
}

/** Static SoC parameters; see Table II of the paper. */
struct SocConfig
{
    /** Number of homogeneous accelerator tiles. */
    int numTiles = 8;

    /** Systolic array dimension per tile (16x16 -> 256 MACs/cycle). */
    int arrayDim = 16;

    /** Private scratchpad bytes per tile (weights + activations). */
    std::uint64_t scratchpadBytes = 128 * KiB;

    /** Private accumulator bytes per tile. */
    std::uint64_t accumulatorBytes = 64 * KiB;

    /** Shared L2 capacity. */
    std::uint64_t l2Bytes = 2 * MiB;

    /** Shared L2 bank count. */
    int l2Banks = 8;

    /** L2 bandwidth per bank in bytes/cycle. */
    double l2BankBytesPerCycle = 16.0;

    /** DRAM bandwidth in bytes/cycle (16 GB/s at 1 GHz). */
    double dramBytesPerCycle = 16.0;

    /** Per-tile DMA issue width in bytes/cycle. */
    double tileDmaBytesPerCycle = 16.0;

    /**
     * Decoupled access/execute run-ahead: the DMA prefetches up to
     * this multiple of the balanced (compute-matched) rate before
     * the scratchpad double-buffer fills.  >1 makes unregulated
     * demand bursty — the in-flight-request pressure the MoCA
     * throttle paces.  1.0 issues exactly the balanced rate.
     */
    double dmaRunAhead = 1.25;

    /** DMA access (beat) granularity in bytes; the unit the MoCA
     *  access counter counts. */
    std::uint64_t dmaBeatBytes = 16;

    /**
     * Compute/memory overlap factor f in [0, 1] with the paper's
     * Algorithm 1 semantics: latency = max(C, M) + min(C, M) * f,
     * i.e. f = 0 is perfect overlap and f = 1 fully serializes the
     * shorter phase.  Tuned per SoC by the overlap-tuning utility;
     * 0.2 reflects Gemmini's decoupled access/execute with double
     * buffering.
     */
    double overlapF = 0.2;

    /** Simulation quantum in cycles. */
    Cycles quantum = 512;

    /** Time-advance strategy (see SimKernel). */
    SimKernel kernel = SimKernel::Quantum;

    /**
     * Shared-memory-hierarchy model spec resolved through
     * mem::MemoryModelRegistry (grammar: name[:key=value,...]).
     * "flat" is the original single-bandwidth + thrash-derate model
     * and is metric-identical to the pre-mem-subsystem simulator;
     * "banked[:banks=N,remap=xor|mod,...]" adds bank-level DRAM/L2
     * contention with emergent row-locality loss.
     */
    std::string memModel = "flat";

    /** Scheduler tick period in cycles (policy onSchedule cadence). */
    Cycles schedPeriod = 100'000;

    /**
     * Deadlock bound: a Soc run aborts once simulated time exceeds
     * this many cycles (a stuck policy would otherwise spin forever).
     * Long-horizon stress sweeps raise it to an honest bound via the
     * shared `max_cycles=` bench option.
     */
    Cycles maxCycles = 1'000'000'000'000ULL;

    /**
     * Fire the policy's boundary hook after *every* layer instead of
     * only at layer-block boundaries.  The paper adopts layer-block
     * granularity following Veltair ("layer-block granularity
     * delivers supreme performance"); this knob exists for the
     * granularity ablation.
     */
    bool layerBoundaryEvents = false;

    /**
     * Thread-migration penalty in cycles charged to a job whose
     * compute-tile allocation changes at runtime (paper Sec. V-A:
     * ~1 M cycles for thread spawning and synchronization).
     */
    Cycles migrationCycles = 1'000'000;

    /**
     * Per-layer inter-tile coordination cost when one job spans
     * multiple tiles: the managing core splits the layer, dispatches
     * per-tile work, and barriers at the end.  Charged as
     * interTileSyncCycles x ceil(log2(tiles)) per layer; this is the
     * multi-tile efficiency loss that makes monolithic full-array
     * execution (PREMA-style) unattractive for small layers.
     */
    Cycles interTileSyncCycles = 3000;

    /**
     * Amdahl-style serial fraction of intra-layer multi-tile
     * parallelization (work splitting, halo exchange, load
     * imbalance): compute cycles on T tiles are inflated by
     * (1 + f * (T - 1)).  Makes single-job scaling across many tiles
     * sub-linear, as observed on real spatial accelerators.
     */
    double multiTileSerialFraction = 0.15;

    /**
     * DRAM arbitration of unregulated traffic.  True (default)
     * models an FCFS-style controller whose service is proportional
     * to in-flight demand — memory hogs win, which is the contention
     * pathology MoCA regulates.  False uses idealized max-min
     * fairness (for ablation).
     */
    bool dramProportionalArbitration = true;

    /**
     * DRAM efficiency loss under oversubscription: when aggregate
     * issued demand exceeds the channel bandwidth, interleaved
     * streams destroy row-buffer locality and effective bandwidth
     * drops by up to this fraction ("execution latency is highly
     * correlated with the number of in-flight memory requests",
     * Sec. I).  Regulating issue rates to the available bandwidth —
     * what the MoCA throttle does — avoids the loss.  0 disables
     * (ablation).
     */
    double dramThrashFactor = 0.50;

    /**
     * Oversubscription level (multiple of channel bandwidth) where
     * thrash begins: a shallow request queue keeps the controller
     * busy without destroying locality; loss ramps from zero at the
     * onset to dramThrashFactor at (onset + 2)x oversubscription.
     */
    double dramThrashOnset = 1.3;

    /**
     * Identity of this SoC within a fleet (stamped on trace events
     * and telemetry series).  0 for standalone runs; the fleet driver
     * (serve/serve.cc) assigns slot indices.
     */
    int socId = 0;

    /**
     * Telemetry sampling interval in simulated cycles; 0 (default)
     * disables sampling entirely — the Soc then allocates no
     * telemetry state and the hot path pays one null-pointer test.
     * Sampling is observational only: enabling it never changes
     * simulation results (see README "Observability").
     */
    Cycles sampleEvery = 0;

    /** Aggregate L2 bandwidth in bytes/cycle. */
    double l2BytesPerCycle() const
    {
        return l2BankBytesPerCycle * l2Banks;
    }

    /** Peak MACs/cycle of one tile. */
    std::uint64_t tileMacsPerCycle() const
    {
        return static_cast<std::uint64_t>(arrayDim) * arrayDim;
    }
};

} // namespace moca::sim

#endif // MOCA_SIM_CONFIG_H
