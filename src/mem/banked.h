/**
 * @file
 * The `banked` memory model: bank-aware DRAM + L2.
 *
 * DRAM.  The channel is split into `banks` banks.  A requester's
 * step demand of D bytes is interleaved over span(D) = min(banks,
 * ceil(D / row_bytes)) consecutive banks starting at its home bank
 * (remap=xor scatters home banks by a hash of the requester id;
 * remap=mod clusters them, so adjacent jobs collide — the ablation
 * knob).  Each bank owns `horizon` cycles of service time; a
 * requester's bytes on a bank cost time at its *current service
 * rate*
 *
 *     rate_i = loc_i * row_hit_bpc + (1 - loc_i) * row_miss_bpc
 *
 * where loc_i in [0, 1] is the requester's streaming-locality state.
 * Bank time is arbitrated demand-proportionally (FCFS-style, the
 * SocConfig::dramProportionalArbitration default) or max-min fairly,
 * and total granted bytes are clamped to the channel bandwidth —
 * minus the channel time row misses burn: every missed row costs
 * `miss_cycles` of activate/precharge overhead during which the data
 * bus moves nothing, so interleaving-induced locality loss derates
 * the *whole channel*, not just the missing requester.  A lone
 * streamer (locality 1) pays nothing.
 *
 * Locality.  loc_i starts at 1 (a lone streamer keeps its row
 * buffers open) and relaxes exponentially — time constant
 * `locality_tau` — toward the requester's share of the traffic on
 * its own banks: co-runners interleaving on the same banks destroy
 * each other's row locality, which degrades their service toward the
 * row-miss rate.  This is the *emergent* replacement for the flat
 * model's global thrash heuristic: the slowdown appears only when
 * interleaved demand actually keeps shared banks busy, recovers when
 * a co-runner leaves, and responds to MoCA's throttling exactly the
 * way the paper argues (regulated issue rates -> fewer in-flight
 * interleaved requests -> locality preserved).
 *
 * L2.  The shared L2's `SocConfig::l2Banks` bank ports are modeled
 * the same way (interleaved spans, per-bank max-min at the per-bank
 * bandwidth, no row state); service lost relative to the aggregate
 * L2 bandwidth is counted as bank-conflict loss.
 */

#ifndef MOCA_MEM_BANKED_H
#define MOCA_MEM_BANKED_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mem/memory_model.h"
#include "sim/arbiter.h"

namespace moca::mem {

/** Bank remap policy: how requester ids map to home banks. */
enum class BankRemap
{
    Xor, ///< Hash-scattered home banks (the default).
    Mod, ///< id % banks — adjacent requesters collide (ablation).
};

/** Parameters of the banked model (spec grammar surface). */
struct BankedConfig
{
    /** DRAM bank count. */
    int banks = 8;

    /** Row-buffer-hit service rate per bank in bytes/cycle; 0 derives
     *  the SoC's channel bandwidth (a lone streamer runs at full
     *  speed regardless of bank count). */
    double rowHitBpc = 0.0;

    /** Row-buffer-miss service rate per bank; 0 derives hit/4. */
    double rowMissBpc = 0.0;

    /** Home-bank remap policy. */
    BankRemap remap = BankRemap::Xor;

    /** DRAM row (and L2 interleave-span) granularity in bytes. */
    std::uint64_t rowBytes = 1024;

    /** Channel cycles of activate/precharge overhead per missed row
     *  (data bus idle while the bank turns around). */
    Cycles missCycles = 24;

    /** Locality relaxation time constant in cycles; also the bound
     *  the model reports to the event kernel via
     *  cyclesUntilNextChange(). */
    Cycles localityTau = 16384;

    /** Apply one spec parameter; false when the key is unknown. */
    bool applyParam(const std::string &key, const std::string &value);
};

class BankedMemoryModel : public MemoryModel
{
  public:
    BankedMemoryModel(const sim::SocConfig &cfg,
                      const BankedConfig &bc);

    const char *name() const override { return "banked"; }

    const std::vector<MemGrant> &
    arbitrate(const std::vector<MemRequest> &requests, Cycles horizon,
              MemStepStats &stats) override;

    Cycles cyclesUntilNextChange() const override
    {
        return bc_.localityTau;
    }

    // --- Inspection (tests, reporting) --------------------------------

    const BankedConfig &config() const { return bc_; }

    /** Home DRAM bank of requester `id` under the remap policy. */
    int homeBank(int id) const;

    /** Banks a `bytes`-sized step demand interleaves over. */
    int bankSpan(double bytes, int num_banks) const;

    /** Current locality state of requester `id` (1.0 if unseen). */
    double locality(int id) const;

  private:
    sim::SocConfig cfg_;
    BankedConfig bc_;
    double hitBpc_ = 0.0;  ///< Resolved row-hit rate.
    double missBpc_ = 0.0; ///< Resolved row-miss rate.

    /** Per-requester streaming-locality state in [0, 1]. */
    std::map<int, double> locality_;

    /** High-resolution row-activation accumulators behind the
     *  integer MemTraffic counters. */
    double rowHitAcc_ = 0.0;
    double rowMissAcc_ = 0.0;

    /** One requester's slice of one bank's demand for a step. */
    struct Slice
    {
        std::size_t req; ///< Index into the request vector.
        double bytes;    ///< Demand routed to this bank.
    };

    // Per-step scratch, reused across arbitrate() calls: arbitrate
    // runs once per simulation step, so fresh allocations here would
    // dominate the model's cost on long-horizon runs.
    std::vector<std::vector<Slice>> bankDemand_; ///< Per DRAM bank.
    std::vector<std::vector<Slice>> l2Demand_;   ///< Per L2 bank.
    std::vector<double> bankTotal_;
    std::vector<double> bankGranted_;
    std::vector<double> loc_; ///< Per-request locality snapshot.
    std::vector<sim::BwDemand> treq_;
    std::vector<double> tgrant_;
    std::vector<char> tdone_;
    std::vector<MemGrant> grants_; ///< arbitrate() return buffer.
};

/** Registration record of the built-in banked model. */
MemoryModelRegistry::Info bankedModelInfo();

} // namespace moca::mem

#endif // MOCA_MEM_BANKED_H
