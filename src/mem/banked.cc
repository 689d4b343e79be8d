#include "mem/banked.h"

#include <algorithm>
#include <cmath>

#include "common/argparse.h"
#include "common/log.h"
#include "sim/arbiter.h"

namespace moca::mem {

namespace {

/** splitmix64 finalizer: scatters requester ids across home banks. */
std::uint64_t
mixId(std::uint64_t z)
{
    z += 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

} // anonymous namespace

bool
BankedConfig::applyParam(const std::string &key,
                         const std::string &value)
{
    if (key == "banks") {
        banks = static_cast<int>(parseIntValue("banked:banks", value));
    } else if (key == "row_hit_bpc") {
        rowHitBpc = parseDoubleValue("banked:row_hit_bpc", value);
    } else if (key == "row_miss_bpc") {
        rowMissBpc = parseDoubleValue("banked:row_miss_bpc", value);
    } else if (key == "remap") {
        if (value == "xor")
            remap = BankRemap::Xor;
        else if (value == "mod")
            remap = BankRemap::Mod;
        else
            fatal("banked:remap=%s (expected xor or mod)",
                  value.c_str());
    } else if (key == "row_bytes") {
        rowBytes = static_cast<std::uint64_t>(
            parseIntValue("banked:row_bytes", value));
    } else if (key == "miss_cycles") {
        missCycles = static_cast<Cycles>(
            parseIntValue("banked:miss_cycles", value));
    } else if (key == "locality_tau") {
        localityTau = static_cast<Cycles>(
            parseIntValue("banked:locality_tau", value));
    } else {
        return false;
    }
    return true;
}

BankedMemoryModel::BankedMemoryModel(const sim::SocConfig &cfg,
                                     const BankedConfig &bc)
    : cfg_(cfg), bc_(bc)
{
    if (bc_.banks < 1)
        fatal("banked: banks must be >= 1 (got %d)", bc_.banks);
    if (bc_.rowBytes < 1)
        fatal("banked: row_bytes must be >= 1");
    if (bc_.localityTau < 1)
        fatal("banked: locality_tau must be >= 1");
    hitBpc_ = bc_.rowHitBpc > 0.0 ? bc_.rowHitBpc
                                  : cfg_.dramBytesPerCycle;
    missBpc_ = bc_.rowMissBpc > 0.0 ? bc_.rowMissBpc : hitBpc_ / 4.0;
    if (hitBpc_ <= 0.0 || missBpc_ <= 0.0 || missBpc_ > hitBpc_)
        fatal("banked: need 0 < row_miss_bpc <= row_hit_bpc "
              "(resolved hit=%.3f miss=%.3f)", hitBpc_, missBpc_);
    traffic_.bankBytes.assign(static_cast<std::size_t>(bc_.banks),
                              0.0);
    bankDemand_.resize(static_cast<std::size_t>(bc_.banks));
    bankTotal_.resize(static_cast<std::size_t>(bc_.banks));
    bankGranted_.resize(static_cast<std::size_t>(bc_.banks));
    l2Demand_.resize(
        static_cast<std::size_t>(std::max(1, cfg_.l2Banks)));
}

int
BankedMemoryModel::homeBank(int id) const
{
    if (bc_.remap == BankRemap::Mod)
        return id % bc_.banks;
    return static_cast<int>(
        mixId(static_cast<std::uint64_t>(id)) %
        static_cast<std::uint64_t>(bc_.banks));
}

int
BankedMemoryModel::bankSpan(double bytes, int num_banks) const
{
    if (bytes <= 0.0)
        return 0;
    const double rows =
        std::ceil(bytes / static_cast<double>(bc_.rowBytes));
    return static_cast<int>(
        std::min<double>(num_banks, std::max(1.0, rows)));
}

double
BankedMemoryModel::locality(int id) const
{
    const auto it = locality_.find(id);
    return it == locality_.end() ? 1.0 : it->second;
}

const std::vector<MemGrant> &
BankedMemoryModel::arbitrate(const std::vector<MemRequest> &requests,
                             Cycles horizon, MemStepStats &stats)
{
    (void)stats; // No heuristic derate: contention is emergent.
    const std::size_t n = requests.size();
    const double q = static_cast<double>(horizon);
    std::vector<MemGrant> &grants = grants_;
    grants.assign(n, MemGrant{});
    if (n == 0 || q <= 0.0)
        return grants;

    // Locality resolved once per step: every phase below (service
    // rates, channel clamp, counters, relaxation targets) reads the
    // pre-step state, and the map is touched once per requester.
    loc_.assign(n, 1.0);
    for (std::size_t i = 0; i < n; ++i)
        loc_[i] = locality(requests[i].id);
    const auto rate = [&](std::size_t i) {
        return loc_[i] * hitBpc_ + (1.0 - loc_[i]) * missBpc_;
    };

    // ---- DRAM: route demand spans onto banks -------------------------
    const auto banks = static_cast<std::size_t>(bc_.banks);
    for (auto &bd : bankDemand_)
        bd.clear();
    bankTotal_.assign(banks, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const double d = requests[i].dramBytes;
        const int k = bankSpan(d, bc_.banks);
        if (k == 0)
            continue;
        const double share = d / k;
        const int h = homeBank(requests[i].id);
        for (int j = 0; j < k; ++j) {
            const auto b = static_cast<std::size_t>(
                (h + j) % bc_.banks);
            bankDemand_[b].push_back({i, share});
            bankTotal_[b] += share;
        }
    }

    // ---- DRAM: per-bank service-time arbitration ---------------------
    //
    // A bank owns `horizon` cycles of service time; a requester's
    // bytes cost time at its locality-blended rate, so low-locality
    // requesters occupy the bank longer for the same data — the
    // mechanism by which interleaving hurts everyone sharing a bank.
    bankGranted_.assign(banks, 0.0);
    for (std::size_t b = 0; b < banks; ++b) {
        const auto &slices = bankDemand_[b];
        if (slices.empty())
            continue;
        treq_.clear();
        treq_.reserve(slices.size());
        for (const auto &s : slices)
            treq_.push_back(
                {s.bytes / rate(s.req), requests[s.req].weight});
        if (cfg_.dramProportionalArbitration)
            sim::allocateBandwidthProportional(treq_, q, tgrant_,
                                               tdone_);
        else
            sim::allocateBandwidth(treq_, q, tgrant_, tdone_);
        for (std::size_t s = 0; s < slices.size(); ++s) {
            const double bytes = std::min(
                slices[s].bytes, tgrant_[s] * rate(slices[s].req));
            grants[slices[s].req].dramBytes += bytes;
            bankGranted_[b] += bytes;
        }
    }

    // ---- DRAM: shared-channel clamp ----------------------------------
    //
    // Row misses burn channel time: each missed row keeps the data
    // bus idle for miss_cycles of bank turnaround, so the channel's
    // data capacity shrinks with the step's expected miss count —
    // the emergent replacement for the flat model's thrash derate.
    // A lone streamer (locality 1) misses nothing and pays nothing.
    double total_granted = 0.0;
    double weighted_miss = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        total_granted += grants[i].dramBytes;
        weighted_miss += grants[i].dramBytes * (1.0 - loc_[i]);
    }
    // Self-consistent capacity: every byte costs 1/bpc cycles of data
    // time plus (miss fraction x miss_cycles / row_bytes) cycles of
    // amortized turnaround, so the channel moves q / (cost per byte)
    // bytes.  The miss fraction is a property of the traffic *mix*
    // and is invariant under the final proportional scale-down.
    const double miss_frac =
        total_granted > 0.0 ? weighted_miss / total_granted : 0.0;
    const double cycles_per_byte = 1.0 / cfg_.dramBytesPerCycle +
        miss_frac * static_cast<double>(bc_.missCycles) /
            static_cast<double>(bc_.rowBytes);
    const double channel_cap = q / cycles_per_byte;
    if (total_granted > channel_cap && total_granted > 0.0) {
        const double scale = channel_cap / total_granted;
        for (auto &g : grants)
            g.dramBytes *= scale;
        for (auto &b : bankGranted_)
            b *= scale;
    }

    // ---- DRAM: traffic counters --------------------------------------
    for (std::size_t b = 0; b < banks; ++b)
        traffic_.bankBytes[b] += bankGranted_[b];
    for (std::size_t i = 0; i < n; ++i) {
        const double g = grants[i].dramBytes;
        if (g <= 0.0)
            continue;
        const double rows = g / static_cast<double>(bc_.rowBytes);
        rowHitAcc_ += rows * loc_[i];
        rowMissAcc_ += rows * (1.0 - loc_[i]);
    }
    traffic_.dramRowHits = static_cast<std::uint64_t>(rowHitAcc_);
    traffic_.dramRowMisses = static_cast<std::uint64_t>(rowMissAcc_);

    // ---- DRAM: locality relaxation -----------------------------------
    //
    // Target = the requester's share of the traffic on its own banks:
    // 1 when streaming alone, 1/x when x equal co-runners interleave
    // on the same banks.  Exponential relaxation with time constant
    // locality_tau, so short bursts barely move the state and
    // sustained co-location converges to the interleaved rate.
    const double alpha =
        1.0 - std::exp(-q / static_cast<double>(bc_.localityTau));
    for (std::size_t i = 0; i < n; ++i) {
        const double d = requests[i].dramBytes;
        const int k = bankSpan(d, bc_.banks);
        if (k == 0)
            continue;
        const double share = d / k;
        const int h = homeBank(requests[i].id);
        double other = 0.0;
        for (int j = 0; j < k; ++j)
            other += bankTotal_[static_cast<std::size_t>(
                         (h + j) % bc_.banks)] -
                share;
        const double target = d / (d + other);
        const auto it =
            locality_.try_emplace(requests[i].id, 1.0).first;
        it->second += alpha * (target - it->second);
    }

    // ---- L2: per-bank-port arbitration -------------------------------
    const auto l2banks = static_cast<std::size_t>(
        std::max(1, cfg_.l2Banks));
    for (auto &ld : l2Demand_)
        ld.clear();
    double l2_total_demand = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double d = requests[i].l2Bytes;
        l2_total_demand += d;
        const int k = bankSpan(d, static_cast<int>(l2banks));
        if (k == 0)
            continue;
        const double share = d / k;
        const int h = static_cast<int>(
            mixId(static_cast<std::uint64_t>(requests[i].id)) %
            l2banks);
        for (int j = 0; j < k; ++j)
            l2Demand_[(static_cast<std::size_t>(h) + j) % l2banks]
                .push_back({i, share});
    }
    const double l2_bank_cap = cfg_.l2BankBytesPerCycle * q;
    double l2_granted = 0.0;
    for (std::size_t b = 0; b < l2banks; ++b) {
        const auto &slices = l2Demand_[b];
        if (slices.empty())
            continue;
        treq_.clear();
        treq_.reserve(slices.size());
        for (const auto &s : slices)
            treq_.push_back({s.bytes, requests[s.req].weight});
        sim::allocateBandwidth(treq_, l2_bank_cap, tgrant_, tdone_);
        for (std::size_t s = 0; s < slices.size(); ++s) {
            grants[slices[s].req].l2Bytes += tgrant_[s];
            l2_granted += tgrant_[s];
        }
    }
    // Conflict loss: what the aggregate (flat) L2 bandwidth would
    // have served but concentrated bank-port demand did not.
    const double flat_l2 =
        std::min(l2_total_demand, cfg_.l2BytesPerCycle() * q);
    traffic_.l2ConflictLostBytes +=
        std::max(0.0, flat_l2 - l2_granted);

    return grants;
}

MemoryModelRegistry::Info
bankedModelInfo()
{
    return {
        "banked",
        "bank-aware DRAM + L2: interleaved bank spans, row-hit vs "
        "row-miss rates, emergent per-requester locality loss, "
        "L2 bank-port contention",
        {{"banks", "int", "8", "DRAM bank count"},
         {"row_hit_bpc", "double", "0",
          "row-hit service rate per bank in B/cyc (0 = channel BW)"},
         {"row_miss_bpc", "double", "0",
          "row-miss service rate per bank in B/cyc (0 = hit/4)"},
         {"remap", "xor|mod", "xor",
          "home-bank remap: hash-scattered or id-modulo (ablation)"},
         {"row_bytes", "int", "1024",
          "DRAM row / interleave-span granularity in bytes"},
         {"miss_cycles", "int", "24",
          "channel cycles of turnaround overhead per missed row"},
         {"locality_tau", "int", "16384",
          "locality relaxation time constant in cycles"}},
        [](const sim::SocConfig &cfg, const MemSpec &spec) {
            return std::make_unique<BankedMemoryModel>(
                cfg,
                configFromSpec<BankedConfig>(spec, "memory model"));
        },
    };
}

} // namespace moca::mem
