#include "mem/memory_model.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"
#include "mem/banked.h"
#include "sim/arbiter.h"

namespace moca::mem {

double
MemTraffic::bankBytesCv() const
{
    if (bankBytes.empty())
        return 0.0;
    double mean = 0.0;
    for (double b : bankBytes)
        mean += b;
    mean /= static_cast<double>(bankBytes.size());
    if (mean <= 0.0)
        return 0.0;
    double var = 0.0;
    for (double b : bankBytes) {
        const double d = b - mean;
        var += d * d;
    }
    return std::sqrt(var / static_cast<double>(bankBytes.size())) /
        mean;
}

double
MemTraffic::rowHitRate() const
{
    const std::uint64_t total = dramRowHits + dramRowMisses;
    return total == 0 ? 0.0
                      : static_cast<double>(dramRowHits) /
            static_cast<double>(total);
}

namespace {

/**
 * The original arbitration path extracted verbatim from Soc::arbitrate:
 * one DRAM channel with the oversubscription-thrash derate, plus the
 * aggregate L2 bandwidth.  Stateless, so the event kernel needs no
 * extra events and stays bit-identical to the pre-mem-subsystem
 * simulator.
 */
class FlatMemoryModel : public MemoryModel
{
  public:
    explicit FlatMemoryModel(const sim::SocConfig &cfg) : cfg_(cfg) {}

    const char *name() const override { return "flat"; }

    const std::vector<MemGrant> &
    arbitrate(const std::vector<MemRequest> &requests, Cycles horizon,
              MemStepStats &stats) override
    {
        const std::size_t n = requests.size();
        const double q = static_cast<double>(horizon);
        double total_demand = 0.0;
        double max_demand = 0.0;
        for (const auto &r : requests) {
            total_demand += r.dramBytes;
            max_demand = std::max(max_demand, r.dramBytes);
        }
        const sim::ThrashOutcome thrash = sim::applyDramThrash(
            total_demand, max_demand, cfg_.dramBytesPerCycle * q,
            cfg_.dramThrashOnset, cfg_.dramThrashFactor);
        stats.thrashed = thrash.thrashed;
        stats.thrashLostBytes = thrash.lostBytes;

        // Water-fill straight from the requests into the grants.
        grants_.resize(n);
        const auto weight = [&](std::size_t i) {
            return requests[i].weight;
        };
        const auto dram = [&](std::size_t i) {
            return requests[i].dramBytes;
        };
        const auto dram_grant = [&](std::size_t i) -> double & {
            return grants_[i].dramBytes;
        };
        if (cfg_.dramProportionalArbitration)
            sim::proportionalFill(n, thrash.capacity, dram, weight,
                                  dram_grant, done_);
        else
            sim::maxMinFill(n, thrash.capacity, dram, weight,
                            dram_grant, done_);
        sim::maxMinFill(
            n, cfg_.l2BytesPerCycle() * q,
            [&](std::size_t i) { return requests[i].l2Bytes; }, weight,
            [&](std::size_t i) -> double & { return grants_[i].l2Bytes; },
            done_);
        return grants_;
    }

  private:
    sim::SocConfig cfg_;
    // Per-step scratch (one model instance per Soc, single-threaded).
    std::vector<char> done_;
    std::vector<MemGrant> grants_;
};

void
registerBuiltins(MemoryModelRegistry &reg)
{
    reg.add({
        "flat",
        "single DRAM bandwidth + oversubscription-thrash derate and "
        "aggregate L2 (the original model; the default)",
        {},
        [](const sim::SocConfig &cfg, const MemSpec &) {
            return std::make_unique<FlatMemoryModel>(cfg);
        },
    });
    reg.add(bankedModelInfo());
}

} // anonymous namespace

} // namespace moca::mem

namespace moca {

template <>
mem::MemoryModelRegistry &
mem::MemoryModelRegistry::instance()
{
    // detlint: allow(R4) magic-static init; read-only after startup
    static SpecRegistry reg = [] {
        SpecRegistry r("memory model", "memory models",
                       "list-mem-models", "mem");
        mem::registerBuiltins(r);
        return r;
    }();
    return reg;
}

} // namespace moca
