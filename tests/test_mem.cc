/**
 * @file
 * Tests for the pluggable memory-hierarchy subsystem (src/mem/):
 * registry grammar and error discipline, the flat model's exact
 * equality with the legacy arbiter+thrash composition, the banked
 * model's interleave mapping, row-locality degradation under
 * interleaved co-runners, channel/bank feasibility properties, both
 * simulation kernels, and jobs=1 == jobs=4 bit-determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "exp/oracle.h"
#include "exp/registry.h"
#include "exp/sweep/sweep.h"
#include "mem/banked.h"
#include "mem/memory_model.h"
#include "sim/arbiter.h"
#include "sim/soc.h"

namespace moca::mem {
namespace {

sim::SocConfig
defaultCfg()
{
    return sim::SocConfig();
}

// ---- registry --------------------------------------------------------

TEST(MemRegistry, BuiltinsRegistered)
{
    auto &reg = MemoryModelRegistry::instance();
    EXPECT_TRUE(reg.contains("flat"));
    EXPECT_TRUE(reg.contains("banked"));
    const auto names = reg.names();
    // Registration order: flat (the default) first.
    ASSERT_GE(names.size(), 2u);
    EXPECT_EQ(names[0], "flat");
    EXPECT_EQ(names[1], "banked");

    const std::string list = reg.listText();
    EXPECT_NE(list.find("flat"), std::string::npos);
    EXPECT_NE(list.find("banked"), std::string::npos);
    EXPECT_NE(list.find("locality_tau"), std::string::npos);
}

TEST(MemRegistry, SpecRoundTrip)
{
    const MemSpec spec =
        MemSpec::parse("banked:banks=16,remap=mod", "memory model");
    EXPECT_EQ(spec.name, "banked");
    ASSERT_EQ(spec.params.size(), 2u);
    EXPECT_EQ(spec.canonical(), "banked:banks=16,remap=mod");

    const auto model =
        MemoryModelRegistry::instance().make(spec, defaultCfg());
    EXPECT_STREQ(model->name(), "banked");
    const auto &banked =
        dynamic_cast<const BankedMemoryModel &>(*model);
    EXPECT_EQ(banked.config().banks, 16);
    EXPECT_EQ(banked.config().remap, BankRemap::Mod);
}

using MemRegistryDeathTest = ::testing::Test;

TEST(MemRegistryDeathTest, UnknownModelSuggestsNearest)
{
    EXPECT_DEATH((void)MemoryModelRegistry::instance().make(
                     "bankd", defaultCfg()),
                 "did you mean 'banked'");
    EXPECT_DEATH((void)MemoryModelRegistry::instance().make(
                     "nonsense", defaultCfg()),
                 "known memory models");
}

TEST(MemRegistryDeathTest, UndeclaredParameterListsDeclared)
{
    EXPECT_DEATH((void)MemoryModelRegistry::instance().make(
                     "banked:rows=4", defaultCfg()),
                 "has no parameter 'rows'");
}

TEST(MemRegistryDeathTest, BadParameterValues)
{
    EXPECT_DEATH((void)MemoryModelRegistry::instance().make(
                     "banked:banks=0", defaultCfg()),
                 "banks must be >= 1");
    EXPECT_DEATH((void)MemoryModelRegistry::instance().make(
                     "banked:remap=diagonal", defaultCfg()),
                 "expected xor or mod");
    EXPECT_DEATH((void)MemoryModelRegistry::instance().make(
                     "banked:row_miss_bpc=99", defaultCfg()),
                 "row_miss_bpc <= row_hit_bpc");
}

TEST(MemRegistryDeathTest, SocConstructionValidatesSpec)
{
    sim::SocConfig cfg;
    cfg.memModel = "flatt";
    exp::SoloPolicy policy(1);
    EXPECT_DEATH(sim::Soc(cfg, policy), "unknown memory model");
}

TEST(MemRegistry, UserRegisteredModel)
{
    // Open registration: a toy model that grants everything.
    struct GreedyModel : MemoryModel
    {
        const char *name() const override { return "greedy-test"; }
        const std::vector<MemGrant> &
        arbitrate(const std::vector<MemRequest> &requests, Cycles,
                  MemStepStats &) override
        {
            grants_.assign(requests.size(), MemGrant{});
            for (std::size_t i = 0; i < requests.size(); ++i)
                grants_[i] = {requests[i].dramBytes,
                              requests[i].l2Bytes};
            return grants_;
        }
        std::vector<MemGrant> grants_;
    };
    static MemoryModelRegistrar reg({
        "greedy-test",
        "grants every demand (test double)",
        {},
        [](const sim::SocConfig &, const MemSpec &) {
            return std::make_unique<GreedyModel>();
        },
    });
    EXPECT_TRUE(
        MemoryModelRegistry::instance().contains("greedy-test"));

    // And it drives a full scenario through SocConfig::memModel.
    sim::SocConfig cfg;
    cfg.memModel = "greedy-test";
    workload::TraceConfig trace;
    trace.numTasks = 6;
    const auto r = exp::runScenario("moca", trace, cfg);
    EXPECT_EQ(r.metrics.numJobs, 6);
}

// ---- flat == legacy composition --------------------------------------

TEST(FlatModel, ExactlyTheLegacyArbiterComposition)
{
    const sim::SocConfig cfg = defaultCfg();
    const auto model =
        MemoryModelRegistry::instance().make("flat", cfg);
    Rng rng(101);
    for (int trial = 0; trial < 200; ++trial) {
        const int n = static_cast<int>(rng.uniformInt(1, 6));
        const Cycles horizon =
            static_cast<Cycles>(rng.uniformInt(64, 4096));
        std::vector<MemRequest> reqs;
        std::vector<sim::BwDemand> dram_req, l2_req;
        double total = 0.0, maxd = 0.0;
        for (int i = 0; i < n; ++i) {
            MemRequest r;
            r.id = i;
            r.dramBytes = rng.uniform(0.0, 40000.0);
            r.l2Bytes = rng.uniform(0.0, 80000.0);
            r.weight = static_cast<double>(rng.uniformInt(1, 8));
            reqs.push_back(r);
            dram_req.push_back({r.dramBytes, r.weight});
            l2_req.push_back({r.l2Bytes, r.weight});
            total += r.dramBytes;
            maxd = std::max(maxd, r.dramBytes);
        }

        MemStepStats stats;
        const auto grants = model->arbitrate(reqs, horizon, stats);

        // The legacy path, composed by hand.
        const double q = static_cast<double>(horizon);
        const sim::ThrashOutcome thrash = sim::applyDramThrash(
            total, maxd, cfg.dramBytesPerCycle * q,
            cfg.dramThrashOnset, cfg.dramThrashFactor);
        const auto dram = cfg.dramProportionalArbitration
            ? sim::allocateBandwidthProportional(dram_req,
                                                 thrash.capacity)
            : sim::allocateBandwidth(dram_req, thrash.capacity);
        const auto l2 = sim::allocateBandwidth(
            l2_req, cfg.l2BytesPerCycle() * q);

        EXPECT_EQ(stats.thrashed, thrash.thrashed);
        EXPECT_EQ(stats.thrashLostBytes, thrash.lostBytes);
        ASSERT_EQ(grants.size(), reqs.size());
        for (int i = 0; i < n; ++i) {
            const auto idx = static_cast<std::size_t>(i);
            EXPECT_EQ(grants[idx].dramBytes, dram[idx]);
            EXPECT_EQ(grants[idx].l2Bytes, l2[idx]);
        }
    }
}

TEST(FlatModel, StatelessAndCounterFree)
{
    const auto model =
        MemoryModelRegistry::instance().make("flat", defaultCfg());
    EXPECT_EQ(model->cyclesUntilNextChange(), 0u);
    MemStepStats stats;
    (void)model->arbitrate({{0, 5000.0, 9000.0, 2.0}}, 512, stats);
    EXPECT_EQ(model->traffic().dramRowHits, 0u);
    EXPECT_EQ(model->traffic().dramRowMisses, 0u);
    EXPECT_TRUE(model->traffic().bankBytes.empty());
    EXPECT_EQ(model->traffic().l2ConflictLostBytes, 0.0);
}

/** `--mem flat` (the default) replays the default-config scenario
 *  path exactly: asserting the extraction changed nothing. */
TEST(FlatModel, DefaultScenarioUnchanged)
{
    workload::TraceConfig trace;
    trace.numTasks = 12;
    trace.seed = 5;

    const sim::SocConfig def; // memModel == "flat" by default
    sim::SocConfig explicit_flat = def;
    explicit_flat.memModel = "flat";

    const auto a = exp::runScenario("moca", trace, def);
    const auto b = exp::runScenario("moca", trace, explicit_flat);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.metrics.slaRate, b.metrics.slaRate);
    EXPECT_EQ(a.metrics.stp, b.metrics.stp);
    EXPECT_EQ(a.simSteps, b.simSteps);
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t i = 0; i < a.jobs.size(); ++i)
        EXPECT_EQ(a.jobs[i].finish, b.jobs[i].finish);
}

// ---- banked: interleave mapping --------------------------------------

TEST(BankedModel, InterleaveMapping)
{
    BankedConfig bc;
    bc.banks = 8;
    const BankedMemoryModel xor_model(defaultCfg(), bc);

    // Home banks are deterministic, in range, and scattered: 32
    // consecutive ids should not all collapse onto one bank.
    std::vector<int> seen(8, 0);
    for (int id = 0; id < 32; ++id) {
        const int h = xor_model.homeBank(id);
        EXPECT_EQ(h, xor_model.homeBank(id));
        ASSERT_GE(h, 0);
        ASSERT_LT(h, 8);
        seen[static_cast<std::size_t>(h)]++;
    }
    EXPECT_GT(std::count_if(seen.begin(), seen.end(),
                            [](int c) { return c > 0; }),
              4);

    // mod remap: adjacent ids land on adjacent banks (and collide
    // every `banks` ids).
    bc.remap = BankRemap::Mod;
    const BankedMemoryModel mod_model(defaultCfg(), bc);
    for (int id = 0; id < 32; ++id)
        EXPECT_EQ(mod_model.homeBank(id), id % 8);

    // Span: 0 for no demand, 1 row -> 1 bank, capped at the bank
    // count.
    EXPECT_EQ(xor_model.bankSpan(0.0, 8), 0);
    EXPECT_EQ(xor_model.bankSpan(1.0, 8), 1);
    EXPECT_EQ(xor_model.bankSpan(1024.0, 8), 1);
    EXPECT_EQ(xor_model.bankSpan(1025.0, 8), 2);
    EXPECT_EQ(xor_model.bankSpan(1e9, 8), 8);
}

// ---- banked: locality ------------------------------------------------

TEST(BankedModel, LoneStreamerKeepsLocalityAndFullService)
{
    const sim::SocConfig cfg = defaultCfg();
    BankedMemoryModel model(cfg, BankedConfig());
    MemStepStats stats;
    const Cycles q = 512;
    const double cap = cfg.dramBytesPerCycle * 512.0;

    for (int step = 0; step < 50; ++step) {
        const auto g = model.arbitrate(
            {{0, 2.0 * cap, 2.0 * cap, 8.0}}, q, stats);
        // A lone streamer keeps locality 1 and is served at exactly
        // the channel rate — identical to the flat model, so
        // isolated latencies (and QoS targets) are unchanged.
        EXPECT_NEAR(g[0].dramBytes, cap, 1e-6);
    }
    EXPECT_DOUBLE_EQ(model.locality(0), 1.0);
    EXPECT_EQ(model.traffic().dramRowMisses, 0u);
    EXPECT_GT(model.traffic().dramRowHits, 0u);
}

TEST(BankedModel, InterleavedCoRunnersDegradeLocality)
{
    const sim::SocConfig cfg = defaultCfg();
    BankedConfig bc;
    bc.localityTau = 2048; // Converge quickly in the test.
    BankedMemoryModel model(cfg, bc);
    MemStepStats stats;
    const double demand = 4.0 * cfg.dramBytesPerCycle * 512.0;

    double service_sum = 0.0;
    for (int step = 0; step < 100; ++step) {
        const auto g = model.arbitrate(
            {{0, demand, 0.0, 4.0}, {1, demand, 0.0, 4.0}}, 512,
            stats);
        service_sum = g[0].dramBytes + g[1].dramBytes;
    }
    // Two equal streamers interleaving on shared banks: locality
    // converges to each one's traffic share (1/2)...
    EXPECT_LT(model.locality(0), 0.55);
    EXPECT_GT(model.locality(0), 0.45);
    EXPECT_NEAR(model.locality(0), model.locality(1), 1e-9);
    // ...misses accumulate, and the channel serves measurably below
    // its peak (turnaround overhead) but above the hard floor.
    EXPECT_GT(model.traffic().dramRowMisses, 0u);
    const double peak = cfg.dramBytesPerCycle * 512.0;
    EXPECT_LT(service_sum, 0.95 * peak);
    EXPECT_GT(service_sum, 0.5 * peak);

    // The departed co-runner's locality recovers once requester 0
    // streams alone again — contention is a *state*, not a penalty.
    for (int step = 0; step < 100; ++step)
        (void)model.arbitrate({{0, demand, 0.0, 4.0}}, 512, stats);
    EXPECT_GT(model.locality(0), 0.95);
}

TEST(BankedModel, MoreBanksLessInterference)
{
    // With xor remap and span-limited demands, co-runners on a
    // 16-bank DRAM overlap less than on a 2-bank DRAM: aggregate
    // service after locality convergence must be no worse.
    const sim::SocConfig cfg = defaultCfg();
    auto converged_service = [&](int banks) {
        BankedConfig bc;
        bc.banks = banks;
        bc.localityTau = 2048;
        BankedMemoryModel model(cfg, bc);
        MemStepStats stats;
        // Short bursts: span 2 banks each.
        std::vector<MemRequest> reqs;
        for (int i = 0; i < 4; ++i)
            reqs.push_back({i, 2048.0, 0.0, 2.0});
        double sum = 0.0;
        for (int step = 0; step < 100; ++step) {
            const auto g = model.arbitrate(reqs, 512, stats);
            sum = 0.0;
            for (const auto &gr : g)
                sum += gr.dramBytes;
        }
        return sum;
    };
    EXPECT_GE(converged_service(16), converged_service(2) - 1e-6);
}

// ---- banked: feasibility properties ----------------------------------

TEST(BankedModel, PropertyGrantsFeasible)
{
    const sim::SocConfig cfg = defaultCfg();
    BankedMemoryModel model(cfg, BankedConfig());
    Rng rng(77);
    MemStepStats stats;
    for (int trial = 0; trial < 300; ++trial) {
        const int n = static_cast<int>(rng.uniformInt(1, 8));
        const Cycles horizon =
            static_cast<Cycles>(rng.uniformInt(64, 8192));
        std::vector<MemRequest> reqs;
        for (int i = 0; i < n; ++i)
            reqs.push_back({static_cast<int>(rng.uniformInt(0, 40)),
                            rng.uniform(0.0, 1e6),
                            rng.uniform(0.0, 1e6),
                            static_cast<double>(
                                rng.uniformInt(1, 8))});
        const auto g = model.arbitrate(reqs, horizon, stats);
        ASSERT_EQ(g.size(), reqs.size());
        const double q = static_cast<double>(horizon);
        double dram_sum = 0.0, l2_sum = 0.0;
        for (std::size_t i = 0; i < g.size(); ++i) {
            EXPECT_GE(g[i].dramBytes, -1e-9);
            EXPECT_LE(g[i].dramBytes, reqs[i].dramBytes + 1e-6);
            EXPECT_GE(g[i].l2Bytes, -1e-9);
            EXPECT_LE(g[i].l2Bytes, reqs[i].l2Bytes + 1e-6);
            dram_sum += g[i].dramBytes;
            l2_sum += g[i].l2Bytes;
        }
        EXPECT_LE(dram_sum, cfg.dramBytesPerCycle * q + 1e-6);
        EXPECT_LE(l2_sum, cfg.l2BytesPerCycle() * q + 1e-6);
    }
}

// ---- banked under both kernels, determinism --------------------------

void
expectScenarioEq(const exp::ScenarioResult &a,
                 const exp::ScenarioResult &b)
{
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.metrics.slaRate, b.metrics.slaRate);
    EXPECT_EQ(a.metrics.stp, b.metrics.stp);
    EXPECT_EQ(a.metrics.fairness, b.metrics.fairness);
    EXPECT_EQ(a.simSteps, b.simSteps);
    EXPECT_EQ(a.memTraffic.dramRowHits, b.memTraffic.dramRowHits);
    EXPECT_EQ(a.memTraffic.dramRowMisses,
              b.memTraffic.dramRowMisses);
    ASSERT_EQ(a.memTraffic.bankBytes.size(),
              b.memTraffic.bankBytes.size());
    for (std::size_t i = 0; i < a.memTraffic.bankBytes.size(); ++i)
        EXPECT_EQ(a.memTraffic.bankBytes[i],
                  b.memTraffic.bankBytes[i]);
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t i = 0; i < a.jobs.size(); ++i)
        EXPECT_EQ(a.jobs[i].finish, b.jobs[i].finish);
}

TEST(BankedKernels, RunsUnderBothKernelsWithTraffic)
{
    workload::TraceConfig trace;
    trace.numTasks = 20;
    trace.seed = 11;

    for (const auto kernel :
         {sim::SimKernel::Quantum, sim::SimKernel::Event}) {
        sim::SocConfig cfg;
        cfg.kernel = kernel;
        cfg.memModel = "banked";
        const auto r = exp::runScenario("moca", trace, cfg);
        EXPECT_EQ(r.metrics.numJobs, 20);
        EXPECT_GT(r.metrics.slaRate, 0.0);
        // The banked model's counters flow through to the result.
        EXPECT_GT(r.memTraffic.dramRowHits +
                      r.memTraffic.dramRowMisses,
                  0u);
        EXPECT_EQ(r.memTraffic.bankBytes.size(), 8u);
        double bank_sum = 0.0;
        for (double b : r.memTraffic.bankBytes)
            bank_sum += b;
        EXPECT_GT(bank_sum, 0.0);
    }
}

TEST(BankedKernels, EventKernelBoundsStepsByLocalityTau)
{
    // The MemStateChange event keeps event-kernel steps from
    // smearing locality decay: with a job stream long enough to
    // idle between arrivals, the event kernel must execute at least
    // cyclesSimulated / locality_tau arbitration rounds.
    workload::TraceConfig trace;
    trace.numTasks = 10;
    trace.seed = 3;

    sim::SocConfig cfg;
    cfg.kernel = sim::SimKernel::Event;
    cfg.memModel = "banked:locality_tau=8192";
    const auto r = exp::runScenario("prema", trace, cfg);
    EXPECT_GE(r.simSteps,
              r.cyclesSimulated / 8192);
}

TEST(BankedKernels, ParallelEqualsSerial)
{
    workload::TraceConfig trace;
    trace.numTasks = 24;
    trace.seed = 9;

    sim::SocConfig cfg;
    cfg.memModel = "banked:banks=16";
    std::vector<exp::SweepCell> grid;
    exp::appendPolicyCells(grid, "banked", {"moca", "prema", "planaria"},
                           trace, cfg);
    auto run = [&](int jobs) {
        exp::SweepOptions opts;
        opts.jobs = jobs;
        return exp::SweepRunner(opts).run(grid);
    };
    const auto serial = run(1);
    const auto parallel = run(4);
    ASSERT_EQ(serial.size(), 3u);
    ASSERT_EQ(parallel.size(), 3u);
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectScenarioEq(serial[i], parallel[i]);
}

TEST(BankedKernels, BankCountChangesOutcomes)
{
    // The knob must matter: a 2-bank DRAM under heavy co-location
    // cannot produce the identical trajectory as a 32-bank one.
    workload::TraceConfig trace;
    trace.numTasks = 24;
    trace.seed = 13;
    trace.loadFactor = 1.5;

    sim::SocConfig a;
    a.memModel = "banked:banks=2";
    sim::SocConfig b;
    b.memModel = "banked:banks=32";
    const auto ra = exp::runScenario("moca", trace, a);
    const auto rb = exp::runScenario("moca", trace, b);
    EXPECT_NE(ra.makespan, rb.makespan);
    // More banks -> less bank-level interference -> no later finish.
    EXPECT_LE(rb.makespan, ra.makespan);
}

} // namespace
} // namespace moca::mem
