/**
 * @file
 * Integration-level tests of the SoC simulator engine: isolated runs,
 * co-location slowdowns, tile scaling, stalls, throttling effects,
 * and determinism.
 */

#include <gtest/gtest.h>

#include "dnn/model_zoo.h"
#include "exp/oracle.h"
#include "sim/soc.h"

namespace moca::sim {
namespace {

JobSpec
spec(int id, dnn::ModelId model, Cycles dispatch = 0, int priority = 0)
{
    JobSpec s;
    s.id = id;
    s.model = &dnn::getModel(model);
    s.dispatch = dispatch;
    s.priority = priority;
    s.slaLatency = 1'000'000'000;
    return s;
}

TEST(Soc, SingleJobCompletes)
{
    SocConfig cfg;
    exp::SoloPolicy policy(cfg.numTiles);
    Soc soc(cfg, policy);
    soc.addJob(spec(0, dnn::ModelId::Kws));
    soc.run();
    ASSERT_EQ(soc.results().size(), 1u);
    EXPECT_GT(soc.results()[0].latency(), 0u);
}

TEST(Soc, IsolatedLatencyDeterministic)
{
    SocConfig cfg;
    exp::clearOracleCache();
    const Cycles a =
        exp::isolatedLatency(dnn::ModelId::AlexNet, 8, cfg);
    exp::clearOracleCache();
    const Cycles b =
        exp::isolatedLatency(dnn::ModelId::AlexNet, 8, cfg);
    EXPECT_EQ(a, b);
}

TEST(Soc, MoreTilesFaster)
{
    SocConfig cfg;
    for (dnn::ModelId id :
         {dnn::ModelId::ResNet50, dnn::ModelId::YoloV2}) {
        const Cycles c1 = exp::isolatedLatency(id, 1, cfg);
        const Cycles c8 = exp::isolatedLatency(id, 8, cfg);
        EXPECT_LT(c8, c1) << dnn::modelIdName(id);
        // Sub-linear but substantial speedup.
        EXPECT_GT(static_cast<double>(c1) / c8, 2.0)
            << dnn::modelIdName(id);
    }
}

TEST(Soc, IsolatedLatencyOrdering)
{
    // Heavier models take longer in isolation.
    SocConfig cfg;
    const Cycles kws = exp::isolatedLatency(dnn::ModelId::Kws, 8, cfg);
    const Cycles squeeze =
        exp::isolatedLatency(dnn::ModelId::SqueezeNet, 8, cfg);
    const Cycles resnet =
        exp::isolatedLatency(dnn::ModelId::ResNet50, 8, cfg);
    const Cycles yolo =
        exp::isolatedLatency(dnn::ModelId::YoloV2, 8, cfg);
    EXPECT_LT(kws, squeeze);
    EXPECT_LT(squeeze, resnet);
    EXPECT_LT(resnet, yolo);
}

TEST(Soc, ColocationSlowsJobsDown)
{
    // Two co-located AlexNets on 4 tiles each run slower than one
    // AlexNet alone on 4 tiles (bandwidth + cache contention).
    SocConfig cfg;
    exp::SoloPolicy solo4(4);
    Soc alone(cfg, solo4);
    alone.addJob(spec(0, dnn::ModelId::AlexNet));
    alone.run();
    const Cycles iso = alone.results()[0].latency();

    exp::SoloPolicy pair4(4);
    Soc both(cfg, pair4);
    both.addJob(spec(0, dnn::ModelId::AlexNet));
    both.addJob(spec(1, dnn::ModelId::AlexNet));
    both.run();
    for (const auto &r : both.results())
        EXPECT_GT(r.latency(), iso);
}

TEST(Soc, ThrottledJobRunsSlower)
{
    SocConfig cfg;

    struct ThrottlingSolo : exp::SoloPolicy
    {
        hw::ThrottleConfig tcfg;
        explicit ThrottlingSolo(int tiles) : exp::SoloPolicy(tiles) {}
        void
        schedule(Soc &soc, SchedEvent event) override
        {
            exp::SoloPolicy::schedule(soc, event);
            for (int id : soc.runningJobs())
                if (soc.job(id).throttle.stats().reconfigurations == 0)
                    soc.configureThrottle(id, tcfg);
        }
    };

    ThrottlingSolo p1(8);
    Soc free_run(cfg, p1);
    free_run.addJob(spec(0, dnn::ModelId::SqueezeNet));
    free_run.run();
    const Cycles unthrottled = free_run.results()[0].latency();

    ThrottlingSolo p2(8);
    // Cap each tile at 1/16 of its DMA beats (1 B/cycle/tile).
    p2.tcfg = {1024, 64};
    Soc throttled(cfg, p2);
    throttled.addJob(spec(0, dnn::ModelId::SqueezeNet));
    throttled.run();
    const Cycles capped = throttled.results()[0].latency();

    EXPECT_GT(capped, unthrottled + unthrottled / 10);
}

TEST(Soc, StallDelaysCompletion)
{
    SocConfig cfg;

    struct StallingPolicy : exp::SoloPolicy
    {
        bool stalled = false;
        explicit StallingPolicy(int tiles) : exp::SoloPolicy(tiles) {}
        void
        schedule(Soc &soc, SchedEvent event) override
        {
            exp::SoloPolicy::schedule(soc, event);
            if (!stalled && !soc.runningJobs().empty()) {
                stalled = true;
                // A resize to fewer tiles charges the migration
                // penalty.
                soc.resizeJob(soc.runningJobs()[0], 4);
            }
        }
    };

    exp::SoloPolicy plain(8);
    Soc base(cfg, plain);
    base.addJob(spec(0, dnn::ModelId::SqueezeNet));
    base.run();

    StallingPolicy stall(8);
    Soc delayed(cfg, stall);
    delayed.addJob(spec(0, dnn::ModelId::SqueezeNet));
    delayed.run();

    EXPECT_GT(delayed.results()[0].latency(),
              base.results()[0].latency() + cfg.migrationCycles / 2);
    EXPECT_EQ(delayed.results()[0].migrations, 1);
}

TEST(Soc, ArrivalTimesRespected)
{
    SocConfig cfg;
    exp::SoloPolicy policy(8);
    Soc soc(cfg, policy);
    soc.addJob(spec(0, dnn::ModelId::Kws, 0));
    soc.addJob(spec(1, dnn::ModelId::Kws, 5'000'000));
    soc.run();
    ASSERT_EQ(soc.results().size(), 2u);
    for (const auto &r : soc.results()) {
        if (r.spec.id == 1) {
            EXPECT_GE(r.firstStart, 5'000'000u);
        }
    }
}

TEST(Soc, FreeTileAccounting)
{
    SocConfig cfg;
    exp::SoloPolicy policy(3);
    Soc soc(cfg, policy);
    soc.addJob(spec(0, dnn::ModelId::Kws));
    soc.addJob(spec(1, dnn::ModelId::Kws));
    // After starting two 3-tile jobs, 2 tiles remain.
    soc.run();
    EXPECT_EQ(soc.freeTiles(), cfg.numTiles);
    EXPECT_EQ(soc.results().size(), 2u);
}

TEST(Soc, ResultsCarrySpecFields)
{
    SocConfig cfg;
    exp::SoloPolicy policy(8);
    Soc soc(cfg, policy);
    soc.addJob(spec(0, dnn::ModelId::YoloLite, 100, 7));
    soc.run();
    const auto &r = soc.results()[0];
    EXPECT_EQ(r.spec.priority, 7);
    EXPECT_EQ(r.spec.dispatch, 100u);
    EXPECT_GT(r.dramBytesMoved, 0u);
    EXPECT_GE(r.l2BytesMoved, r.dramBytesMoved);
}

TEST(Soc, DramUtilizationBounded)
{
    SocConfig cfg;
    exp::SoloPolicy policy(2);
    Soc soc(cfg, policy);
    for (int i = 0; i < 4; ++i)
        soc.addJob(spec(i, dnn::ModelId::AlexNet));
    soc.run();
    EXPECT_GT(soc.stats().dramBusyFraction, 0.05);
    EXPECT_LE(soc.stats().dramBusyFraction, 1.0 + 1e-9);
}

TEST(Soc, AdvanceToAnySplitMatchesRun)
{
    // advanceTo(h) is the per-SoC advance the cluster fleet engine
    // runs.  A horizon never shapes a step: however a run is split
    // into horizons, it commits exactly the steps run() commits, and
    // run() is advanceTo(kNoHorizon) itself.  Both kernels, a dense
    // split (every 7,919 cycles, off every grid) and a sparse one.
    for (SimKernel k : {SimKernel::Quantum, SimKernel::Event}) {
        SocConfig cfg;
        cfg.kernel = k;
        const auto load = [&](Soc &soc) {
            soc.addJob(spec(0, dnn::ModelId::AlexNet));
            soc.addJob(spec(1, dnn::ModelId::Kws, 20'000));
            soc.addJob(spec(2, dnn::ModelId::YoloLite, 20'000));
        };
        exp::SoloPolicy pr(cfg.numTiles);
        Soc reference(cfg, pr);
        load(reference);
        reference.run();

        for (const Cycles every : {Cycles{7'919}, Cycles{50'000}}) {
            SCOPED_TRACE(std::string(simKernelName(k)) + " every " +
                         std::to_string(every));
            exp::SoloPolicy ps(cfg.numTiles);
            Soc split(cfg, ps);
            load(split);
            split.beginRun();
            for (Cycles h = every; !split.done(); h += every) {
                split.advanceTo(h);
                // At or before the horizon, and a second advance to
                // it is a no-op.
                ASSERT_LE(split.now(), h);
                const Cycles at = split.now();
                const std::uint64_t steps = split.stats().quanta;
                split.advanceTo(h);
                EXPECT_EQ(split.now(), at);
                EXPECT_EQ(split.stats().quanta, steps);
                EXPECT_FALSE(split.behind(h));
            }
            split.advanceTo(kNoHorizon);
            split.finishRun();

            ASSERT_EQ(split.results().size(),
                      reference.results().size());
            for (std::size_t i = 0; i < split.results().size(); ++i) {
                const JobResult &a = split.results()[i];
                const JobResult &b = reference.results()[i];
                EXPECT_EQ(a.spec.id, b.spec.id);
                EXPECT_EQ(a.finish, b.finish);
                EXPECT_EQ(a.firstStart, b.firstStart);
                EXPECT_EQ(a.dramBytesMoved, b.dramBytesMoved);
                EXPECT_EQ(a.l2BytesMoved, b.l2BytesMoved);
                EXPECT_EQ(a.stallCycles, b.stallCycles);
            }
            EXPECT_EQ(split.stats().quanta, reference.stats().quanta);
            EXPECT_EQ(split.stats().dramBytes,
                      reference.stats().dramBytes);
            EXPECT_EQ(split.now(), reference.now());
        }
    }
}

TEST(Soc, AdvanceToHorizonZeroIsNoOp)
{
    SocConfig cfg;
    exp::SoloPolicy policy(cfg.numTiles);
    Soc soc(cfg, policy);
    soc.addJob(spec(0, dnn::ModelId::Kws));
    soc.beginRun();

    // Horizon 0 means "an arrival at cycle 0": nothing may advance.
    EXPECT_FALSE(soc.behind(0));
    soc.advanceTo(0);
    EXPECT_EQ(soc.now(), 0u);
    EXPECT_EQ(soc.stats().quanta, 0u);
    // No step was planned: the SoC is behind any later horizon.
    EXPECT_TRUE(soc.behind(1));

    // A bounded advance leaves a busy SoC at its last step boundary
    // before the horizon, parked on the one quantum step that would
    // cross it (5,000 is off the 512-cycle grid)...
    soc.advanceTo(5'000);
    const Cycles parked_end = soc.now() + cfg.quantum;
    EXPECT_EQ(soc.now(), 5'000u / cfg.quantum * cfg.quantum);
    EXPECT_FALSE(soc.done());
    // Behind exactly the horizons at or past the parked step's end.
    EXPECT_FALSE(soc.behind(5'000));
    EXPECT_FALSE(soc.behind(parked_end - 1));
    EXPECT_TRUE(soc.behind(parked_end));

    // ... and an unbounded one drains it.
    soc.advanceTo(kNoHorizon);
    soc.finishRun();
    EXPECT_TRUE(soc.done());
    EXPECT_FALSE(soc.behind(kNoHorizon));
}

// --- Idle gaps cost O(1) kernel iterations ------------------------------

/** Periodic ticks in `soc`'s trace, checking each sits on the
 *  schedPeriod grid. */
std::size_t
gridTicks(const Soc &soc, SimKernel k)
{
    std::size_t ticks = 0;
    for (const auto &e : soc.trace().events()) {
        if (e.kind != TraceEventKind::SchedTick)
            continue;
        EXPECT_EQ(e.cycle % soc.config().schedPeriod, 0u)
            << simKernelName(k) << " tick at " << e.cycle;
        ++ticks;
    }
    return ticks;
}

TEST(Soc, StepLongerThanLayerDemandsAtBalancedRate)
{
    // The end-of-layer burst belongs to the one quantum in which a
    // layer can finish at private speed.  A step longer than the
    // layer's whole full-service remaining time still spends every
    // quantum before that tail at the balanced rate (the event
    // kernel's contended steps reach that far), so its demand is the
    // one-quantum demand scaled to its length, not a burst.
    SocConfig cfg;
    exp::SoloPolicy policy(1);
    Soc soc(cfg, policy);
    soc.addJob(spec(0, dnn::ModelId::ResNet50));
    soc.beginRun();
    soc.advanceTo(4 * cfg.quantum);
    ASSERT_EQ(soc.jobState(0), JobState::Running);
    ASSERT_EQ(soc.jobLayer(0), 0u);

    const mem::MemRequest one = soc.stepDemand(0, cfg.quantum);
    ASSERT_GT(one.l2Bytes, 0.0);
    ASSERT_GT(one.dramBytes, 0.0);
    const auto expectScaled = [&](Cycles step) {
        const double s = static_cast<double>(step) /
            static_cast<double>(cfg.quantum);
        const mem::MemRequest r = soc.stepDemand(0, step);
        EXPECT_NEAR(r.l2Bytes, s * one.l2Bytes, 1e-12 * s * one.l2Bytes)
            << "step " << step;
        EXPECT_NEAR(r.dramBytes, s * one.dramBytes,
                    1e-12 * s * one.dramBytes)
            << "step " << step;
    };
    // Two quanta: the one-quantum demand is itself balanced.
    expectScaled(2 * cfg.quantum);
    // Longer than the whole job at private speed, so longer than the
    // current layer's remaining time.
    expectScaled(4 * exp::isolatedLatency(dnn::ModelId::ResNet50, 1, cfg));
}

TEST(Soc, IdleGapCostsConstantIterations)
{
    // The shape of a rebooted fleet SoC: booted at cycle 0, its first
    // job placed ~1e5 scheduler periods later.  Firing every tick on
    // the way would take ~100k iterations and policy calls.
    constexpr Cycles kGap = 10'000'000'000ULL;
    for (SimKernel k : {SimKernel::Quantum, SimKernel::Event}) {
        SocConfig cfg;
        cfg.kernel = k;
        exp::SoloPolicy policy(cfg.numTiles);
        Soc soc(cfg, policy);
        soc.trace().enable();
        soc.beginRun();
        soc.injectJob(spec(0, dnn::ModelId::Kws, kGap));

        soc.advanceTo(kNoHorizon);
        soc.finishRun();

        ASSERT_EQ(soc.results().size(), 1u) << simKernelName(k);
        EXPECT_EQ(soc.results()[0].firstStart, kGap)
            << simKernelName(k);
        // Every pass of the stepping loop counts, idle jumps
        // included.
        EXPECT_LT(soc.stats().advancePasses, 1'000u)
            << simKernelName(k);
        EXPECT_GE(soc.stats().advancePasses, soc.stats().quanta)
            << simKernelName(k);
        EXPECT_LT(soc.stats().schedInvocations, 1'000u)
            << simKernelName(k);
        // The trace still logs every tick on the grid, as if each had
        // fired.
        EXPECT_EQ(gridTicks(soc, k), soc.now() / cfg.schedPeriod + 1)
            << simKernelName(k);
    }
}

TEST(Soc, IdleGapStopsAtHorizonAndKeepsTickGrid)
{
    constexpr Cycles kGap = 10'000'000'000ULL;
    for (SimKernel k : {SimKernel::Quantum, SimKernel::Event}) {
        SocConfig cfg;
        cfg.kernel = k;
        exp::SoloPolicy policy(cfg.numTiles);
        Soc soc(cfg, policy);
        soc.trace().enable();
        soc.beginRun();
        soc.injectJob(spec(0, dnn::ModelId::Kws, kGap));

        // An off-grid horizon mid-gap is hit exactly...
        const Cycles off_grid = kGap / 2 + 12'345;
        soc.advanceTo(off_grid);
        EXPECT_EQ(soc.now(), off_grid) << simKernelName(k);
        // ... and so is an on-grid one, whose tick fires on resume.
        const Cycles on_grid = off_grid - 12'345 + cfg.schedPeriod;
        soc.advanceTo(on_grid);
        EXPECT_EQ(soc.now(), on_grid) << simKernelName(k);
        EXPECT_EQ(soc.trace().count(TraceEventKind::SchedTick),
                  on_grid / cfg.schedPeriod)
            << simKernelName(k);
        soc.advanceTo(on_grid + 1);
        EXPECT_EQ(soc.trace().events().back().kind,
                  TraceEventKind::SchedTick)
            << simKernelName(k);
        EXPECT_EQ(soc.trace().events().back().cycle, on_grid)
            << simKernelName(k);

        soc.advanceTo(kNoHorizon);
        soc.finishRun();
        EXPECT_EQ(soc.results()[0].firstStart, kGap)
            << simKernelName(k);
        EXPECT_LT(soc.stats().schedInvocations, 1'000u)
            << simKernelName(k);
        EXPECT_EQ(gridTicks(soc, k), soc.now() / cfg.schedPeriod + 1)
            << simKernelName(k);
    }
}

// --- A long-lived fleet SoC grows its arena geometrically ---------------

TEST(Soc, InjectionsGrowRunStateGeometrically)
{
    // A fleet SoC takes its jobs one injection at a time.  An exact
    // reserve per injection would copy every result on each one.
    SocConfig cfg;
    exp::SoloPolicy policy(cfg.numTiles);
    Soc soc(cfg, policy);
    soc.beginRun();
    constexpr int kJobs = 2000;
    std::size_t capacity = soc.results().capacity();
    int changes = 0;
    for (int i = 0; i < kJobs; ++i) {
        soc.injectJob(
            spec(i, dnn::ModelId::Kws, static_cast<Cycles>(i)));
        if (soc.results().capacity() != capacity) {
            capacity = soc.results().capacity();
            ++changes;
        }
    }
    EXPECT_GE(capacity, static_cast<std::size_t>(kJobs));
    EXPECT_LE(changes, 16);
}

} // namespace
} // namespace moca::sim
