/**
 * @file
 * Figure 1 reproduction: average and worst-case latency increase of a
 * DNN when co-located with 0..3 other randomly dispatched DNNs on the
 * same SoC, with *no* contention management.  The paper runs 300
 * randomized co-locations per point; the repetition count is
 * configurable (default 120 to keep a laptop run short — the curves
 * are already stable there).
 *
 * Every (model, x, repetition) point is an independent task on the
 * sweep engine's worker pool, with its RNG seeded deterministically
 * from the point's index — so parallel and serial runs produce
 * identical tables.
 *
 * Expected shape (paper Sec. II-B): >= 40% average latency increase at
 * x=4 for every network; AlexNet worst on average (memory-capacity
 * sensitive FC layers); SqueezeNet's worst case > 3x isolated (short
 * runtime, fully overlapped with memory-intensive co-runners).
 *
 * Usage: fig1_colocation_slowdown [reps=N] [seed=S]
 *                                 [--mem SPEC] [--list-mem-models]
 *                                 [--list-policies] [--jobs N]
 *
 * `--mem banked[:banks=N,...]` replays the co-location study under
 * the bank-aware memory model, where the slowdown comes from
 * emergent row-locality loss instead of the flat thrash heuristic.
 */

#include <cstdio>
#include <vector>

#include "common/log.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "exp/oracle.h"
#include "exp/registry.h"
#include "exp/sweep/options.h"
#include "sim/soc.h"

using namespace moca;

namespace {

/** The four DNNs of the paper's Figure 1. */
const std::vector<dnn::ModelId> kFig1Models = {
    dnn::ModelId::ResNet50,
    dnn::ModelId::AlexNet,
    dnn::ModelId::GoogleNet,
    dnn::ModelId::SqueezeNet,
};

/** One co-location run: the test job plus (x-1) random co-runners
 *  dispatched at random offsets; returns the test job's latency. */
Cycles
colocatedLatency(dnn::ModelId test, int x, Rng &rng,
                 const sim::SocConfig &cfg, Cycles test_iso)
{
    exp::SoloPolicy policy(cfg.numTiles / 4); // spatial co-location
    sim::Soc soc(cfg, policy);

    // The test job starts mid-window so co-runners dispatched both
    // before and after it are possible — the worst case for a short
    // network is being dispatched *into* an ongoing memory-intensive
    // phase of a heavy co-runner.
    const Cycles lead = 30'000'000;
    sim::JobSpec spec;
    spec.id = 0;
    spec.model = &dnn::getModel(test);
    spec.dispatch = lead;
    spec.slaLatency = 0;
    soc.addJob(spec);

    for (int i = 1; i < x; ++i) {
        sim::JobSpec co;
        co.id = i;
        const dnn::ModelId co_id =
            kFig1Models[static_cast<std::size_t>(rng.uniformInt(
                0,
                static_cast<std::int64_t>(kFig1Models.size()) - 1))];
        co.model = &dnn::getModel(co_id);
        // Dispatch so the co-runner can overlap the test job at a
        // random phase: anywhere from "co-runner still executing
        // when the test job starts" to "co-runner starts during the
        // test job's run".
        const auto co_iso = static_cast<std::int64_t>(
            exp::isolatedLatency(co_id, cfg.numTiles / 4, cfg));
        const auto lo = std::max<std::int64_t>(
            0, static_cast<std::int64_t>(lead) - co_iso);
        co.dispatch = static_cast<Cycles>(rng.uniformInt(
            lo, static_cast<std::int64_t>(lead + test_iso)));
        co.slaLatency = 0;
        soc.addJob(co);
    }
    soc.run();
    for (const auto &r : soc.results())
        if (r.spec.id == 0)
            return r.finish - r.spec.dispatch;
    fatal("test job did not complete");
}

} // namespace

int
main(int argc, char **argv)
{
    ArgMap args(argc, argv);
    const sim::SocConfig cfg = exp::socConfigFromArgs(args);
    // This bench studies *unmanaged* co-location, so the policy under
    // test is fixed to "solo"; --list-policies still works, and any
    // other --policy selection is rejected rather than ignored.
    if (exp::specsFromArgs<exp::PolicyRegistry>(args, {"solo"}) !=
        std::vector<std::string>{"solo"})
        fatal("fig1_colocation_slowdown measures unmanaged "
              "co-location; its policy is fixed to 'solo' and "
              "--policy cannot change it");
    const int reps = static_cast<int>(args.getInt("reps", 120));
    const auto seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));
    const int jobs = exp::sweepOptionsFromArgs(args).jobs;
    args.requireAllRead();

    std::printf("== Figure 1: latency increase under co-location "
                "(reps=%d seed=%llu jobs=%d) ==\n\n", reps,
                static_cast<unsigned long long>(seed),
                exp::resolveJobs(jobs));
    exp::printSocBanner(cfg);

    const std::size_t num_models = kFig1Models.size();

    // Isolated references: each model alone on its 2-tile partition.
    std::vector<Cycles> iso(num_models, 0);
    exp::SweepRunner::runIndexed(num_models, jobs, [&](std::size_t m) {
        iso[m] = exp::isolatedLatency(kFig1Models[m], cfg.numTiles / 4,
                                      cfg);
    });

    // Flat task grid: (model, x in 2..4, rep), each with its own
    // index-derived RNG stream.
    const std::size_t num_x = 3;
    const auto nreps = static_cast<std::size_t>(reps);
    const std::size_t n = num_models * num_x * nreps;
    std::vector<double> norm(n, 0.0);
    exp::SweepRunner::runIndexed(n, jobs, [&](std::size_t i) {
        const std::size_t m = i / (num_x * nreps);
        const int x = static_cast<int>(2 + (i / nreps) % num_x);
        Rng rng(exp::deriveCellSeed(seed, i));
        const Cycles lat = colocatedLatency(kFig1Models[m], x, rng,
                                            cfg, iso[m]);
        norm[i] = static_cast<double>(lat) /
            static_cast<double>(iso[m]);
    });

    Table avg({"Model", "x=1", "x=2", "x=3", "x=4"});
    Table worst({"Model", "x=1", "x=2", "x=3", "x=4"});
    for (std::size_t m = 0; m < num_models; ++m) {
        avg.row().cell(dnn::modelIdName(kFig1Models[m])).cell(1.0, 2);
        worst.row().cell(dnn::modelIdName(kFig1Models[m]))
            .cell(1.0, 2);
        for (std::size_t xi = 0; xi < num_x; ++xi) {
            SampleSet samples;
            const std::size_t base = (m * num_x + xi) * nreps;
            for (std::size_t rep = 0; rep < nreps; ++rep)
                samples.add(norm[base + rep]);
            avg.cell(samples.mean(), 2);
            worst.cell(samples.max(), 2);
        }
    }

    avg.print("Figure 1a: average latency increase "
              "(normalized to isolated)");
    worst.print("Figure 1b: worst-case latency increase "
                "(normalized to isolated)");

    std::printf("\npaper shape check: >=1.4x average at x=4; AlexNet "
                "worst average case;\nSqueezeNet worst-case > 3x.\n");
    return 0;
}
