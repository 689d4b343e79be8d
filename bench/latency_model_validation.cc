/**
 * @file
 * Algorithm 1 validation: the paper reports that the MoCA runtime's
 * latency prediction is "within 10% of measured runtimes across
 * networks and layers".  This harness compares the analytical
 * prediction against the simulator's measured isolated latency for
 * every model at 1/2/4/8 tiles — every (model, tiles) point is an
 * independent task on the sweep engine — and demonstrates the
 * overlap_f tuning utility (Sec. III-C) by recovering the overlap
 * factor from a small set of measured layers.
 *
 * Usage: latency_model_validation [--mem SPEC] [--list-mem-models]
 *                                 [--list-policies] [--jobs N]
 *
 * `--mem banked` re-validates Algorithm 1 against the bank-aware
 * memory model: isolated runs keep full row locality, so the
 * runtime's coarse model must stay inside the paper's ~10% band
 * under either memory model (the banner records which one ran).
 */

#include <cstdio>
#include <vector>

#include "common/log.h"
#include "common/stats.h"
#include "common/table.h"
#include "exp/oracle.h"
#include "exp/registry.h"
#include "exp/sweep/options.h"
#include "moca/runtime/latency_model.h"

using namespace moca;

namespace {

/** Measure a single layer's isolated latency by running it as a
 *  one-layer model on the simulator. */
double
measureLayer(const dnn::Layer &layer, int tiles,
             const sim::SocConfig &cfg)
{
    const dnn::Model one("single", dnn::ModelSize::Light, {layer});
    return static_cast<double>(exp::isolatedLatency(one, tiles, cfg));
}

} // namespace

int
main(int argc, char **argv)
{
    ArgMap args(argc, argv);
    const sim::SocConfig cfg = exp::socConfigFromArgs(args);
    // Prediction accuracy is policy-independent; --list-policies
    // still works, and any --policy selection is rejected rather
    // than ignored.
    if (exp::specsFromArgs<exp::PolicyRegistry>(args, {"solo"}) !=
        std::vector<std::string>{"solo"})
        fatal("latency_model_validation measures isolated runs; its "
              "policy is fixed to 'solo' and --policy cannot change "
              "it");
    const int jobs = exp::sweepOptionsFromArgs(args).jobs;
    args.requireAllRead();

    std::printf("== Algorithm 1 validation: prediction vs. measured "
                "isolated latency ==\n\n");
    exp::printSocBanner(cfg);

    runtime::LatencyModel model(cfg);

    const auto &ids = dnn::allModelIds();
    const std::vector<int> tile_counts = {1, 2, 4, 8};
    const std::size_t n = ids.size() * tile_counts.size();

    struct Point
    {
        double measured = 0.0;
        double predicted = 0.0;
    };
    std::vector<Point> points(n);
    exp::SweepRunner::runIndexed(n, jobs, [&](std::size_t i) {
        const dnn::ModelId id = ids[i / tile_counts.size()];
        const int tiles = tile_counts[i % tile_counts.size()];
        points[i].measured = static_cast<double>(
            exp::isolatedLatency(id, tiles, cfg));
        points[i].predicted =
            model.estimateModel(dnn::getModel(id), tiles);
    });

    Table t({"Model", "Tiles", "Measured (Kcyc)", "Predicted (Kcyc)",
             "Error %"});
    StatAccum errors;
    double worst = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const dnn::ModelId id = ids[i / tile_counts.size()];
        const int tiles = tile_counts[i % tile_counts.size()];
        const double err = 100.0 *
            (points[i].predicted - points[i].measured) /
            points[i].measured;
        errors.add(std::abs(err));
        worst = std::max(worst, std::abs(err));
        t.row().cell(dnn::modelIdName(id))
            .cell(static_cast<long long>(tiles))
            .cell(points[i].measured / 1e3, 1)
            .cell(points[i].predicted / 1e3, 1)
            .cell(err, 1);
    }
    t.print("Per-model prediction error");

    std::printf("\nmean |error| = %.2f%%, worst |error| = %.2f%% "
                "(paper: within 10%%)\n", errors.mean(), worst);

    // --- overlap_f tuning utility demo --------------------------------
    std::printf("\n== overlap_f tuning utility (Sec. III-C) ==\n");
    std::vector<std::pair<const dnn::Layer *, double>> measured;
    const auto &probe = dnn::getModel(dnn::ModelId::ResNet50);
    // "running a few DNN layers before starting inference queries"
    for (std::size_t i = 2; i < probe.numLayers() && measured.size() < 6;
         i += 7) {
        const dnn::Layer &l = probe.layer(i);
        if (l.layerClass() != dnn::LayerClass::Compute)
            continue;
        measured.push_back({&l, measureLayer(l, 2, cfg)});
    }
    const double tuned = runtime::tuneOverlapF(cfg, measured, 2);
    std::printf("tuned overlap_f = %.2f (SoC configured with %.2f)\n",
                tuned, cfg.overlapF);
    return 0;
}
