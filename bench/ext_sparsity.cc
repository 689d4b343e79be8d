/**
 * @file
 * Sparse-DNN extension study (the paper's Limitations section): MoCA
 * assumes dense workloads because "if sparsity is considered in
 * hardware, it can be challenging to estimate the memory requirements
 * of the DNN layers during runtime", but "can be augmented with an
 * accurate performance and memory resource predictor of sparse DNNs".
 *
 * This bench implements that augmentation and quantifies it:
 *
 *  1. Prediction accuracy of the sparsity-aware vs dense-assuming
 *     Algorithm 1 on magnitude-pruned variants of the zoo (density
 *     1.0 / 0.5 / 0.25) — each (model, density) point an independent
 *     task on the sweep engine.
 *  2. A mixed dense/pruned multi-tenant run under MoCA with each
 *     predictor — end-to-end sensitivity of the runtime to the
 *     prediction error, as two parameterized policy specs
 *     ("moca:sparsity_aware=1|0") replaying the identical mutated
 *     trace.
 *
 * Usage: ext_sparsity [tasks=N] [seed=S] [--policy SPEC,SPEC]
 *                     [--list-policies] [--jobs N]
 */

#include <cmath>
#include <cstdio>

#include "common/stats.h"
#include "common/table.h"
#include "exp/oracle.h"
#include "exp/registry.h"
#include "exp/sweep/options.h"
#include "moca/runtime/latency_model.h"
#include "sim/soc.h"

using namespace moca;

int
main(int argc, char **argv)
{
    ArgMap args(argc, argv);
    const sim::SocConfig cfg = exp::socConfigFromArgs(args);
    const int tasks = static_cast<int>(args.getInt("tasks", 120));
    const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    const int jobs = exp::sweepOptionsFromArgs(args).jobs;
    // The predictor pair under comparison, overridable via --policy.
    const auto predictor_specs =
        exp::specsFromArgs<exp::PolicyRegistry>(
            args, {"moca:sparsity_aware=1", "moca:sparsity_aware=0"});
    args.requireAllRead();

    std::printf("== Sparse-DNN extension (paper Sec. III-E) ==\n\n");
    exp::printSocBanner(cfg);

    // ---- 1. Predictor accuracy on pruned networks --------------------
    runtime::LatencyModel aware(cfg, true);
    runtime::LatencyModel dense(cfg, false);

    const std::vector<dnn::ModelId> pred_models = {
        dnn::ModelId::ResNet50, dnn::ModelId::AlexNet,
        dnn::ModelId::GoogleNet, dnn::ModelId::YoloV2};
    const std::vector<double> densities = {1.0, 0.5, 0.25};

    struct PredPoint
    {
        double measured = 0.0;
        double awareErr = 0.0;
        double denseErr = 0.0;
    };
    const std::size_t np = pred_models.size() * densities.size();
    std::vector<PredPoint> pred(np);
    exp::SweepRunner::runIndexed(np, jobs, [&](std::size_t i) {
        const dnn::ModelId id = pred_models[i / densities.size()];
        const double density = densities[i % densities.size()];
        const dnn::Model sparse =
            dnn::sparsifyModel(dnn::getModel(id), density);
        pred[i].measured = static_cast<double>(
            exp::isolatedLatency(sparse, 2, cfg));
        pred[i].awareErr = 100.0 *
            (aware.estimateModel(sparse, 2) - pred[i].measured) /
            pred[i].measured;
        pred[i].denseErr = 100.0 *
            (dense.estimateModel(sparse, 2) - pred[i].measured) /
            pred[i].measured;
    });

    Table t({"Model", "Density", "Measured (Kcyc)",
             "Aware err %", "Dense-assume err %"});
    StatAccum aware_err, dense_err;
    for (std::size_t i = 0; i < np; ++i) {
        const dnn::ModelId id = pred_models[i / densities.size()];
        aware_err.add(std::abs(pred[i].awareErr));
        dense_err.add(std::abs(pred[i].denseErr));
        t.row().cell(dnn::getModel(id).name())
            .cell(densities[i % densities.size()], 2)
            .cell(pred[i].measured / 1e3, 1)
            .cell(pred[i].awareErr, 1).cell(pred[i].denseErr, 1);
    }
    t.print("Algorithm 1 on pruned networks: sparsity-aware vs "
            "dense-assuming predictor");
    std::printf("\nmean |error|: aware %.1f%%, dense-assuming %.1f%%\n",
                aware_err.mean(), dense_err.mean());

    // ---- 2. Multi-tenant impact of the predictor ---------------------
    workload::TraceConfig trace;
    trace.set = workload::WorkloadSet::B;
    trace.qos = workload::QosLevel::Medium;
    trace.numTasks = tasks;
    trace.seed = seed;
    auto specs = exp::makeTrace(trace, cfg);

    // Swap every job's model for its 25%-density pruned variant.
    std::vector<dnn::Model> sparse_models;
    sparse_models.reserve(dnn::allModelIds().size());
    std::vector<const dnn::Model *> by_id(
        dnn::allModelIds().size(), nullptr);
    for (dnn::ModelId id : dnn::allModelIds()) {
        sparse_models.push_back(
            dnn::sparsifyModel(dnn::getModel(id), 0.25));
        by_id[static_cast<std::size_t>(id)] = &sparse_models.back();
    }
    // Memoized isolated latencies of the sparse variants.
    std::vector<double> iso1(by_id.size(), 0.0);
    std::vector<double> iso8(by_id.size(), 0.0);
    exp::SweepRunner::runIndexed(by_id.size(), jobs, [&](std::size_t i) {
        if (by_id[i] != nullptr) {
            iso1[i] = static_cast<double>(
                exp::isolatedLatency(*by_id[i], 1, cfg));
            iso8[i] = static_cast<double>(
                exp::isolatedLatency(*by_id[i], cfg.numTiles, cfg));
        }
    });
    // Mixed-density deployment: every other job runs the pruned
    // variant.  A uniformly mis-scaled predictor would keep relative
    // allocations intact; the mixed case is where dense assumptions
    // misjudge jobs *relative to each other*.
    for (std::size_t i = 0; i < specs.size(); ++i) {
        auto &s = specs[i];
        if (i % 2 != 0)
            continue;
        const auto id = static_cast<std::size_t>(
            dnn::modelIdFromName(s.model->name()));
        s.model = by_id[id];
        // Keep edge-grade targets: scale the SLA to the sparse
        // isolated latency.
        s.slaLatency = static_cast<Cycles>(
            trace.qosScale * workload::qosMultiplier(trace.qos) *
            iso1[id]);
    }

    // Both predictor variants replay the identical mutated trace as
    // parameterized policy specs on the sweep engine.
    auto shared_specs =
        std::make_shared<const std::vector<sim::JobSpec>>(
            std::move(specs));
    std::vector<exp::SweepCell> grid;
    for (const auto &spec : predictor_specs) {
        exp::SweepCell cell;
        cell.label = spec;
        cell.policy = spec;
        cell.trace = trace;
        cell.soc = cfg;
        cell.specs = shared_specs;
        grid.push_back(std::move(cell));
    }
    const exp::SweepRunner runner(exp::sweepOptionsFromArgs(args));
    const auto results = runner.run(grid);

    Table t2({"Predictor", "SLA (all)", "SLA (pruned jobs)",
              "SLA (dense jobs)", "STP"});
    for (std::size_t v = 0; v < grid.size(); ++v) {
        // C_single per job depends on whether it ran pruned; use a
        // per-kind oracle keyed on the base network with the sparse
        // latency for even ids (matching the substitution above).
        std::vector<sim::JobResult> sparse_jobs, dense_jobs;
        for (const auto &r : results[v].jobs) {
            if (r.spec.id % 2 == 0)
                sparse_jobs.push_back(r);
            else
                dense_jobs.push_back(r);
        }
        const auto m_sparse = metrics::computeMetrics(
            sparse_jobs, [&](dnn::ModelId id) {
                return static_cast<Cycles>(
                    iso8[static_cast<std::size_t>(id)]);
            });
        const auto m_dense = metrics::computeMetrics(
            dense_jobs, [&](dnn::ModelId id) {
                return exp::isolatedLatency(id, cfg.numTiles, cfg);
            });
        const std::size_t total =
            sparse_jobs.size() + dense_jobs.size();
        const double sla =
            (m_sparse.slaRate * sparse_jobs.size() +
             m_dense.slaRate * dense_jobs.size()) /
            std::max<std::size_t>(1, total);
        t2.row().cell(grid[v].label)
            .cell(sla, 3)
            .cell(m_sparse.slaRate, 3)
            .cell(m_dense.slaRate, 3)
            .cell(m_sparse.stp + m_dense.stp, 2);
    }
    t2.print("MoCA on a mixed dense/25%-density deployment "
             "(Workload-B, QoS-M)");
    return 0;
}
