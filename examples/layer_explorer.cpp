/**
 * @file
 * Model-zoo characterization tool: per-network summaries (layers,
 * blocks, parameters, MACs, arithmetic intensity), the per-block
 * compute/memory balance that drives the MoCA runtime's decisions,
 * and predicted isolated latency across tile counts.
 *
 * Usage: layer_explorer [model=resnet50] — pass a model name to dump
 * its per-block detail; without arguments prints the zoo summary.
 */

#include <cstdio>

#include "common/argparse.h"
#include "common/log.h"
#include "common/table.h"
#include "dnn/model_zoo.h"
#include "moca/runtime/latency_model.h"
#include "sim/compute_model.h"

using namespace moca;

namespace {

void
printZooSummary(const sim::SocConfig &cfg)
{
    runtime::LatencyModel model(cfg);
    Table t({"Model", "Set", "Layers", "Blocks", "Params (MB)",
             "MACs (G)", "MACs/byte", "Pred 1T (Mcyc)",
             "Pred 8T (Mcyc)", "Avg BW (B/cyc)"});
    for (dnn::ModelId id : dnn::allModelIds()) {
        const dnn::Model &m = dnn::getModel(id);
        double total_bytes = 0.0;
        for (const auto &l : m.layers())
            total_bytes += static_cast<double>(
                l.weightBytes() + l.inputBytes() + l.outputBytes());
        t.row().cell(m.name())
            .cell(m.size() == dnn::ModelSize::Light ? "A (light)"
                                                    : "B (heavy)")
            .cell(static_cast<long long>(m.numLayers()))
            .cell(static_cast<long long>(m.numBlocks()))
            .cell(static_cast<double>(m.totalWeightBytes()) / 1e6, 2)
            .cell(static_cast<double>(m.totalMacs()) / 1e9, 2)
            .cell(static_cast<double>(m.totalMacs()) / total_bytes, 1)
            .cell(model.estimateModel(m, 1) / 1e6, 2)
            .cell(model.estimateModel(m, 8) / 1e6, 2)
            .cell(model.estimateAvgBw(m, 2), 2);
    }
    t.print("Model zoo (paper Table III networks)");
}

void
printModelDetail(dnn::ModelId id, const sim::SocConfig &cfg)
{
    runtime::LatencyModel model(cfg);
    const dnn::Model &m = dnn::getModel(id);

    Table t({"Block", "Layers", "MACs (M)", "Pred 2T (Kcyc)",
             "DRAM (KB)", "L2 (KB)", "BW (B/cyc)", "Class"});
    const auto &blocks = m.blocks();
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        const auto est = model.estimateBlock(m, b, 2);
        const bool hungry = est.bwRate() > 0.5 * cfg.dramBytesPerCycle;
        std::string layers = m.layer(blocks[b].first).name;
        if (blocks[b].count > 1)
            layers += " .. " +
                m.layer(blocks[b].first + blocks[b].count - 1).name;
        t.row().cell(static_cast<long long>(b)).cell(layers)
            .cell(static_cast<double>(blocks[b].macs) / 1e6, 1)
            .cell(est.prediction / 1e3, 1)
            .cell(static_cast<double>(est.fromDram) / 1e3, 0)
            .cell(static_cast<double>(est.totalMem) / 1e3, 0)
            .cell(est.bwRate(), 2)
            .cell(hungry ? "MEM-hungry" : "compute");
    }
    t.print(strprintf("%s: layer blocks as the MoCA runtime sees them",
                      m.name().c_str()));
}

} // namespace

int
main(int argc, char **argv)
{
    ArgMap args(argc, argv);
    const std::string which = args.getString("model", "alexnet");
    args.requireAllRead();
    const sim::SocConfig cfg;

    printZooSummary(cfg);
    std::printf("\n");
    printModelDetail(dnn::modelIdFromName(which), cfg);
    std::printf("\n(pass model=<name> for another network: "
                "squeezenet yolo-lite kws googlenet alexnet resnet50 "
                "yolov2)\n");
    return 0;
}
