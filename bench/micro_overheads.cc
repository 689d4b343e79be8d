/**
 * @file
 * Micro-benchmarks (google-benchmark) backing the paper's
 * "lightweight" claims: the runtime's Algorithm 1/2 computations and
 * the Algorithm 3 scheduling round must be cheap enough to run at
 * layer-block boundaries without observable overhead (Sec. IV-A:
 * "implemented in software with little overhead observed"), and the
 * hardware reconfiguration path costs 5-10 cycles versus ~1M-cycle
 * thread migrations (Sec. V-A).  Also measures the sweep engine's
 * task-dispatch overhead, which must stay negligible relative to a
 * scenario cell for `--jobs N` parallelism to pay off.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "baselines/compute_estimator.h"
#include "common/rng.h"
#include "dnn/model_zoo.h"
#include "exp/sweep/sweep.h"
#include "mem/memory_model.h"
#include "moca/hw/throttle_engine.h"
#include "moca/runtime/contention_manager.h"
#include "moca/runtime/latency_model.h"
#include "moca/sched/scheduler.h"
#include "sim/arbiter.h"

using namespace moca;

namespace {

const sim::SocConfig kCfg;

void
BM_Alg1_EstimateLayer(benchmark::State &state)
{
    runtime::LatencyModel model(kCfg);
    const auto &net = dnn::getModel(dnn::ModelId::ResNet50);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            model.estimateLayer(net.layer(i), 2));
        i = (i + 1) % net.numLayers();
    }
}
BENCHMARK(BM_Alg1_EstimateLayer);

void
BM_Alg1_EstimateModel(benchmark::State &state)
{
    runtime::LatencyModel model(kCfg);
    const auto &net = dnn::getModel(
        static_cast<dnn::ModelId>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(model.estimateModel(net, 2));
    state.SetLabel(net.name());
}
BENCHMARK(BM_Alg1_EstimateModel)
    ->DenseRange(0, 6, 1);

void
BM_Alg2_ContentionDecision(benchmark::State &state)
{
    runtime::ContentionManager cm(kCfg);
    const int corunners = static_cast<int>(state.range(0));
    // Pre-populate co-runner scoreboard entries.
    for (int j = 1; j <= corunners; ++j) {
        runtime::JobSnapshot co;
        co.appId = j;
        co.model = &dnn::getModel(dnn::ModelId::AlexNet);
        co.nextLayer = 0;
        co.numTiles = 2;
        co.userPriority = j % 12;
        co.slackCycles = 1e6;
        cm.onBlockBoundary(co);
    }
    runtime::JobSnapshot snap;
    snap.appId = 0;
    snap.model = &dnn::getModel(dnn::ModelId::ResNet50);
    snap.nextLayer = 10;
    snap.numTiles = 2;
    snap.userPriority = 5;
    snap.slackCycles = 2e6;
    for (auto _ : state)
        benchmark::DoNotOptimize(cm.onBlockBoundary(snap));
}
BENCHMARK(BM_Alg2_ContentionDecision)->Arg(1)->Arg(3)->Arg(7);

void
BM_Alg3_SchedulingRound(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(7);
    std::vector<sched::SchedTask> queue(n);
    for (std::size_t i = 0; i < n; ++i) {
        queue[i].id = static_cast<int>(i);
        queue[i].priority = static_cast<int>(rng.uniformInt(0, 11));
        queue[i].dispatched = static_cast<Cycles>(
            rng.uniformInt(0, 1'000'000));
        queue[i].estimatedTime = rng.uniform(1e5, 1e7);
        queue[i].estimatedAvgBw = rng.uniform(0.0, 16.0);
    }
    sched::MocaScheduler sched(sched::SchedulerConfig{},
                               kCfg.dramBytesPerCycle);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            sched.selectGroup(queue, 2'000'000, 4));
}
BENCHMARK(BM_Alg3_SchedulingRound)->Arg(8)->Arg(64)->Arg(512);

void
BM_ThrottleEngine_Advance(benchmark::State &state)
{
    hw::ThrottleEngine engine;
    engine.configure({4096, 1024});
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.advance(512, 512));
}
BENCHMARK(BM_ThrottleEngine_Advance);

void
BM_Arbiter_MaxMin(benchmark::State &state)
{
    // The flat memory model's DRAM path: a max-min water-fill
    // straight from the SoC's requests into the grant buffer.
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<mem::MemRequest> requests(n);
    Rng rng(3);
    for (auto &r : requests) {
        r.dramBytes = rng.uniform(0.0, 8192.0);
        r.weight = rng.uniform(1.0, 8.0);
    }
    std::vector<mem::MemGrant> grants(n);
    std::vector<char> done;
    for (auto _ : state) {
        sim::maxMinFill(
            n, 8192.0,
            [&](std::size_t i) { return requests[i].dramBytes; },
            [&](std::size_t i) { return requests[i].weight; },
            [&](std::size_t i) -> double & {
                return grants[i].dramBytes;
            },
            done);
        benchmark::DoNotOptimize(grants.data());
    }
}
BENCHMARK(BM_Arbiter_MaxMin)->Arg(4)->Arg(8);

void
BM_SweepEngine_RunIndexed(benchmark::State &state)
{
    // Pool spawn + work-queue dispatch cost for an n-task sweep with
    // trivial cells: the fixed overhead `--jobs N` must amortize.
    const auto n = static_cast<std::size_t>(state.range(0));
    std::atomic<std::uint64_t> sink{0};
    for (auto _ : state) {
        exp::SweepRunner::runIndexed(n, 2, [&](std::size_t i) {
            sink.fetch_add(i, std::memory_order_relaxed);
        });
    }
    benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_SweepEngine_RunIndexed)->Arg(16)->Arg(256);

void
BM_ComputeOnlyEstimate(benchmark::State &state)
{
    const auto &net = dnn::getModel(dnn::ModelId::YoloV2);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            baselines::computeOnlyEstimate(net, 8, kCfg));
}
BENCHMARK(BM_ComputeOnlyEstimate);

} // namespace

BENCHMARK_MAIN();
