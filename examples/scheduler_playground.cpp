/**
 * @file
 * Step-by-step walk through the MoCA decision stack on a synthetic
 * situation, showing exactly what Algorithms 2 and 3 compute:
 *
 *  1. A task queue with mixed priorities, ages, and memory
 *     intensities is scored and a co-running group is formed
 *     (Algorithm 3, including the mem/non-mem pairing).
 *  2. The selected jobs hit layer-block boundaries; Algorithm 2
 *     estimates each block, detects bandwidth overflow, computes
 *     dynamic priority scores, and programs per-tile throttle
 *     windows.  The scoreboard state is printed at each step.
 *  3. A *user-registered* toy policy shows the open policy registry:
 *     define a sim::Policy, register it once with PolicyRegistrar,
 *     and it becomes addressable by spec string in this binary.  A
 *     PolicyRegistrar registers only in the binary that links it; a
 *     policy every bench's --policy flag should see belongs in
 *     registerBuiltins in src/exp/registry.cc.
 */

#include <cstdio>

#include "common/argparse.h"
#include "common/log.h"
#include "common/table.h"
#include "dnn/model_zoo.h"
#include "exp/registry.h"
#include "exp/sweep/sweep.h"
#include "moca/runtime/contention_manager.h"
#include "moca/sched/scheduler.h"
#include "sim/soc.h"

using namespace moca;

namespace {

/**
 * Toy mechanism: admit jobs strictly in arrival order onto a fixed
 * tile count, never preempt, never throttle.  Deliberately naive —
 * the point is how little code a new registered policy needs.
 */
class FifoPolicy : public sim::Policy
{
  public:
    explicit FifoPolicy(int tiles) : tiles_(tiles) {}

    const char *name() const override { return "fifo"; }

    void schedule(sim::Soc &soc, sim::SchedEvent) override
    {
        // startJob erases from the live waiting set; iterate a copy.
        const std::vector<int> waiting = soc.waitingJobs();
        for (int id : waiting) {
            if (soc.freeTiles() < tiles_)
                break;
            soc.startJob(id, tiles_);
        }
    }

  private:
    int tiles_;
};

/**
 * One-time registration: name, description, parameter schema, and a
 * factory applying the parsed spec parameters.  From here on
 * "fifo" / "fifo:tiles=4" is a valid policy spec in this binary.
 */
const exp::PolicyRegistrar fifoRegistrar({
    "fifo",
    "toy example policy: FCFS onto a fixed tile count "
    "(examples/scheduler_playground.cpp)",
    {{"tiles", "int", "2", "tiles each admitted job runs on"}},
    [](const sim::SocConfig &cfg, const exp::PolicySpec &spec) {
        int tiles = 2;
        for (const auto &[key, value] : spec.params)
            if (key == "tiles")
                tiles = static_cast<int>(
                    parseIntValue("fifo:tiles", value));
        if (tiles < 1 || tiles > cfg.numTiles)
            fatal("fifo: tiles must be in [1, %d]", cfg.numTiles);
        return std::make_unique<FifoPolicy>(tiles);
    },
});

} // namespace

int
main()
{
    const sim::SocConfig cfg;
    runtime::LatencyModel model(cfg);

    // ---- Algorithm 3: one scheduling round ---------------------------
    std::printf("== Algorithm 3: scheduling round ==\n\n");

    struct QueueEntry
    {
        const char *name;
        dnn::ModelId model;
        int priority;
        Cycles waited;
    };
    const QueueEntry entries[] = {
        {"eye-tracking", dnn::ModelId::Kws, 11, 200'000},
        {"photo-index", dnn::ModelId::ResNet50, 0, 9'000'000},
        {"detector", dnn::ModelId::YoloV2, 6, 1'000'000},
        {"classifier", dnn::ModelId::AlexNet, 3, 4'000'000},
        {"background", dnn::ModelId::GoogleNet, 1, 500'000},
    };

    const Cycles now = 10'000'000;
    std::vector<sched::SchedTask> queue;
    sched::MocaScheduler scheduler(sched::SchedulerConfig{},
                                   cfg.dramBytesPerCycle);

    Table q({"Task", "Model", "Priority", "Waited (Mcyc)", "Score",
             "Avg BW", "Mem-intensive?"});
    int id = 0;
    for (const auto &e : entries) {
        sched::SchedTask t;
        t.id = id++;
        t.priority = e.priority;
        t.dispatched = now - e.waited;
        t.estimatedTime =
            model.estimateModel(dnn::getModel(e.model), 2);
        t.estimatedAvgBw =
            model.estimateAvgBw(dnn::getModel(e.model), 2);
        queue.push_back(t);
        q.row().cell(e.name).cell(dnn::modelIdName(e.model))
            .cell(static_cast<long long>(e.priority))
            .cell(static_cast<double>(e.waited) / 1e6, 1)
            .cell(sched::MocaScheduler::score(t, now), 2)
            .cell(t.estimatedAvgBw, 2)
            .cell(scheduler.isMemIntensive(t) ? "yes" : "no");
    }
    q.print("TaskQueue before the round");

    const auto group = scheduler.selectGroup(queue, now, 4);
    std::printf("\nselected co-running group (launch order): ");
    for (int g : group)
        std::printf("%s  ",
                    entries[static_cast<std::size_t>(g)].name);
    std::printf("\n  (memory-intensive picks are paired with "
                "compute-bound partners)\n\n");

    // ---- Algorithm 2: contention detection at block boundaries -------
    std::printf("== Algorithm 2: contention detection & HW update "
                "==\n\n");

    runtime::ContentionManager cm(cfg);
    Table a({"Step", "Job", "Demand (B/cyc)", "Score", "Contention?",
             "Alloc (B/cyc)", "Window (cyc)", "Threshold (beats)"});

    int step = 1;
    for (int g : group) {
        const auto &e = entries[static_cast<std::size_t>(g)];
        runtime::JobSnapshot snap;
        snap.appId = g;
        snap.model = &dnn::getModel(e.model);
        // Jobs sit at interesting block boundaries: AlexNet is about
        // to enter its memory-hungry fully-connected region.
        snap.nextLayer = 0;
        if (e.model == dnn::ModelId::AlexNet) {
            for (std::size_t i = 0; i < snap.model->numLayers(); ++i) {
                if (snap.model->layer(i).kind ==
                    dnn::LayerKind::Dense) {
                    snap.nextLayer = i;
                    break;
                }
            }
        }
        snap.numTiles = 2;
        snap.userPriority = e.priority;
        snap.slackCycles = 5e6;
        const auto d = cm.onBlockBoundary(snap);
        const auto &entry = cm.scoreboard().entry(g);
        a.row().cell(static_cast<long long>(step++)).cell(e.name)
            .cell(entry.bwRate, 2).cell(d.score, 2)
            .cell(d.contention ? "yes" : "no").cell(d.bwRate, 2)
            .cell(static_cast<long long>(d.hwConfig.windowCycles))
            .cell(static_cast<long long>(d.hwConfig.thresholdLoad));
    }
    a.print("Block-boundary reconfigurations (in admission order)");

    std::printf("\nscoreboard after the sweep:\n");
    for (const auto &[app, entry] : cm.scoreboard().entries()) {
        std::printf("  app %d (%s): demand %.2f B/cyc, score %.2f\n",
                    app, entries[static_cast<std::size_t>(app)].name,
                    entry.bwRate, entry.score);
    }
    std::printf("\nwindow = 0 means the job runs unthrottled "
                "(compute-bound or no overflow).\n");

    // ---- The open policy registry: a user-defined policy -------------
    std::printf("\n== Open policy registry: the toy 'fifo' policy "
                "==\n\n");
    std::printf("registered policies: ");
    for (const auto &name : exp::PolicyRegistry::instance().names())
        std::printf("%s ", name.c_str());
    std::printf("\n\n");

    workload::TraceConfig trace;
    trace.set = workload::WorkloadSet::C;
    trace.qos = workload::QosLevel::Medium;
    trace.numTasks = 40;
    trace.seed = 4;
    std::vector<exp::SweepCell> grid;
    exp::appendPolicyCells(grid, "fifo-vs-moca", {"fifo:tiles=2", "moca"},
                           trace, cfg);
    const auto results = exp::SweepRunner().run(grid);

    Table r({"Policy spec", "SLA", "STP", "Fairness"});
    for (const auto &res : results)
        r.row().cell(res.policy).cell(res.metrics.slaRate, 3)
            .cell(res.metrics.stp, 2).cell(res.metrics.fairness, 4);
    r.print("Toy policy vs MoCA on the identical trace");
    std::printf("\n'fifo' is a spec in this binary only; a policy every "
                "bench's --policy flag\nshould see belongs in "
                "registerBuiltins in src/exp/registry.cc\n");
    return 0;
}
