/**
 * @file
 * Execution-timeline viewer: runs a small co-location under MoCA with
 * the trace recorder enabled and prints each job's lifecycle — when
 * it was dispatched, placed on tiles, crossed layer-block boundaries,
 * had its throttle reprogrammed, was resized, and completed.  Useful
 * for seeing the runtime's reactions (windows appearing when the
 * AlexNet jobs reach their FC blocks) rather than just the aggregate
 * metrics.
 *
 * Usage: timeline [--policy SPEC] — any registry spec works, e.g.
 *        --policy prema or --policy moca:tick=2048
 */

#include <cstdio>

#include "common/argparse.h"
#include "dnn/model_zoo.h"
#include "exp/scenario.h"
#include "sim/soc.h"

using namespace moca;

int
main(int argc, char **argv)
{
    ArgMap args(argc, argv);
    const std::string which = args.getString("policy", "moca");
    args.requireAllRead();

    sim::SocConfig cfg;
    auto policy = exp::makePolicy(which, cfg);
    sim::Soc soc(cfg, *policy);
    soc.trace().enable();

    struct Request
    {
        dnn::ModelId model;
        Cycles dispatch;
        int priority;
    };
    const Request reqs[] = {
        {dnn::ModelId::AlexNet, 0, 2},
        {dnn::ModelId::SqueezeNet, 200'000, 9},
        {dnn::ModelId::AlexNet, 400'000, 0},
        {dnn::ModelId::GoogleNet, 600'000, 6},
        {dnn::ModelId::Kws, 3'000'000, 11},
    };
    int id = 0;
    for (const auto &r : reqs) {
        sim::JobSpec s;
        s.id = id++;
        s.model = &dnn::getModel(r.model);
        s.dispatch = r.dispatch;
        s.priority = r.priority;
        s.slaLatency = 40'000'000;
        soc.addJob(s);
    }
    soc.run();

    std::printf("timeline under %s (cycles in K):\n\n",
                which.c_str());
    for (int j = 0; j < id; ++j) {
        const auto &job = soc.job(j);
        std::printf("-- job %d: %s (priority %d, dispatched %.0fK)\n",
                    j, job.spec.model->name().c_str(),
                    job.spec.priority,
                    static_cast<double>(job.spec.dispatch) / 1e3);
        int throttle_cfgs = 0;
        for (const auto &e : soc.trace().forJob(j)) {
            // Collapse the (frequent) throttle reprogramming into a
            // summary; print everything else.
            if (e.kind == sim::TraceEventKind::ThrottleConfig) {
                ++throttle_cfgs;
                if (throttle_cfgs <= 3 && e.value > 0) {
                    std::printf("   %10.1fK  throttle window=%lld\n",
                                static_cast<double>(e.cycle) / 1e3,
                                e.value);
                }
                continue;
            }
            if (e.kind == sim::TraceEventKind::BlockBoundary)
                continue; // too chatty for the demo
            std::printf("   %10.1fK  %-9s %lld\n",
                        static_cast<double>(e.cycle) / 1e3,
                        sim::traceEventKindName(e.kind), e.value);
        }
        if (throttle_cfgs > 3)
            std::printf("   ... %d throttle reconfigurations total\n",
                        throttle_cfgs);
    }

    std::printf("\nper-job outcome:\n");
    for (const auto &r : soc.results()) {
        std::printf("  job %d %-11s latency %7.1fK  (SLA %s)\n",
                    r.spec.id, r.spec.model->name().c_str(),
                    static_cast<double>(r.latency()) / 1e3,
                    r.slaMet() ? "met" : "missed");
    }
    return 0;
}
