/**
 * @file
 * moca_perfbench: runs one benchmark workload for a fixed time and
 * prints its metrics.
 *
 *   moca_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--commit SHA]
 *
 * One run repeats the workload until S seconds have passed (at least
 * kMinReps times), each repetition on its own inputs derived from the
 * seed, and reports medians over the repetitions.  Every repetition
 * is checked: all tasks complete, SLA is in [0, 1] and STP is
 * positive; repetition 0 must simulate exactly what the warm-up run
 * of the same inputs simulated.  A failed check counts as a failed
 * operation.
 *
 * --trace 0 prints the end-to-end metrics.  --trace 1 alternates
 * plain and traced repetitions (layers wrapped by layers.h, PDES
 * phase profile on), checks that they simulate the same thing, and
 * prints the per-layer metrics; on fleet-rr it also replays the
 * stream on one PDES worker.  The last line of standard output is
 * the result object.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/walltime.h"
#include "exp/sweep/sweep.h"
#include "metrics.h"
#include "workloads.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif

using namespace perfbench;
using moca::WallTimer;

namespace {

constexpr int kMinReps = 3;

/** Set-ups timed per repetition: set-up takes milliseconds, so it is
 *  sampled more often than the simulation. */
constexpr int kSetupsPerRep = 5;

/** Input size of the kernel-fidelity probe of the single-kernel
 *  workloads, as a share of their full size. */
double
probeScale(const std::string &workload)
{
    return workload == "serve-churn" ? 0.25 : 0.1;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Peak resident set of this process image, in MiB.  VmHWM, unlike
 *  getrusage's ru_maxrss, does not carry over the high-water mark of
 *  the process that exec'd this one. */
double
peakRssMiB()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    long kib = 0;
    while (std::fgets(line, sizeof line, f))
        if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1)
            break;
    std::fclose(f);
    return static_cast<double>(kib) / 1024.0;
}

/** Attempted/failed operation counts of one benchmark run. */
struct Tally
{
    long attempted = 0;
    long failed = 0;

    /** Count one operation: `o` must pass the output checks and
     *  simulate exactly what `ref` simulated. */
    void check(const Outcome &o, const Outcome &ref, const char *what)
    {
        ++attempted;
        std::string err = checkOutcome(o);
        if (err.empty() && !o.sameSimulation(ref))
            err = "simulated results differ from the reference run";
        if (!err.empty()) {
            ++failed;
            std::fprintf(stderr, "check failed (%s): %s\n", what,
                         err.c_str());
        }
    }
};

/** Median over `runs` of `field(run)`. */
template <typename F>
double
medianOf(const std::vector<Outcome> &runs, F field)
{
    std::vector<double> v;
    for (const auto &o : runs)
        v.push_back(field(o));
    return median(v);
}

/** Host time of the SoC kernels in one run: the PDES shard advance on
 *  the fleet workloads, the whole simulation on the soc-* ones. */
double
kernelSec(const Outcome &o)
{
    return o.epochs > 0 ? o.shardAdvanceSec : o.runSec;
}

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0.0;
}

/** Inputs of repetition `rep`: every repetition draws its own trace,
 *  so one run's medians average over many inputs of the workload, and
 *  the same seed always yields the same sequence of inputs. */
RunParams
repetition(RunParams p, std::size_t rep)
{
    p.seed = moca::exp::deriveCellSeed(p.seed, rep);
    return p;
}

MetricSet
endToEnd(const std::string &workload, const RunParams &p,
         double seconds, Tally &tally)
{
    // The warm-up runs repetition 0's inputs; repetition 0 itself must
    // then simulate exactly the same thing.
    const Outcome ref = runWorkload(workload, repetition(p, 0));
    tally.check(ref, ref, "warm-up");
    std::vector<Outcome> reps;
    std::vector<double> setups;
    WallTimer budget;
    for (std::size_t rep = 0;
         budget.seconds() < seconds || rep < kMinReps; ++rep) {
        const RunParams rp = repetition(p, rep);
        const Outcome o = runWorkload(workload, rp);
        tally.check(o, rep == 0 ? ref : o, "repetition");
        reps.push_back(o);
        setups.push_back(o.setupSec);
        RunParams setup_only = rp;
        setup_only.setupOnly = true;
        for (int i = 1; i < kSetupsPerRep; ++i)
            setups.push_back(runWorkload(workload, setup_only).setupSec);
    }
    MetricSet m;
    m.set("cpu_s", medianOf(reps, [](const Outcome &o) { return o.cpuSec; }));
    m.set("setup_s", median(setups));
    m.set("peak_rss_mb", peakRssMiB());
    std::printf("# %s: %zu repetitions; repetition 0: %llu tasks, "
                "SLA %.6f, STP %.6f, kernel steps %llu; median wall "
                "throughput %.1f tasks/s\n",
                workload.c_str(), reps.size(),
                static_cast<unsigned long long>(ref.simulated), ref.sla,
                ref.stp, static_cast<unsigned long long>(ref.steps),
                medianOf(reps, [](const Outcome &o) {
                    return static_cast<double>(o.simulated) / o.runSec;
                }));
    std::printf("# cpu_s per repetition:");
    for (const auto &o : reps)
        std::printf(" %.4f", o.cpuSec);
    std::printf("\n");
    if (workload == "soc-fidelity")
        std::printf("# soc-fidelity: sla_err %.6f stp_err_pct %.4f "
                    "(event vs quantum kernel, mean over 9 cells, "
                    "repetition 0)\n",
                    ref.slaErr, ref.stpErrPct);
    return m;
}

MetricSet
perLayer(const std::string &workload, const RunParams &p,
         double seconds, Tally &tally)
{
    const bool fleet = workload == "fleet-rr";
    const Outcome ref = runWorkload(workload, repetition(p, 0));
    tally.check(ref, ref, "warm-up");
    // Each round runs one input plainly, traced and, on fleet-rr, on
    // one PDES worker; all three must simulate the same thing.
    std::vector<Outcome> plain, wrapped, single;
    WallTimer budget;
    for (std::size_t rep = 0;
         budget.seconds() < seconds || rep < kMinReps; ++rep) {
        const RunParams rp = repetition(p, rep);
        const Outcome a = runWorkload(workload, rp);
        tally.check(a, rep == 0 ? ref : a, "plain");
        plain.push_back(a);
        RunParams traced = rp;
        traced.timed = true;
        const Outcome b = runWorkload(workload, traced);
        tally.check(b, a, "traced");
        wrapped.push_back(b);
        if (fleet) {
            RunParams serial = rp;
            serial.jobs = 1;
            const Outcome c = runWorkload(workload, serial);
            tally.check(c, a, "one PDES worker");
            single.push_back(c);
        }
    }

    // Kernel fidelity: soc-fidelity measures it on its own grid; the
    // other workloads replay a smaller copy of themselves on the
    // quantum reference kernel.
    double sla_err = ref.slaErr, stp_err_pct = ref.stpErrPct;
    if (workload != "soc-fidelity") {
        RunParams pe = repetition(p, 0);
        pe.scale = probeScale(workload);
        RunParams pq = pe;
        pq.kernel = moca::sim::SimKernel::Quantum;
        const Outcome e = runWorkload(workload, pe);
        const Outcome q = runWorkload(workload, pq);
        tally.check(e, e, "fidelity probe, event kernel");
        tally.check(q, q, "fidelity probe, quantum kernel");
        sla_err = std::fabs(e.sla - q.sla);
        stp_err_pct = 100.0 * std::fabs(e.stp - q.stp) / q.stp;
    }

    // Counters are those of repetition 0's inputs, like `ref`; times
    // are medians over the traced repetitions.
    const LayerTotals &l = wrapped.front().layers;
    const auto med = [&](auto field) { return medianOf(wrapped, field); };
    const double mem_s = med([](const Outcome &o) { return o.layers.memSec; });
    const double policy_s =
        med([](const Outcome &o) { return o.layers.policySec; });
    const double dispatch_s =
        med([](const Outcome &o) { return o.layers.dispatchSec; });
    const double admission_s =
        med([](const Outcome &o) { return o.layers.admissionSec; });
    const double advance_s =
        med([](const Outcome &o) { return o.shardAdvanceSec; });
    const double wait_s =
        med([](const Outcome &o) { return o.barrierWaitSec; });
    const double coord_s =
        med([](const Outcome &o) { return o.coordinatorSec; });
    const auto wall = [](const Outcome &o) { return o.runSec; };

    MetricSet m;
    m.set("sim.steps", static_cast<double>(ref.steps));
    m.set("sim.ns_per_step", 1e9 * med([](const Outcome &o) {
        return ratio(kernelSec(o), static_cast<double>(o.steps));
    }));
    m.set("sim.self_s", med([](const Outcome &o) {
        return std::max(0.0, kernelSec(o) - o.layers.memSec -
                                 o.layers.policySec);
    }));
    m.set("sim.sla_err", sla_err);
    m.set("sim.stp_err_pct", stp_err_pct);
    m.set("mem.arbitrate_calls", static_cast<double>(l.memCalls));
    m.set("mem.arbitrate_s", mem_s);
    m.set("mem.ns_per_arbitrate", 1e9 * med([](const Outcome &o) {
        return ratio(o.layers.memSec,
                     static_cast<double>(o.layers.memCalls));
    }));
    m.set("policy.calls", static_cast<double>(l.policyCalls));
    m.set("policy.s", policy_s);
    m.set("policy.throttle_reconfigs",
          static_cast<double>(l.throttleReconfigs));
    m.set("policy.migrations", static_cast<double>(l.migrations));
    m.set("policy.preemptions", static_cast<double>(l.preemptions));
    m.set("pdes.epochs", static_cast<double>(ref.epochs));
    m.set("pdes.shard_advance_s", advance_s);
    m.set("pdes.barrier_wait_s", wait_s);
    m.set("pdes.dispatch_s", coord_s);
    m.set("pdes.barrier_share", med([](const Outcome &o) {
        return ratio(o.barrierWaitSec,
                     o.barrierWaitSec + o.shardAdvanceSec);
    }));
    m.set("pdes.speedup", fleet ? ratio(medianOf(single, wall),
                                        medianOf(plain, wall))
                                : 0.0);
    m.set("dispatch.calls", static_cast<double>(l.dispatchCalls));
    m.set("dispatch.s", dispatch_s);
    const bool serve = workload == "serve-churn";
    m.set("serve.requests", static_cast<double>(ref.requests));
    m.set("serve.attempts", static_cast<double>(ref.attempts));
    m.set("serve.responses", static_cast<double>(ref.responses));
    m.set("serve.retries", static_cast<double>(ref.retries));
    m.set("serve.timeouts", static_cast<double>(ref.timeouts));
    m.set("serve.requeued", static_cast<double>(ref.requeued));
    m.set("serve.orphans", static_cast<double>(ref.orphans));
    m.set("serve.useful_ratio",
          ratio(static_cast<double>(ref.responses),
                static_cast<double>(ref.attempts)));
    m.set("admission.calls", static_cast<double>(l.admissionCalls));
    m.set("admission.s", admission_s);
    // The front end's own time: coordinator time outside the
    // dispatcher and admission calls.
    m.set("serve.coordinator_s",
          serve ? std::max(0.0, coord_s - dispatch_s - admission_s) : 0.0);
    m.set("setup.trace_s",
          medianOf(plain, [](const Outcome &o) { return o.setupSec; }));
    m.set("setup.tasks", static_cast<double>(ref.submitted));
    m.set("trace.overhead_pct",
          100.0 * (medianOf(wrapped, wall) / medianOf(plain, wall) - 1.0));
    return m;
}

const char *
argValue(int argc, char **argv, const char *flag, const char *fallback)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return argv[i + 1];
    return fallback;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string workload = argValue(argc, argv, "--workload", "");
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), workload) == names.end()) {
        std::fprintf(stderr,
                     "usage: moca_perfbench --workload NAME --seed N "
                     "--seconds S --trace 0|1 [--commit SHA]\n"
                     "workloads:");
        for (const auto &n : names)
            std::fprintf(stderr, " %s", n.c_str());
        std::fprintf(stderr, "\n");
        return 2;
    }
    RunParams p;
    p.seed = std::strtoull(argValue(argc, argv, "--seed", "1"), nullptr,
                           10);
    const double seconds =
        std::atof(argValue(argc, argv, "--seconds", "10"));
    const bool trace =
        std::strcmp(argValue(argc, argv, "--trace", "0"), "0") != 0;

    std::printf("# meta {\"workload\": \"%s\", \"seed\": %llu, "
                "\"trace\": %d, \"nproc\": %u, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"flags\": \"%s\", "
                "\"commit\": \"%s\"}\n",
                workload.c_str(), static_cast<unsigned long long>(p.seed),
                trace ? 1 : 0, std::thread::hardware_concurrency(),
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, PERFBENCH_FLAGS,
                argValue(argc, argv, "--commit", "unknown"));

    Tally tally;
    const MetricSet m = trace ? perLayer(workload, p, seconds, tally)
                              : endToEnd(workload, p, seconds, tally);
    std::printf("%s\n",
                resultJson(tally.failed == 0, tally.attempted,
                           tally.failed, m)
                    .c_str());
    std::fflush(stdout);
    return 0;
}
