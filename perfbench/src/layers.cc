#include "layers.h"

#include <memory>
#include <mutex>
#include <utility>

#include "cluster/dispatcher.h"
#include "common/walltime.h"
#include "exp/registry.h"
#include "mem/memory_model.h"
#include "serve/admission.h"
#include "sim/soc.h"

namespace perfbench {

using namespace moca;

const char *const kAdmissionSpec = "queue-cap:depth=8";

LayerTotals &
LayerTotals::operator+=(const LayerTotals &o)
{
    memCalls += o.memCalls;
    memSec += o.memSec;
    policyCalls += o.policyCalls;
    policySec += o.policySec;
    throttleReconfigs += o.throttleReconfigs;
    migrations += o.migrations;
    preemptions += o.preemptions;
    dispatchCalls += o.dispatchCalls;
    dispatchSec += o.dispatchSec;
    admissionCalls += o.admissionCalls;
    admissionSec += o.admissionSec;
    return *this;
}

namespace {

std::mutex g_mu;
LayerTotals g_totals;

/** Base of every wrapper: owns the instance counters and folds them
 *  into the process totals on destruction. */
class Counted
{
  public:
    Counted(const Counted &) = delete;
    Counted &operator=(const Counted &) = delete;

  protected:
    Counted() = default;
    ~Counted()
    {
        std::lock_guard<std::mutex> lock(g_mu);
        g_totals += local_;
    }

    LayerTotals local_;
};

class TimedMemoryModel final : public mem::MemoryModel, Counted
{
  public:
    explicit TimedMemoryModel(std::unique_ptr<mem::MemoryModel> inner)
        : inner_(std::move(inner))
    {
    }

    const char *name() const override { return inner_->name(); }

    const std::vector<mem::MemGrant> &
    arbitrate(const std::vector<mem::MemRequest> &requests,
              Cycles horizon, mem::MemStepStats &stats) override
    {
        WallTimer t;
        const auto &grants = inner_->arbitrate(requests, horizon, stats);
        local_.memSec += t.seconds();
        ++local_.memCalls;
        traffic_ = inner_->traffic();
        return grants;
    }

    Cycles cyclesUntilNextChange() const override
    {
        return inner_->cyclesUntilNextChange();
    }

  private:
    std::unique_ptr<mem::MemoryModel> inner_;
};

class TimedPolicy final : public sim::Policy, Counted
{
  public:
    explicit TimedPolicy(std::unique_ptr<sim::Policy> inner)
        : inner_(std::move(inner))
    {
    }

    const char *name() const override { return inner_->name(); }

    void schedule(sim::Soc &soc, sim::SchedEvent event) override
    {
        WallTimer t;
        inner_->schedule(soc, event);
        lap(t);
    }

    void onBlockBoundary(sim::Soc &soc, int id) override
    {
        WallTimer t;
        inner_->onBlockBoundary(soc, id);
        lap(t);
    }

    void onJobComplete(sim::Soc &soc, int id) override
    {
        WallTimer t;
        inner_->onJobComplete(soc, id);
        lap(t);
        const sim::Job &job = soc.job(id);
        local_.throttleReconfigs += job.throttle.stats().reconfigurations;
        local_.migrations += static_cast<std::uint64_t>(job.migrations);
        local_.preemptions += static_cast<std::uint64_t>(job.preemptions);
    }

  private:
    void lap(const WallTimer &t)
    {
        local_.policySec += t.seconds();
        ++local_.policyCalls;
    }

    std::unique_ptr<sim::Policy> inner_;
};

class TimedDispatcher final : public cluster::Dispatcher, Counted
{
  public:
    explicit TimedDispatcher(std::unique_ptr<cluster::Dispatcher> inner)
        : inner_(std::move(inner))
    {
    }

    const char *name() const override { return inner_->name(); }

    int place(const cluster::ClusterTask &task,
              const std::vector<cluster::SocLoad> &socs) override
    {
        WallTimer t;
        const int k = inner_->place(task, socs);
        local_.dispatchSec += t.seconds();
        ++local_.dispatchCalls;
        return k;
    }

  private:
    std::unique_ptr<cluster::Dispatcher> inner_;
};

class TimedAdmission final : public serve::AdmissionPolicy, Counted
{
  public:
    explicit TimedAdmission(std::unique_ptr<serve::AdmissionPolicy> inner)
        : inner_(std::move(inner))
    {
    }

    const char *name() const override { return inner_->name(); }

    serve::AdmissionDecision
    decide(const cluster::ClusterTask &task, Cycles now,
           const std::vector<cluster::SocLoad> &up_socs) override
    {
        WallTimer t;
        const auto d = inner_->decide(task, now, up_socs);
        local_.admissionSec += t.seconds();
        ++local_.admissionCalls;
        return d;
    }

  private:
    std::unique_ptr<serve::AdmissionPolicy> inner_;
};

std::string
describe(const std::string &inner)
{
    return "benchmark timing wrapper around '" + inner + "'";
}

const mem::MemoryModelRegistrar kTimedFlat({
    timed("flat"), describe("flat"), {},
    [](const sim::SocConfig &cfg, const mem::MemSpec &) {
        return std::unique_ptr<mem::MemoryModel>(new TimedMemoryModel(
            mem::MemoryModelRegistry::instance().make("flat", cfg)));
    }});

const exp::PolicyRegistrar kTimedMoca({
    timed("moca"), describe("moca"), {},
    [](const sim::SocConfig &cfg, const exp::PolicySpec &) {
        return std::unique_ptr<sim::Policy>(new TimedPolicy(
            exp::PolicyRegistry::instance().make("moca", cfg)));
    }});

cluster::DispatcherInfo
timedDispatcher(const std::string &inner)
{
    return {timed(inner), describe(inner), {},
            [inner](int num_socs, std::uint64_t seed,
                    const cluster::DispatcherSpec &) {
                return std::unique_ptr<cluster::Dispatcher>(
                    new TimedDispatcher(
                        cluster::DispatcherRegistry::instance().make(
                            inner, num_socs, seed)));
            }};
}

const cluster::DispatcherRegistrar kTimedRr(timedDispatcher("rr"));
const cluster::DispatcherRegistrar kTimedP2c(timedDispatcher("p2c"));

const serve::AdmissionRegistrar kTimedQueueCap({
    timed("queue-cap"), describe(kAdmissionSpec), {},
    [](const serve::AdmissionSpec &) {
        return std::unique_ptr<serve::AdmissionPolicy>(new TimedAdmission(
            serve::AdmissionRegistry::instance().make(kAdmissionSpec)));
    }});

} // namespace

LayerTotals
takeLayerTotals()
{
    std::lock_guard<std::mutex> lock(g_mu);
    return std::exchange(g_totals, LayerTotals{});
}

} // namespace perfbench
