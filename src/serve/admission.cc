#include "serve/admission.h"

#include <algorithm>

#include "common/argparse.h"
#include "common/log.h"

namespace moca::serve {

namespace {

class AlwaysAdmit : public AdmissionPolicy
{
  public:
    const char *name() const override { return "always"; }

    AdmissionDecision
    decide(const cluster::ClusterTask &, Cycles,
           const std::vector<cluster::SocLoad> &) override
    {
        return AdmissionDecision::Admit;
    }
};

class QueueCapAdmit : public AdmissionPolicy
{
  public:
    QueueCapAdmit(int depth, bool defer)
        : depth_(depth), defer_(defer)
    {
    }

    const char *name() const override { return "queue-cap"; }

    AdmissionDecision
    decide(const cluster::ClusterTask &, Cycles,
           const std::vector<cluster::SocLoad> &up_socs) override
    {
        // Fleet-mean backlog: the cap scales with Up capacity, so a
        // fleet that lost half its SoCs to failures also halves the
        // work it lets in.
        long outstanding = 0;
        for (const auto &s : up_socs)
            outstanding += s.outstanding();
        if (outstanding <
            static_cast<long>(depth_) *
                static_cast<long>(up_socs.size()))
            return AdmissionDecision::Admit;
        return defer_ ? AdmissionDecision::Defer
                      : AdmissionDecision::Shed;
    }

  private:
    int depth_;
    bool defer_;
};

class SloBudgetAdmit : public AdmissionPolicy
{
  public:
    SloBudgetAdmit(double rate, double burst, bool per_soc)
        : rate_(rate), burst_(burst), perSoc_(per_soc),
          tokens_(burst)
    {
    }

    const char *name() const override { return "slo-budget"; }

    AdmissionDecision
    decide(const cluster::ClusterTask &, Cycles now,
           const std::vector<cluster::SocLoad> &up_socs) override
    {
        // Token bucket over the front-end clock: `rate` admissions
        // per Mcycle sustained (scaled by Up-SoC count when per_soc),
        // `burst` admissions of headroom.  The clock never runs
        // backwards — admission is consulted in arrival order.
        if (now > lastRefill_) {
            const double scale = perSoc_
                ? static_cast<double>(up_socs.size())
                : 1.0;
            tokens_ = std::min(
                burst_,
                tokens_ +
                    static_cast<double>(now - lastRefill_) * 1e-6 *
                        rate_ * scale);
            lastRefill_ = now;
        }
        if (tokens_ >= 1.0) {
            tokens_ -= 1.0;
            return AdmissionDecision::Admit;
        }
        return AdmissionDecision::Shed;
    }

  private:
    double rate_;
    double burst_;
    bool perSoc_;
    double tokens_;
    Cycles lastRefill_ = 0;
};

void
registerBuiltins(AdmissionRegistry &reg)
{
    reg.add({
        "always",
        "admit every request (open-loop baseline)",
        {},
        [](const AdmissionSpec &) {
            return std::make_unique<AlwaysAdmit>();
        },
    });
    reg.add({
        "queue-cap",
        "shed (or defer) when mean outstanding tasks per Up SoC "
        "reach a depth cap",
        {{"depth", "int", "8",
          "max mean outstanding (queued+running) tasks per Up SoC"},
         {"defer", "bool", "0",
          "defer at the front door instead of shedding"}},
        [](const AdmissionSpec &spec) {
            const int depth = static_cast<int>(parseIntValue(
                "queue-cap:depth", spec.param("depth", "8")));
            if (depth < 1)
                fatal("queue-cap: depth=%d (must be >= 1)", depth);
            const bool defer = parseBoolValue(
                "queue-cap:defer", spec.param("defer", "0"));
            return std::make_unique<QueueCapAdmit>(depth, defer);
        },
    });
    reg.add({
        "slo-budget",
        "token bucket: sustained admission rate with bounded burst",
        {{"rate", "double", "50",
          "sustained admissions per Mcycle (per Up SoC if per_soc)"},
         {"burst", "double", "100",
          "bucket capacity: max admissions above the sustained rate"},
         {"per_soc", "bool", "1",
          "scale the refill rate by the current Up-SoC count"}},
        [](const AdmissionSpec &spec) {
            const double rate = parseDoubleValue(
                "slo-budget:rate", spec.param("rate", "50"));
            if (rate <= 0.0)
                fatal("slo-budget: rate=%g (must be > 0)", rate);
            const double burst = parseDoubleValue(
                "slo-budget:burst", spec.param("burst", "100"));
            if (burst < 1.0)
                fatal("slo-budget: burst=%g (must be >= 1)", burst);
            const bool per_soc = parseBoolValue(
                "slo-budget:per_soc", spec.param("per_soc", "1"));
            return std::make_unique<SloBudgetAdmit>(rate, burst,
                                                    per_soc);
        },
    });
}

} // anonymous namespace

} // namespace moca::serve

namespace moca {

template <>
serve::AdmissionRegistry &
serve::AdmissionRegistry::instance()
{
    // detlint: allow(R4) magic-static init; read-only after startup
    static SpecRegistry reg = [] {
        // validate() trial-builds (admission needs no context).
        SpecRegistry r("admission policy", "admission policies",
                       "list-admission", "admission", std::tuple<>());
        serve::registerBuiltins(r);
        return r;
    }();
    return reg;
}

} // namespace moca
