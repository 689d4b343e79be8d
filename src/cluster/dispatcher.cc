#include "cluster/dispatcher.h"

#include <algorithm>

#include "common/argparse.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/text.h"

namespace moca::cluster {

namespace {

/** Smallest-index SoC minimizing `key` (ties break on index, which
 *  keeps every dispatcher deterministic). */
template <typename Key>
int
argminSoc(const std::vector<SocLoad> &socs, Key key)
{
    int best = 0;
    auto best_key = key(socs[0]);
    for (std::size_t i = 1; i < socs.size(); ++i) {
        const auto k = key(socs[i]);
        if (k < best_key) {
            best_key = k;
            best = static_cast<int>(i);
        }
    }
    return best;
}

class RoundRobinDispatcher : public Dispatcher
{
  public:
    const char *name() const override { return "rr"; }
    bool readsLoad() const override { return false; }

    int
    place(const ClusterTask &, const std::vector<SocLoad> &socs) override
    {
        return static_cast<int>(cursor_++ % socs.size());
    }

  private:
    std::size_t cursor_ = 0;
};

class RandomDispatcher : public Dispatcher
{
  public:
    explicit RandomDispatcher(std::uint64_t seed) : rng_(seed) {}

    const char *name() const override { return "random"; }
    bool readsLoad() const override { return false; }

    int
    place(const ClusterTask &, const std::vector<SocLoad> &socs) override
    {
        return static_cast<int>(rng_.uniformInt(
            0, static_cast<std::int64_t>(socs.size()) - 1));
    }

  private:
    Rng rng_;
};

class LeastLoadedDispatcher : public Dispatcher
{
  public:
    explicit LeastLoadedDispatcher(bool by_work) : byWork_(by_work) {}

    const char *name() const override { return "least-loaded"; }

    int
    place(const ClusterTask &, const std::vector<SocLoad> &socs) override
    {
        if (byWork_)
            return argminSoc(socs, [](const SocLoad &s) {
                return s.outstandingMacs;
            });
        // Queue depth, tie-broken toward free capacity.
        return argminSoc(socs, [](const SocLoad &s) {
            return std::make_pair(s.outstanding(), -s.freeTiles);
        });
    }

  private:
    bool byWork_;
};

class PowerOfTwoDispatcher : public Dispatcher
{
  public:
    explicit PowerOfTwoDispatcher(std::uint64_t seed) : rng_(seed) {}

    const char *name() const override { return "p2c"; }

    int
    place(const ClusterTask &, const std::vector<SocLoad> &socs) override
    {
        const auto n = static_cast<std::int64_t>(socs.size());
        if (n == 1)
            return 0;
        // Two distinct probes; the classic exponential improvement
        // over `random` with O(1) load information.
        const auto a = rng_.uniformInt(0, n - 1);
        auto b = rng_.uniformInt(0, n - 2);
        if (b >= a)
            ++b;
        const SocLoad &sa = socs[static_cast<std::size_t>(a)];
        const SocLoad &sb = socs[static_cast<std::size_t>(b)];
        if (sa.outstanding() != sb.outstanding())
            return sa.outstanding() < sb.outstanding()
                ? static_cast<int>(a)
                : static_cast<int>(b);
        return static_cast<int>(std::min(a, b));
    }

  private:
    Rng rng_;
};

class QosAwareDispatcher : public Dispatcher
{
  public:
    QosAwareDispatcher(int prio_min, bool hard_qos)
        : prioMin_(prio_min), hardQos_(hard_qos)
    {
    }

    const char *name() const override { return "qos-aware"; }

    int
    place(const ClusterTask &task,
          const std::vector<SocLoad> &socs) override
    {
        const bool critical = task.priority >= prioMin_ ||
            (hardQos_ && task.qos == workload::QosLevel::Hard);
        if (critical) {
            // Least-contended: fewest co-runners sharing DRAM/L2,
            // then shortest queue behind them.
            return argminSoc(socs, [](const SocLoad &s) {
                return std::make_pair(s.running, s.waiting);
            });
        }
        // Bulk traffic spreads round-robin, leaving the
        // least-contended SoCs for the critical tasks.
        return static_cast<int>(cursor_++ % socs.size());
    }

  private:
    int prioMin_;
    bool hardQos_;
    std::size_t cursor_ = 0;
};

void
registerBuiltins(DispatcherRegistry &reg)
{
    reg.add({
        "rr",
        "round-robin placement (placement-oblivious baseline)",
        {},
        [](int, std::uint64_t, const DispatcherSpec &) {
            return std::make_unique<RoundRobinDispatcher>();
        },
    });
    reg.add({
        "random",
        "seeded uniform-random placement",
        {},
        [](int, std::uint64_t seed, const DispatcherSpec &) {
            return std::make_unique<RandomDispatcher>(seed);
        },
    });
    reg.add({
        "least-loaded",
        "global minimum of queue depth (or outstanding work)",
        {{"by", "depth|work", "depth",
          "load signal: queued-task depth or outstanding MACs"}},
        [](int, std::uint64_t, const DispatcherSpec &spec) {
            const std::string by = spec.param("by", "depth");
            if (by != "depth" && by != "work")
                fatal("least-loaded: by=%s (expected depth or work)",
                      by.c_str());
            return std::make_unique<LeastLoadedDispatcher>(
                by == "work");
        },
    });
    reg.add({
        "p2c",
        "power-of-two-choices: probe two random SoCs, take the "
        "shorter queue",
        {},
        [](int, std::uint64_t seed, const DispatcherSpec &) {
            return std::make_unique<PowerOfTwoDispatcher>(seed);
        },
    });
    reg.add({
        "qos-aware",
        "high-priority / QoS-Hard tasks to the least-contended SoC, "
        "bulk traffic round-robin",
        {{"prio_min", "int", "9",
          "lowest priority treated as critical (p-High = 9..11)"},
         {"hard_qos", "bool", "1",
          "also treat QoS-Hard tasks as critical"}},
        [](int, std::uint64_t, const DispatcherSpec &spec) {
            const int prio_min = static_cast<int>(parseIntValue(
                "qos-aware:prio_min",
                spec.param("prio_min", "9")));
            const bool hard_qos = parseBoolValue(
                "qos-aware:hard_qos",
                spec.param("hard_qos", "1"));
            return std::make_unique<QosAwareDispatcher>(prio_min,
                                                        hard_qos);
        },
    });
}

} // anonymous namespace

} // namespace moca::cluster

namespace moca {

template <>
cluster::DispatcherRegistry &
cluster::DispatcherRegistry::instance()
{
    // detlint: allow(R4) magic-static init; read-only after startup
    static SpecRegistry reg = [] {
        // validate() trial-builds for a 1-SoC fleet.
        SpecRegistry r("dispatcher", "dispatchers", "list-dispatchers",
                       "dispatcher",
                       std::make_tuple(1, std::uint64_t{0}));
        cluster::registerBuiltins(r);
        return r;
    }();
    return reg;
}

} // namespace moca
