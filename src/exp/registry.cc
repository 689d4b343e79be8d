#include "exp/registry.h"

#include <algorithm>

#include "baselines/planaria.h"
#include "baselines/prema.h"
#include "baselines/static_partition.h"
#include "common/argparse.h"
#include "common/log.h"
#include "common/text.h"
#include "exp/oracle.h"
#include "moca/moca_policy.h"

namespace moca::exp {

namespace {

void
registerBuiltins(PolicyRegistry &reg)
{
    // The paper's presentation order: the three baselines, then MoCA.
    reg.add({
        "prema",
        "PREMA [9]: time-multiplexed baseline, token-based "
        "priorities, checkpointing preemption",
        {{"preempt_margin", "double", "2.0",
          "token advantage a challenger needs to preempt"}},
        [](const sim::SocConfig &cfg, const PolicySpec &spec) {
            return std::make_unique<baselines::PremaPolicy>(
                cfg,
                configFromSpec<baselines::PremaConfig>(spec, "policy"));
        },
    });
    reg.add({
        "static",
        "static spatial partitioning: fixed equal partitions, "
        "priority-plus-age admission, no runtime adaptation",
        {{"partitions", "int", "4",
          "number of fixed partitions of the tile array"}},
        [](const sim::SocConfig &cfg, const PolicySpec &spec) {
            return std::make_unique<baselines::StaticPartitionPolicy>(
                cfg,
                configFromSpec<baselines::StaticPartitionConfig>(
                    spec, "policy"));
        },
    });
    reg.add({
        "planaria",
        "Planaria [18]: dynamic compute fission by deadline "
        "pressure, memory-oblivious",
        {{"min_tiles", "int", "1",
          "smallest pod a job can be fissioned down to"},
         {"max_concurrent", "int", "8",
          "cap on concurrently co-located jobs"}},
        [](const sim::SocConfig &cfg, const PolicySpec &spec) {
            return std::make_unique<baselines::PlanariaPolicy>(
                cfg,
                configFromSpec<baselines::PlanariaConfig>(spec, "policy"));
        },
    });
    reg.add({
        "moca",
        "MoCA: memory-centric adaptive execution — Alg. 3 "
        "scheduling, Alg. 2 contention detection, HW throttling",
        {{"slots", "int", "4", "concurrent job slots"},
         {"throttle", "bool", "1",
          "program the MoCA throttle engines"},
         {"pairing", "bool", "1",
          "Algorithm 3 memory-aware pairing"},
         {"dynamic_score", "bool", "1",
          "dynamic priority score (remaining/slack term)"},
         {"repartition", "bool", "1",
          "allow the rare compute-tile repartitioning"},
         {"score_threshold", "double", "0",
          "ExQueue admission threshold (Alg. 3 line 14)"},
         {"sparsity_aware", "bool", "1",
          "sparsity-aware performance predictor"},
         {"repartition_benefit", "double", "6",
          "migration penalties a repartition must amortize"},
         {"tick", "int", "0",
          "fixed throttle window in cycles (0 = prediction-derived)"},
         {"threshold", "scaled|fixed", "scaled",
          "throttle budget from score-weighted allocation or the "
          "equal 1/N share"}},
        [](const sim::SocConfig &cfg, const PolicySpec &spec) {
            return std::make_unique<MocaPolicy>(
                cfg, configFromSpec<MocaPolicyConfig>(spec, "policy"));
        },
    });
    reg.add({
        "solo",
        "no management: FCFS onto a fixed tile count per job (the "
        "Fig. 1 co-location baseline)",
        {{"tiles", "int", "0",
          "tiles per job (0 = the whole array)"}},
        [](const sim::SocConfig &cfg, const PolicySpec &spec) {
            int tiles = 0;
            for (const auto &[key, value] : spec.params)
                if (key == "tiles")
                    tiles = static_cast<int>(
                        parseIntValue("solo:tiles", value));
            if (tiles == 0)
                tiles = cfg.numTiles; // 0 = the whole array.
            if (tiles < 0 || tiles > cfg.numTiles)
                fatal("solo: tiles must be in [0, %d]", cfg.numTiles);
            return std::make_unique<SoloPolicy>(tiles);
        },
    });
}

} // namespace

} // namespace moca::exp

namespace moca {

template <>
exp::PolicyRegistry &
exp::PolicyRegistry::instance()
{
    // detlint: allow(R4) magic-static init; read-only after startup
    static SpecRegistry reg = [] {
        SpecRegistry r("policy", "policies", "list-policies",
                       "policy");
        exp::registerBuiltins(r);
        return r;
    }();
    return reg;
}

} // namespace moca
