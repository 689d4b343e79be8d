/**
 * @file
 * Unit and property tests for the weighted max-min fair bandwidth
 * arbiter shared by the DRAM channel and L2 banks.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "common/rng.h"
#include "mem/memory_model.h"
#include "sim/arbiter.h"

namespace moca::sim {
namespace {

double
sum(const std::vector<double> &v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

TEST(Arbiter, UnderloadedGrantsEverything)
{
    const auto g = allocateBandwidth({{100, 1}, {200, 1}}, 1000);
    EXPECT_DOUBLE_EQ(g[0], 100);
    EXPECT_DOUBLE_EQ(g[1], 200);
}

TEST(Arbiter, OverloadedSplitsEqually)
{
    const auto g = allocateBandwidth({{1000, 1}, {1000, 1}}, 600);
    EXPECT_DOUBLE_EQ(g[0], 300);
    EXPECT_DOUBLE_EQ(g[1], 300);
}

TEST(Arbiter, WaterFillingRedistributesLeftover)
{
    // One small demand frees capacity for the two big ones.
    const auto g =
        allocateBandwidth({{100, 1}, {1000, 1}, {1000, 1}}, 900);
    EXPECT_DOUBLE_EQ(g[0], 100);
    EXPECT_DOUBLE_EQ(g[1], 400);
    EXPECT_DOUBLE_EQ(g[2], 400);
}

TEST(Arbiter, WeightsScaleShares)
{
    // A 3-tile job gets 3x the share of a 1-tile job.
    const auto g = allocateBandwidth({{1000, 3}, {1000, 1}}, 400);
    EXPECT_DOUBLE_EQ(g[0], 300);
    EXPECT_DOUBLE_EQ(g[1], 100);
}

TEST(Arbiter, ZeroDemand)
{
    const auto g = allocateBandwidth({{0, 1}, {500, 1}}, 300);
    EXPECT_DOUBLE_EQ(g[0], 0);
    EXPECT_DOUBLE_EQ(g[1], 300);
}

TEST(Arbiter, EmptyAndZeroCapacity)
{
    EXPECT_TRUE(allocateBandwidth({}, 100).empty());
    const auto g = allocateBandwidth({{100, 1}}, 0);
    EXPECT_DOUBLE_EQ(g[0], 0);
}

/** Property: the field-projected fill the flat memory model runs
 *  (straight from MemRequests into MemGrants, one scratch reused
 *  across calls of any size) grants bit-identically to the BwDemand
 *  form, for both allocation rules. */
TEST(Arbiter, PropertyProjectedFormMatchesBwDemandForm)
{
    const auto same = [](double a, double b) {
        return std::memcmp(&a, &b, sizeof a) == 0;
    };
    Rng rng(43);
    std::vector<char> done;
    std::vector<mem::MemGrant> grants;
    for (int trial = 0; trial < 600; ++trial) {
        const auto n = static_cast<std::size_t>(rng.uniformInt(0, 10));
        // Capacity <= 0 on some trials; equal demands and weights on
        // others, so shares tie with wants exactly.
        const int shape = static_cast<int>(rng.uniformInt(0, 3));
        double cap = rng.uniform(1.0, 4000.0);
        if (shape == 0)
            cap = trial % 2 == 0 ? 0.0 : -cap;
        std::vector<mem::MemRequest> reqs(n);
        std::vector<BwDemand> bw(n);
        for (std::size_t i = 0; i < n; ++i) {
            mem::MemRequest &r = reqs[i];
            if (shape == 1) {
                r.dramBytes = cap / static_cast<double>(n);
                r.weight = 2.0;
            } else {
                // A quarter of the requesters want nothing.
                r.dramBytes =
                    rng.uniformInt(0, 3) == 0 ? 0.0
                                              : rng.uniform(0.0, 900.0);
                r.weight = static_cast<double>(rng.uniformInt(1, 8));
            }
            bw[i] = {r.dramBytes, r.weight};
        }

        for (bool proportional : {false, true}) {
            grants.assign(n, mem::MemGrant{});
            const auto bytes = [&](std::size_t i) {
                return reqs[i].dramBytes;
            };
            const auto weight = [&](std::size_t i) {
                return reqs[i].weight;
            };
            const auto grant = [&](std::size_t i) -> double & {
                return grants[i].dramBytes;
            };
            if (proportional)
                proportionalFill(n, cap, bytes, weight, grant, done);
            else
                maxMinFill(n, cap, bytes, weight, grant, done);
            const std::vector<double> want =
                proportional ? allocateBandwidthProportional(bw, cap)
                             : allocateBandwidth(bw, cap);
            ASSERT_EQ(want.size(), n);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_TRUE(same(grants[i].dramBytes, want[i]))
                    << "trial " << trial << " requester " << i
                    << (proportional ? " proportional: " : " max-min: ")
                    << grants[i].dramBytes << " vs " << want[i];
            if (cap <= 0.0) {
                for (double g : want)
                    EXPECT_EQ(g, 0.0);
            }
        }
    }
}

/** The water-fill rounds alone, without the round-one exit. */
std::vector<double>
referenceFill(const std::vector<BwDemand> &d, double capacity,
              bool proportional)
{
    std::vector<double> grant(d.size(), 0.0);
    std::vector<char> done(d.size(), 0);
    double remaining = capacity;
    std::size_t active = d.size();
    while (active > 0 && remaining > 1e-9) {
        double denom = 0.0;
        for (std::size_t i = 0; i < d.size(); ++i)
            if (!done[i])
                denom += proportional
                    ? (d[i].bytes - grant[i]) * d[i].weight
                    : d[i].weight;
        if (proportional && denom <= 1e-12)
            break;
        const auto share = [&](std::size_t i) {
            return proportional
                ? remaining * (d[i].bytes - grant[i]) * d[i].weight / denom
                : remaining * d[i].weight / denom;
        };
        bool any_capped = false;
        double distributed = 0.0;
        for (std::size_t i = 0; i < d.size(); ++i) {
            const double want = d[i].bytes - grant[i];
            if (!done[i] && want <= share(i)) {
                grant[i] += want;
                distributed += want;
                done[i] = 1;
                --active;
                any_capped = true;
            }
        }
        if (!any_capped) {
            for (std::size_t i = 0; i < d.size(); ++i) {
                if (done[i])
                    continue;
                const double sh = share(i);
                grant[i] += sh;
                distributed += sh;
            }
            remaining -= distributed;
            break;
        }
        remaining -= distributed;
    }
    return grant;
}

TEST(Arbiter, PropertyRoundOneExitIsBitIdentical)
{
    // Demands summing to within about 1e-11 of the capacity, either
    // side, put requesters on both sides of the exit's margin test:
    // the fills must equal the plain water-fill rounds bit for bit.
    const auto same = [](double a, double b) {
        return std::memcmp(&a, &b, sizeof a) == 0;
    };
    Rng rng(59);
    for (int trial = 0; trial < 2000; ++trial) {
        const auto n = static_cast<std::size_t>(rng.uniformInt(1, 8));
        // Shape 0: random demands and weights; 1: equal weights; 2:
        // equal demands and weights (every requester at the margin).
        const int shape = trial % 3;
        const double bytes = rng.uniform(1.0, 900.0);
        std::vector<BwDemand> d(n);
        double total = 0.0;
        for (auto &b : d) {
            b.bytes = shape == 2 ? bytes
                : rng.uniformInt(0, 4) == 0 ? 0.0
                                            : rng.uniform(1.0, 900.0);
            b.weight = shape == 0
                ? static_cast<double>(rng.uniformInt(1, 8)) : 2.0;
            total += b.bytes;
        }
        const double slack = rng.uniform(-1e-11, 1e-11);
        const double cap = rng.uniformInt(0, 3) == 0
            ? rng.uniform(1.0, 4000.0)
            : std::max(1.0, total) * (1.0 + slack);
        for (bool proportional : {false, true}) {
            const std::vector<double> got =
                proportional ? allocateBandwidthProportional(d, cap)
                             : allocateBandwidth(d, cap);
            const std::vector<double> want =
                referenceFill(d, cap, proportional);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_TRUE(same(got[i], want[i]))
                    << "trial " << trial << " requester " << i
                    << (proportional ? " proportional: " : " max-min: ")
                    << got[i] << " vs " << want[i];
        }
    }
}

/** Property: grants are feasible, demand-bounded and work-conserving. */
TEST(Arbiter, PropertyFeasibleAndWorkConserving)
{
    Rng rng(31);
    for (int trial = 0; trial < 500; ++trial) {
        const int n = static_cast<int>(rng.uniformInt(1, 12));
        std::vector<BwDemand> d;
        double total_demand = 0.0;
        for (int i = 0; i < n; ++i) {
            BwDemand b;
            b.bytes = rng.uniform(0.0, 2000.0);
            b.weight = rng.uniform(0.5, 8.0);
            total_demand += b.bytes;
            d.push_back(b);
        }
        const double cap = rng.uniform(1.0, 3000.0);
        const auto g = allocateBandwidth(d, cap);

        ASSERT_EQ(g.size(), d.size());
        for (std::size_t i = 0; i < g.size(); ++i) {
            EXPECT_GE(g[i], -1e-9);
            EXPECT_LE(g[i], d[i].bytes + 1e-6);
        }
        EXPECT_LE(sum(g), cap + 1e-6);
        // Work conservation: either all demand served or capacity
        // (nearly) exhausted.
        if (total_demand <= cap)
            EXPECT_NEAR(sum(g), total_demand, 1e-6);
        else
            EXPECT_NEAR(sum(g), cap, cap * 1e-6 + 1e-6);
    }
}

// ---- flat-model extraction guards ------------------------------------
//
// These pin the exact arbiter/thrash behavior the `--mem flat` memory
// model must preserve when the arbitration path moves behind the
// mem::MemoryModel interface.

TEST(ArbiterProportional, ZeroDemandAndEmpty)
{
    EXPECT_TRUE(allocateBandwidthProportional({}, 100).empty());
    const auto g =
        allocateBandwidthProportional({{0, 1}, {500, 1}}, 300);
    EXPECT_DOUBLE_EQ(g[0], 0);
    EXPECT_DOUBLE_EQ(g[1], 300);
}

TEST(ArbiterProportional, SingleRequesterGetsMinOfDemandAndCapacity)
{
    auto g = allocateBandwidthProportional({{250, 4}}, 1000);
    EXPECT_DOUBLE_EQ(g[0], 250);
    g = allocateBandwidthProportional({{2500, 4}}, 1000);
    EXPECT_DOUBLE_EQ(g[0], 1000);
}

TEST(ArbiterProportional, HogWinsUnderProportionalNotUnderMaxMin)
{
    // The contention pathology MoCA regulates: an FCFS-style
    // controller serves in proportion to in-flight demand, so the
    // 3x-demand hog takes 3x the bandwidth; max-min with equal
    // weights splits equally instead.
    const std::vector<BwDemand> d = {{900, 1}, {300, 1}};
    const auto prop = allocateBandwidthProportional(d, 400);
    EXPECT_DOUBLE_EQ(prop[0], 300);
    EXPECT_DOUBLE_EQ(prop[1], 100);

    const auto fair = allocateBandwidth(d, 400);
    EXPECT_DOUBLE_EQ(fair[0], 200);
    EXPECT_DOUBLE_EQ(fair[1], 200);
}

TEST(ArbiterProportional, PureDemandProportionalSplit)
{
    // With equal weights and no requester's share exceeding its
    // demand, the split is exactly demand-proportional — the small
    // demand is NOT topped up the way max-min would.
    const auto g =
        allocateBandwidthProportional({{50, 1}, {600, 1}, {300, 1}},
                                      650);
    EXPECT_NEAR(g[0], 650.0 * 50 / 950, 1e-9);
    EXPECT_NEAR(g[1], 650.0 * 600 / 950, 1e-9);
    EXPECT_NEAR(g[2], 650.0 * 300 / 950, 1e-9);
    EXPECT_NEAR(sum(g), 650, 1e-9);
}

TEST(ArbiterProportional, WorkConservingRedistribution)
{
    // A heavily-weighted small demand is capped at its demand; the
    // leftover redistributes to the others in demand proportion.
    const auto g = allocateBandwidthProportional(
        {{50, 10}, {600, 1}, {300, 1}}, 400);
    EXPECT_DOUBLE_EQ(g[0], 50);
    EXPECT_NEAR(g[1], 350.0 * 600 / 900, 1e-9);
    EXPECT_NEAR(g[2], 350.0 * 300 / 900, 1e-9);
    EXPECT_NEAR(sum(g), 400, 1e-9);
}

TEST(Thrash, NoThrashAtOrBelowExactOnset)
{
    // total == capacity * onset is the boundary: not yet thrashing.
    const double cap = 1000.0, onset = 1.3;
    const auto at = applyDramThrash(cap * onset, 100.0, cap, onset,
                                    0.5);
    EXPECT_FALSE(at.thrashed);
    EXPECT_DOUBLE_EQ(at.capacity, cap);
    EXPECT_DOUBLE_EQ(at.lostBytes, 0.0);

    const auto below =
        applyDramThrash(cap * onset - 1.0, 100.0, cap, onset, 0.5);
    EXPECT_FALSE(below.thrashed);
    EXPECT_DOUBLE_EQ(below.capacity, cap);
}

TEST(Thrash, ThrashesJustAboveOnsetWhenInterleaved)
{
    const double cap = 1000.0, onset = 1.3;
    // Two equal streams: interleave = 0.5 (the saturating value).
    const double total = cap * onset + 10.0;
    const auto t =
        applyDramThrash(total, total / 2.0, cap, onset, 0.5);
    EXPECT_TRUE(t.thrashed);
    EXPECT_LT(t.capacity, cap);
    EXPECT_NEAR(t.lostBytes, cap - t.capacity, 1e-9);
}

TEST(Thrash, LoneStreamerKeepsLocality)
{
    // max_demand == total_demand: a single requester far above the
    // onset still keeps its row-buffer locality — no loss.
    const auto t = applyDramThrash(5000.0, 5000.0, 1000.0, 1.3, 0.5);
    EXPECT_FALSE(t.thrashed);
    EXPECT_DOUBLE_EQ(t.capacity, 1000.0);
}

TEST(Thrash, ZeroDemandAndZeroCapacity)
{
    const auto zd = applyDramThrash(0.0, 0.0, 1000.0, 1.3, 0.5);
    EXPECT_FALSE(zd.thrashed);
    EXPECT_DOUBLE_EQ(zd.capacity, 1000.0);

    const auto zc = applyDramThrash(500.0, 500.0, 0.0, 1.3, 0.5);
    EXPECT_FALSE(zc.thrashed);
    EXPECT_DOUBLE_EQ(zc.capacity, 0.0);
}

TEST(Thrash, LossSaturatesAtFactor)
{
    // Far above onset with fully interleaved demand the loss ramps to
    // exactly `factor`: over = min(1, ...) and interleave caps at 0.5.
    const double cap = 1000.0, factor = 0.5;
    const auto t = applyDramThrash(10.0 * cap, cap, cap, 1.3, factor);
    EXPECT_TRUE(t.thrashed);
    EXPECT_NEAR(t.capacity, cap * (1.0 - factor), 1e-9);
}

TEST(Thrash, StepLengthInvariantLossRatio)
{
    // The derate depends only on demand/capacity ratios, so scaling
    // demand and capacity together (a longer arbitration horizon)
    // scales lostBytes linearly — both kernels see the same derate.
    const auto a = applyDramThrash(2000.0, 800.0, 1000.0, 1.3, 0.5);
    const auto b =
        applyDramThrash(8.0 * 2000.0, 8.0 * 800.0, 8.0 * 1000.0, 1.3,
                        0.5);
    ASSERT_TRUE(a.thrashed);
    ASSERT_TRUE(b.thrashed);
    EXPECT_NEAR(b.lostBytes, 8.0 * a.lostBytes, 1e-6);
}

/** Property: max-min fairness — an unsatisfied requester's weighted
 *  grant is >= every other requester's weighted grant (no one it
 *  could take from has more). */
TEST(Arbiter, PropertyMaxMinFairness)
{
    Rng rng(67);
    for (int trial = 0; trial < 200; ++trial) {
        const int n = static_cast<int>(rng.uniformInt(2, 8));
        std::vector<BwDemand> d;
        for (int i = 0; i < n; ++i)
            d.push_back({rng.uniform(0.0, 1000.0),
                         rng.uniform(0.5, 4.0)});
        const double cap = rng.uniform(10.0, 1200.0);
        const auto g = allocateBandwidth(d, cap);

        for (std::size_t i = 0; i < g.size(); ++i) {
            const bool unsatisfied = g[i] < d[i].bytes - 1e-6;
            if (!unsatisfied)
                continue;
            const double norm_i = g[i] / d[i].weight;
            for (std::size_t j = 0; j < g.size(); ++j) {
                if (j == i)
                    continue;
                const double norm_j = g[j] / d[j].weight;
                EXPECT_LE(norm_j, norm_i + 1e-6)
                    << "requester " << j
                    << " holds more than unsatisfied " << i;
            }
        }
    }
}

} // namespace
} // namespace moca::sim
