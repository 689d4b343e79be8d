/**
 * @file
 * Max-min fair bandwidth arbitration for the shared DRAM channel and
 * L2 banks.  Requesters present byte demands for the current quantum;
 * the arbiter grants each the minimum of its demand and a fair share,
 * redistributing leftover capacity (water-filling).  Weights model a
 * job's DMA-engine count: a job running on k tiles has k request
 * streams and therefore receives a k-proportional share under
 * round-robin service, which is what the weight captures.
 */

#ifndef MOCA_SIM_ARBITER_H
#define MOCA_SIM_ARBITER_H

#include <cstddef>
#include <vector>

namespace moca::sim {

/** One requester's demand for a quantum. */
struct BwDemand
{
    double bytes = 0.0;  ///< Bytes wanted this quantum.
    double weight = 1.0; ///< Fair-share weight (number of DMA engines).
};

namespace detail {
/** Panic on a negative demand or a non-positive weight. */
[[noreturn]] void badDemand(double bytes, double weight);
} // namespace detail

/**
 * Weighted max-min fair water-fill over `n` requesters: the one
 * implementation behind every max-min grant.  Fields are read through
 * projections, so a caller fills straight from its own request layout
 * without copying it: bytes(i) and weight(i) return requester i's
 * demand (>= 0) and weight (> 0), and grant(i) is the double& its
 * grant goes to.  `done` is caller-owned scratch, reused across calls
 * (arbitration runs once per simulation step).
 *
 * Postcondition: sum(grants) <= capacity, 0 <= grant(i) <= bytes(i).
 */
template <typename Bytes, typename Weight, typename Grant>
void
maxMinFill(std::size_t n, double capacity, Bytes bytes, Weight weight,
           Grant grant, std::vector<char> &done)
{
    for (std::size_t i = 0; i < n; ++i)
        grant(i) = 0.0;
    if (n == 0 || capacity <= 0.0)
        return;
    done.resize(n);
    double total_weight = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        if (bytes(i) < 0.0 || weight(i) <= 0.0)
            detail::badDemand(bytes(i), weight(i));
        done[i] = 0;
        total_weight += weight(i);
    }

    // Everything fits: with bytes_i * W * (1 + 1e-12) <= C * w_i for
    // every requester, bytes_i <= C * w_i / W holds in floating point
    // too, so the water-fill below would grant every demand whole in
    // round one.  Grant them directly (bit-identical).
    if (capacity > 1e-9) {
        bool fits = true;
        for (std::size_t i = 0; i < n && fits; ++i)
            fits = bytes(i) * total_weight * (1.0 + 1e-12) <=
                capacity * weight(i);
        if (fits) {
            for (std::size_t i = 0; i < n; ++i)
                grant(i) += bytes(i);
            return;
        }
    }

    // Water-filling: repeatedly hand every unsatisfied requester its
    // weighted share of the remaining capacity; requesters whose
    // demand is met drop out and their leftover is redistributed.
    double remaining = capacity;
    std::size_t active = n;

    while (active > 0 && remaining > 1e-9) {
        double weight_sum = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            if (!done[i])
                weight_sum += weight(i);

        bool any_capped = false;
        double distributed = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            if (done[i])
                continue;
            const double share = remaining * weight(i) / weight_sum;
            const double want = bytes(i) - grant(i);
            if (want <= share) {
                grant(i) += want;
                distributed += want;
                done[i] = 1;
                --active;
                any_capped = true;
            }
        }
        if (!any_capped) {
            // Everyone can absorb a full share: final round.
            for (std::size_t i = 0; i < n; ++i) {
                if (done[i])
                    continue;
                const double share =
                    remaining * weight(i) / weight_sum;
                grant(i) += share;
                distributed += share;
            }
            remaining -= distributed;
            break;
        }
        remaining -= distributed;
    }
}

/**
 * Demand-proportional water-fill (same projections and scratch as
 * maxMinFill): models an unregulated FCFS-style DRAM controller,
 * where a requester's service share is proportional to the requests
 * it has in flight (demand x weight).  This is what makes memory hogs
 * harmful to co-runners — and what MoCA's throttle regulates by
 * capping the hog's issued demand.  Work-conserving: grants capped at
 * demand redistribute their leftover.
 */
template <typename Bytes, typename Weight, typename Grant>
void
proportionalFill(std::size_t n, double capacity, Bytes bytes,
                 Weight weight, Grant grant, std::vector<char> &done)
{
    for (std::size_t i = 0; i < n; ++i)
        grant(i) = 0.0;
    if (n == 0 || capacity <= 0.0)
        return;
    done.resize(n);
    double total_demand = 0.0; // D = sum of bytes x weight
    for (std::size_t i = 0; i < n; ++i) {
        if (bytes(i) < 0.0 || weight(i) <= 0.0)
            detail::badDemand(bytes(i), weight(i));
        done[i] = 0;
        total_demand += bytes(i) * weight(i);
    }

    // Everything fits: with D * (1 + 1e-12) <= C * w_i for every
    // requester with demand, its round-one share C * bytes_i * w_i / D
    // is at least bytes_i in floating point too, so the water-fill
    // below would grant every demand whole in round one.  Grant them
    // directly (bit-identical).
    if (capacity > 1e-9 && total_demand > 1e-12) {
        bool fits = true;
        for (std::size_t i = 0; i < n && fits; ++i)
            fits = bytes(i) == 0.0 ||
                total_demand * (1.0 + 1e-12) <= capacity * weight(i);
        if (fits) {
            for (std::size_t i = 0; i < n; ++i)
                grant(i) += bytes(i);
            return;
        }
    }

    // Shares proportional to outstanding demand x weight; requesters
    // whose full demand fits drop out and free their slice.
    double remaining = capacity;
    std::size_t active = n;

    while (active > 0 && remaining > 1e-9) {
        double denom = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            if (!done[i])
                denom += (bytes(i) - grant(i)) * weight(i);
        }
        if (denom <= 1e-12)
            break;

        bool any_capped = false;
        double distributed = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            if (done[i])
                continue;
            const double want = bytes(i) - grant(i);
            const double share = remaining * want * weight(i) / denom;
            if (want <= share) {
                grant(i) += want;
                distributed += want;
                done[i] = 1;
                --active;
                any_capped = true;
            }
        }
        if (!any_capped) {
            for (std::size_t i = 0; i < n; ++i) {
                if (done[i])
                    continue;
                const double want = bytes(i) - grant(i);
                const double share =
                    remaining * want * weight(i) / denom;
                grant(i) += share;
                distributed += share;
            }
            remaining -= distributed;
            break;
        }
        remaining -= distributed;
    }
}

/**
 * maxMinFill over BwDemands.
 *
 * @param demands   per-requester demands (bytes >= 0, weight > 0).
 * @param capacity  total bytes available this quantum.
 * @return per-requester grants; sum(grants) <= capacity and
 *         grants[i] <= demands[i].bytes.
 */
std::vector<double> allocateBandwidth(const std::vector<BwDemand> &demands,
                                      double capacity);

/** As above, writing grants into a caller-owned buffer (resized to
 *  demands.size()) with caller-owned maxMinFill scratch. */
void allocateBandwidth(const std::vector<BwDemand> &demands,
                       double capacity, std::vector<double> &grants,
                       std::vector<char> &done);

/** proportionalFill over BwDemands (see allocateBandwidth). */
std::vector<double>
allocateBandwidthProportional(const std::vector<BwDemand> &demands,
                              double capacity);

/** Out-parameter variant (see allocateBandwidth). */
void allocateBandwidthProportional(const std::vector<BwDemand> &demands,
                                   double capacity,
                                   std::vector<double> &grants,
                                   std::vector<char> &done);

/** Outcome of the DRAM oversubscription-thrash derate. */
struct ThrashOutcome
{
    double capacity = 0.0;  ///< Derated channel capacity in bytes.
    double lostBytes = 0.0; ///< Bytes not servable due to thrash.
    bool thrashed = false;
};

/**
 * Row-buffer-locality loss under oversubscription: when the aggregate
 * issued demand exceeds `onset` x the channel capacity *and* the
 * excess comes from interleaved streams of different requesters (a
 * lone streamer keeps locality), the effective capacity drops by up
 * to `factor`.  The loss ratio depends only on demand/capacity
 * ratios, so the derate is step-length invariant — both simulation
 * kernels apply it to whatever horizon they arbitrate over.
 *
 * @param total_demand sum of issued demands over the horizon.
 * @param max_demand   largest single requester's demand.
 * @param capacity     channel capacity over the horizon (bytes).
 */
ThrashOutcome applyDramThrash(double total_demand, double max_demand,
                              double capacity, double onset,
                              double factor);

} // namespace moca::sim

#endif // MOCA_SIM_ARBITER_H
