/**
 * @file
 * Closed-loop client population for the serving subsystem: K users,
 * each with one request in flight at a time, thinking for a seeded
 * exponential delay between a response and the next issue, and
 * retrying timed-out requests with capped exponential backoff.
 * Arrivals are generated *reactively* from completions — when the
 * fleet slows down, the offered load slows with it, which is the
 * feedback loop the open-loop synthesizer (cluster/workload.h) by
 * design does not have.
 *
 * The pool itself is passive, pre-generated state: every request's
 * attributes (model, priority, QoS class, SLA target — drawn by the
 * same cluster::drawTaskAttributes the open-loop synthesizer uses),
 * think delay, and per-attempt timeout come from a per-request RNG
 * stream derived from (seed, request id).  Attributes therefore never
 * depend on the policy, dispatcher, failure history, or issue order —
 * two serve runs differing only in control knobs sample the identical
 * request population, and the closed loop stays a pure function of
 * its configuration.  The serve driver (serve/serve.h) owns the event
 * loop and the per-request progress state.
 */

#ifndef MOCA_SERVE_CLIENT_H
#define MOCA_SERVE_CLIENT_H

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/workload.h"
#include "common/units.h"
#include "dnn/model_zoo.h"
#include "workload/workload.h"

namespace moca::serve {

/** Parameters of the client population. */
struct ClientPoolConfig
{
    int numClients = 8;         ///< K concurrent users.
    int requestsPerClient = 64; ///< Requests each client issues.

    /** Mean think time = thinkFactor x mean isolated single-tile
     *  latency of the mix (exponentially distributed per request). */
    double thinkFactor = 4.0;

    /** Per-attempt timeout = timeoutScale x the request's SLA
     *  target; 0 disables client-side timeouts entirely. */
    double timeoutScale = 0.0;

    /** Retries after the first attempt before the client gives up. */
    int maxRetries = 3;

    /** Model mix: the models of `set`, QoS classes L/M/H drawn
     *  1:2:1 with the QoS-M target at 4x the isolated single-tile
     *  latency (cluster::SynthConfig's defaults). */
    workload::WorkloadSet set = workload::WorkloadSet::C;

    std::uint64_t seed = 1;
};

/**
 * Backoff delay before retry `attempt` (1-based): the capped
 * exponential min(8, 2^(attempt-1)) in units of `unit` cycles.  Pure
 * function — the retry cadence of a request depends only on the
 * attempt number.
 */
Cycles retryBackoff(Cycles unit, int attempt);

/** One pre-generated client request. */
struct ClientRequest
{
    int id = -1;     ///< Dense pool-wide id (== task.id).
    int client = -1; ///< Owning client, 0..numClients-1.
    int seq = -1;    ///< Position in the client's sequence.

    /** Attributes (model/priority/qos/slaLatency); `arrival` is set
     *  by the serve driver at each issue. */
    cluster::ClusterTask task;

    Cycles think = 0;   ///< Delay before issue (from its trigger).
    Cycles timeout = 0; ///< Per-attempt budget; 0 = never times out.
};

/**
 * The pre-generated request population.  Construction draws every
 * request up front from its derived stream; the pool is read-only
 * afterwards.
 */
class ClientPool
{
  public:
    /**
     * @param isolated_latency oracle returning each model's isolated
     *        single-tile latency in cycles (SLA targets, think-time
     *        and backoff calibration), as synthesizeTasks takes.
     */
    ClientPool(const ClientPoolConfig &cfg,
               const std::function<Cycles(dnn::ModelId)>
                   &isolated_latency);

    int numClients() const { return cfg_.numClients; }
    int totalRequests() const
    {
        return static_cast<int>(requests_.size());
    }

    const ClientRequest &request(int id) const
    {
        return requests_[static_cast<std::size_t>(id)];
    }

    /** Mean isolated single-tile latency of the mix (cycles) — the
     *  unit of think-time and backoff calibration. */
    Cycles meanIsolated() const { return meanIso_; }

    /** Backoff before retry `attempt` (1-based) of any request. */
    Cycles backoff(int attempt) const
    {
        return retryBackoff(meanIso_, attempt);
    }

  private:
    ClientPoolConfig cfg_;
    Cycles meanIso_ = 0;
    std::vector<ClientRequest> requests_;
};

} // namespace moca::serve

#endif // MOCA_SERVE_CLIENT_H
