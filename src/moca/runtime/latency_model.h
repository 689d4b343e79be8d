/**
 * @file
 * Algorithm 1 of the paper: the MoCA runtime's per-layer latency and
 * memory-requirement estimation.  Unlike compute-oriented estimators
 * in prior multi-tenant work, it models data movement across the full
 * memory system (shared L2 and DRAM):
 *
 *   COMPUTE layers (conv / FC):
 *     Compute_ideal = padded-MAC count / num_PEs
 *     Total_MEM     = total traffic to shared L2
 *     From_DRAM     = weights + outputs + bias
 *                     (+ input image when it exceeds the cache,
 *                      + tiling reloads when the working tile does)
 *     Memory_ideal  = From_DRAM / DRAM_BW + Total_MEM / L2_BW
 *     Prediction    = max(C, M) + min(C, M) * overlap_f
 *
 *   MEM layers (pool / add / LRN / global pool):
 *     Prediction    = From_DRAM / DRAM_BW + Total_MEM / L2_BW
 *
 * This implementation is deliberately independent of the simulator's
 * ground-truth traffic model so that the prediction-error validation
 * (paper: within 10% of measured runtimes) is meaningful.
 */

#ifndef MOCA_RUNTIME_LATENCY_MODEL_H
#define MOCA_RUNTIME_LATENCY_MODEL_H

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dnn/model.h"
#include "sim/config.h"

namespace moca::runtime {

/** Algorithm 1 outputs for one layer (or an aggregated block). */
struct LayerEstimate
{
    double computeIdeal = 0.0; ///< Compute-only cycles.
    double memoryIdeal = 0.0;  ///< Memory-only cycles (L2 + DRAM).
    double prediction = 0.0;   ///< Estimated isolated latency.
    std::uint64_t totalMem = 0; ///< Bytes to/from shared L2.
    std::uint64_t fromDram = 0; ///< Subset of totalMem hitting DRAM.

    /** Average DRAM bandwidth demand, From_DRAM / Prediction
     *  (Algorithm 2 line 4). */
    double bwRate() const
    {
        return prediction > 0.0
            ? static_cast<double>(fromDram) / prediction : 0.0;
    }

    /** Accumulate another estimate (for blocks/models). */
    LayerEstimate &operator+=(const LayerEstimate &other);
};

/** The MoCA runtime's analytical performance model. */
class LatencyModel
{
  public:
    /**
     * @param sparsity_aware when false, the model assumes dense
     *        weights even for pruned layers — the failure mode the
     *        paper's Limitations section warns about ("it can be
     *        challenging to estimate the memory requirements of
     *        [sparse] DNN layers during runtime").  The sparsity
     *        extension bench quantifies the resulting error.
     */
    explicit LatencyModel(const sim::SocConfig &cfg,
                          bool sparsity_aware = true)
        : cfg_(cfg), sparsityAware_(sparsity_aware)
    {
    }

    /** Algorithm 1 for a single layer on `num_tiles` tiles. */
    LayerEstimate estimateLayer(const dnn::Layer &layer,
                                int num_tiles) const;

    /** Aggregate estimate for one layer block. */
    LayerEstimate estimateBlock(const dnn::Model &model,
                                std::size_t block_idx,
                                int num_tiles) const;

    /** Aggregate estimate over layers [from_layer, end). */
    LayerEstimate estimateRemaining(const dnn::Model &model,
                                    std::size_t from_layer,
                                    int num_tiles) const;

    /** Whole-model isolated latency estimate in cycles. */
    double estimateModel(const dnn::Model &model, int num_tiles) const;

    /**
     * Average DRAM bandwidth demand of the whole model (bytes/cycle);
     * the scheduler's memory-intensiveness test (Algorithm 3 line 7).
     */
    double estimateAvgBw(const dnn::Model &model, int num_tiles) const;

    const sim::SocConfig &config() const { return cfg_; }

  private:
    /**
     * Memoized per-(model, tile-count) estimates.  Algorithm 1 is
     * pure in (layer, num_tiles, cfg), so per-layer estimates — and
     * the aggregates the runtime asks for millions of times per
     * stress run — are computed once per model/tile pair.  Sums are
     * accumulated in the same forward layer order as the uncached
     * loops so results stay bit-identical.
     */
    struct ModelCache
    {
        std::vector<LayerEstimate> perLayer; ///< estimateLayer(i).
        /** suffix[i] = sum of perLayer[i..L-1], forward order
         *  (== the uncached estimateRemaining(i)); suffix[L] = {}. */
        std::vector<LayerEstimate> suffix;
        std::vector<LayerEstimate> perBlock; ///< estimateBlock(b).
    };

    const ModelCache &cacheFor(const dnn::Model &model,
                               int num_tiles) const;

    sim::SocConfig cfg_;
    bool sparsityAware_ = true;
    /** Audited for R1: keyed lookups only (find/emplace), never
     *  iterated — sums come from the ordered suffix vectors. */
    // detlint: allow(R4) per-worker instance; lookup-only memo
    mutable std::unordered_map<std::uint64_t, ModelCache> cache_;
};

/**
 * Overlap-factor tuning utility (Sec. III-C): pick the overlap_f that
 * minimizes prediction error against a handful of measured layer
 * runtimes collected before inference queries start.
 *
 * @param measured pairs of (layer, measured isolated cycles on
 *        `num_tiles` tiles).
 * @return the f in [0, 1] (granularity 0.01) minimizing mean absolute
 *         relative error.
 */
double tuneOverlapF(const sim::SocConfig &base_cfg,
                    const std::vector<std::pair<const dnn::Layer *,
                                                double>> &measured,
                    int num_tiles);

} // namespace moca::runtime

#endif // MOCA_RUNTIME_LATENCY_MODEL_H
