/**
 * @file
 * DNN layer description.  MoCA never inspects tensor values; the whole
 * stack (latency model, runtime, scheduler, simulator) consumes layer
 * *shapes* and the footprints/MAC counts derived from them, so a layer
 * here is a shape record plus derived-quantity accessors.
 *
 * Following the paper (Sec. III-C), layers are classified as COMPUTE
 * (high arithmetic intensity: convolutions, fully-connected) or MEM
 * (little reuse: residual additions, poolings, LRN, global pooling).
 * Data types follow Gemmini's defaults: int8 weights/activations
 * (1 byte per element) and 32-bit biases/accumulators.
 */

#ifndef MOCA_DNN_LAYER_H
#define MOCA_DNN_LAYER_H

#include <cstdint>
#include <string>

namespace moca::dnn {

/** Operator type of a layer. */
enum class LayerKind
{
    Conv,       ///< 2-D convolution (optionally grouped).
    Dense,      ///< Fully-connected / matrix-vector layer.
    Pool,       ///< Max or average pooling window.
    GlobalPool, ///< Global average pooling.
    Add,        ///< Element-wise residual addition.
    Lrn,        ///< Local response normalization (memory-bound).
};

/** Paper-style two-way classification used by Algorithm 1. */
enum class LayerClass
{
    Compute, ///< CONV / FC: latency set by max(compute, memory).
    Mem,     ///< Bandwidth-bound operator with little data reuse.
};

/** Bytes per activation/weight element (int8 datapath). */
constexpr std::uint64_t kElemBytes = 1;
/** Bytes per bias/accumulator element (int32). */
constexpr std::uint64_t kAccBytes = 4;

/**
 * One DNN layer: a shape record with derived footprint and MAC-count
 * accessors.  Construct via the named factory functions.
 */
struct Layer
{
    std::string name;
    LayerKind kind = LayerKind::Conv;

    // Input tensor shape (H x W x C).  Dense layers use inC as the
    // flattened input feature count with inH = inW = 1.
    int inH = 1;
    int inW = 1;
    int inC = 1;

    // Convolution / pooling parameters.
    int outC = 1;   ///< Output channels (Dense: output features).
    int kernel = 1; ///< Square kernel size.
    int stride = 1;
    int pad = 0;
    int groups = 1; ///< Grouped convolution (AlexNet conv2/4/5).
    bool hasBias = false;

    /**
     * Fraction of non-zero weights in (0, 1]; 1.0 = dense.  Sparse
     * layers store weights compressed (non-zeros plus index overhead)
     * and a sparsity-capable tile skips zero MACs.  This is the
     * extension the paper's Limitations section sketches: MoCA
     * "can be augmented with an accurate performance and memory
     * resource predictor of sparse DNNs".
     */
    double weightDensity = 1.0;

    /** Output spatial height. */
    int outH() const;
    /** Output spatial width. */
    int outW() const;

    /**
     * Effective multiply-accumulate count: dense MACs scaled by
     * weightDensity (zero MACs are skipped by the sparse datapath).
     */
    std::uint64_t macCount() const;

    /** MAC count of the dense (uncompressed) layer. */
    std::uint64_t denseMacCount() const;

    /**
     * Stored weight footprint in bytes (excluding bias): the dense
     * footprint for density 1.0, otherwise the compressed form
     * (non-zeros plus ~12.5% index overhead).
     */
    std::uint64_t weightBytes() const;

    /** Weight footprint of the dense (uncompressed) layer. */
    std::uint64_t denseWeightBytes() const;
    /** Bias footprint in bytes (0 when hasBias is false). */
    std::uint64_t biasBytes() const;
    /** Input activation footprint in bytes (all operands for Add). */
    std::uint64_t inputBytes() const;
    /** Output activation footprint in bytes. */
    std::uint64_t outputBytes() const;

    /** COMPUTE vs MEM classification per the paper. */
    LayerClass layerClass() const;

    /**
     * Arithmetic intensity: MACs per byte moved (weights + input +
     * output).  Used by tests and the scheduler's diagnostics.
     */
    double arithmeticIntensity() const;

    // --- Named constructors -------------------------------------------

    /** 2-D convolution. */
    static Layer conv(std::string name, int in_h, int in_w, int in_c,
                      int out_c, int kernel, int stride, int pad,
                      int groups = 1);

    /** Fully-connected layer. */
    static Layer dense(std::string name, int in_features,
                       int out_features);

    /** Max/avg pooling (modelled identically: MEM traffic). */
    static Layer pool(std::string name, int in_h, int in_w, int in_c,
                      int kernel, int stride, int pad = 0);

    /** Global average pooling down to 1x1xC. */
    static Layer globalPool(std::string name, int in_h, int in_w,
                            int in_c);

    /** Element-wise residual addition over an HxWxC tensor. */
    static Layer add(std::string name, int h, int w, int c);

    /** Local response normalization over an HxWxC tensor. */
    static Layer lrn(std::string name, int h, int w, int c);
};

} // namespace moca::dnn

#endif // MOCA_DNN_LAYER_H
