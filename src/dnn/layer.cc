#include "dnn/layer.h"

#include "common/log.h"

namespace moca::dnn {

namespace {

int
convOutDim(int in, int kernel, int stride, int pad)
{
    const int out = (in + 2 * pad - kernel) / stride + 1;
    if (out <= 0)
        panic("layer output dimension is non-positive "
              "(in=%d k=%d s=%d p=%d)", in, kernel, stride, pad);
    return out;
}

} // anonymous namespace

int
Layer::outH() const
{
    switch (kind) {
      case LayerKind::Conv:
      case LayerKind::Pool:
        return convOutDim(inH, kernel, stride, pad);
      case LayerKind::GlobalPool:
        return 1;
      case LayerKind::Dense:
        return 1;
      case LayerKind::Add:
      case LayerKind::Lrn:
        return inH;
    }
    panic("unreachable layer kind");
}

int
Layer::outW() const
{
    switch (kind) {
      case LayerKind::Conv:
      case LayerKind::Pool:
        return convOutDim(inW, kernel, stride, pad);
      case LayerKind::GlobalPool:
        return 1;
      case LayerKind::Dense:
        return 1;
      case LayerKind::Add:
      case LayerKind::Lrn:
        return inW;
    }
    panic("unreachable layer kind");
}

std::uint64_t
Layer::macCount() const
{
    return static_cast<std::uint64_t>(
        static_cast<double>(denseMacCount()) * weightDensity);
}

std::uint64_t
Layer::denseMacCount() const
{
    switch (kind) {
      case LayerKind::Conv: {
        const std::uint64_t per_output =
            static_cast<std::uint64_t>(kernel) * kernel *
            (static_cast<std::uint64_t>(inC) / groups);
        return static_cast<std::uint64_t>(outH()) * outW() * outC *
            per_output;
      }
      case LayerKind::Dense:
        return static_cast<std::uint64_t>(inC) * outC;
      case LayerKind::Pool:
      case LayerKind::GlobalPool:
      case LayerKind::Add:
      case LayerKind::Lrn:
        // Element-wise / reduction work is not matrix work on the
        // systolic array; counted as zero MACs (MEM layers).
        return 0;
    }
    panic("unreachable layer kind");
}

std::uint64_t
Layer::weightBytes() const
{
    if (weightDensity >= 1.0)
        return denseWeightBytes();
    // Compressed sparse storage: non-zero values plus index/bitmap
    // overhead of ~1 bit per dense position (1/8 byte per int8).
    const double stored =
        static_cast<double>(denseWeightBytes()) *
        (weightDensity + 0.125);
    return static_cast<std::uint64_t>(stored);
}

std::uint64_t
Layer::denseWeightBytes() const
{
    switch (kind) {
      case LayerKind::Conv:
        return static_cast<std::uint64_t>(kernel) * kernel *
            (static_cast<std::uint64_t>(inC) / groups) * outC *
            kElemBytes;
      case LayerKind::Dense:
        return static_cast<std::uint64_t>(inC) * outC * kElemBytes;
      case LayerKind::Pool:
      case LayerKind::GlobalPool:
      case LayerKind::Add:
      case LayerKind::Lrn:
        return 0;
    }
    panic("unreachable layer kind");
}

std::uint64_t
Layer::biasBytes() const
{
    if (!hasBias)
        return 0;
    return static_cast<std::uint64_t>(outC) * kAccBytes;
}

std::uint64_t
Layer::inputBytes() const
{
    const std::uint64_t tensor =
        static_cast<std::uint64_t>(inH) * inW * inC * kElemBytes;
    if (kind == LayerKind::Add)
        return 2 * tensor; // both residual operands
    return tensor;
}

std::uint64_t
Layer::outputBytes() const
{
    const int oc = kind == LayerKind::Pool || kind == LayerKind::Add ||
        kind == LayerKind::Lrn || kind == LayerKind::GlobalPool
        ? inC : outC;
    return static_cast<std::uint64_t>(outH()) * outW() * oc * kElemBytes;
}

LayerClass
Layer::layerClass() const
{
    switch (kind) {
      case LayerKind::Conv:
      case LayerKind::Dense:
        return LayerClass::Compute;
      case LayerKind::Pool:
      case LayerKind::GlobalPool:
      case LayerKind::Add:
      case LayerKind::Lrn:
        return LayerClass::Mem;
    }
    panic("unreachable layer kind");
}

double
Layer::arithmeticIntensity() const
{
    const double bytes = static_cast<double>(weightBytes() +
        inputBytes() + outputBytes() + biasBytes());
    if (bytes <= 0.0)
        return 0.0;
    return static_cast<double>(macCount()) / bytes;
}

Layer
Layer::conv(std::string name, int in_h, int in_w, int in_c, int out_c,
            int kernel, int stride, int pad, int groups)
{
    if (in_c % groups != 0 || out_c % groups != 0)
        fatal("conv %s: channels (%d->%d) not divisible by groups %d",
              name.c_str(), in_c, out_c, groups);
    Layer l;
    l.name = std::move(name);
    l.kind = LayerKind::Conv;
    l.inH = in_h;
    l.inW = in_w;
    l.inC = in_c;
    l.outC = out_c;
    l.kernel = kernel;
    l.stride = stride;
    l.pad = pad;
    l.groups = groups;
    l.hasBias = true;
    return l;
}

Layer
Layer::dense(std::string name, int in_features, int out_features)
{
    Layer l;
    l.name = std::move(name);
    l.kind = LayerKind::Dense;
    l.inC = in_features;
    l.outC = out_features;
    l.hasBias = true;
    return l;
}

Layer
Layer::pool(std::string name, int in_h, int in_w, int in_c, int kernel,
            int stride, int pad)
{
    Layer l;
    l.name = std::move(name);
    l.kind = LayerKind::Pool;
    l.inH = in_h;
    l.inW = in_w;
    l.inC = in_c;
    l.outC = in_c;
    l.kernel = kernel;
    l.stride = stride;
    l.pad = pad;
    return l;
}

Layer
Layer::globalPool(std::string name, int in_h, int in_w, int in_c)
{
    Layer l;
    l.name = std::move(name);
    l.kind = LayerKind::GlobalPool;
    l.inH = in_h;
    l.inW = in_w;
    l.inC = in_c;
    l.outC = in_c;
    return l;
}

Layer
Layer::add(std::string name, int h, int w, int c)
{
    Layer l;
    l.name = std::move(name);
    l.kind = LayerKind::Add;
    l.inH = h;
    l.inW = w;
    l.inC = c;
    l.outC = c;
    return l;
}

Layer
Layer::lrn(std::string name, int h, int w, int c)
{
    Layer l;
    l.name = std::move(name);
    l.kind = LayerKind::Lrn;
    l.inH = h;
    l.inW = w;
    l.inC = c;
    l.outC = c;
    return l;
}

} // namespace moca::dnn
