#include "common/rng.h"

#include <cmath>

#include "common/log.h"

namespace moca {

namespace {

constexpr std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

} // anonymous namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &lane : s_)
        lane = splitmix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 significant bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    if (lo > hi)
        panic("uniformInt: lo %lld > hi %lld",
              static_cast<long long>(lo), static_cast<long long>(hi));
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    // Unbiased rejection sampling (Lemire-style threshold).
    const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
    std::uint64_t v;
    do {
        v = next();
    } while (v >= limit);
    return lo + static_cast<std::int64_t>(v % span);
}

double
Rng::exponential(double mean)
{
    if (mean <= 0.0)
        panic("exponential: mean must be positive, got %f", mean);
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

std::size_t
Rng::categorical(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights) {
        if (w < 0.0)
            panic("categorical: negative weight %f", w);
        total += w;
    }
    if (total <= 0.0)
        panic("categorical: all weights are zero");
    double draw = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        draw -= weights[i];
        if (draw < 0.0)
            return i;
    }
    return weights.size() - 1;
}

} // namespace moca
