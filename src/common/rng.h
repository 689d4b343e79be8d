/**
 * @file
 * Deterministic pseudo-random number generation for all stochastic
 * parts of the evaluation (task dispatch times, priority draws,
 * workload selection).  A single seeded xoshiro256** generator keeps
 * every experiment bit-reproducible; benches print their seed.
 */

#ifndef MOCA_COMMON_RNG_H
#define MOCA_COMMON_RNG_H

#include <cstdint>
#include <vector>

namespace moca {

/**
 * xoshiro256** 1.0 by Blackman & Vigna (public domain reference
 * implementation re-expressed in C++).  Fast, high-quality, and
 * sufficient for workload generation; not cryptographic.
 */
class Rng
{
  public:
    /** Seed via splitmix64 expansion of a single 64-bit seed. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Exponentially distributed value with the given mean. */
    double exponential(double mean);

    /**
     * Draw an index from a categorical distribution given by
     * (unnormalized) weights.
     * @param weights non-negative weights; at least one must be > 0.
     * @return index in [0, weights.size()).
     */
    std::size_t categorical(const std::vector<double> &weights);

  private:
    std::uint64_t s_[4];
};

} // namespace moca

#endif // MOCA_COMMON_RNG_H
