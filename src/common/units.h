/**
 * @file
 * Unit helpers shared across the simulator: cycle counts, byte sizes,
 * and the conversions between bandwidth expressed in GB/s and
 * bytes/cycle at the SoC clock.
 */

#ifndef MOCA_COMMON_UNITS_H
#define MOCA_COMMON_UNITS_H

#include <cstdint>

namespace moca {

/** Simulated clock cycles (1 GHz SoC clock in the default config). */
using Cycles = std::uint64_t;

constexpr std::uint64_t KiB = 1024ULL;
constexpr std::uint64_t MiB = 1024ULL * 1024ULL;
constexpr std::uint64_t GiB = 1024ULL * 1024ULL * 1024ULL;

/** Ceiling division for integral types. */
template <typename T>
constexpr T
ceilDiv(T num, T den)
{
    return (num + den - 1) / den;
}

} // namespace moca

#endif // MOCA_COMMON_UNITS_H
