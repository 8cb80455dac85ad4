/**
 * @file
 * Vectorized zero-fault filter for the Monte-Carlo engine.
 *
 * Under the Knuth Poisson sampler, a channel lifetime is zero-fault
 * iff its single count draw satisfies (next() >> 11) <= zeroMax
 * (SampleContext's integer form of u <= exp(-lambda)), and a
 * zero-fault channel consumes exactly that one draw. So a whole
 * system is zero-fault iff the FIRST `channels` raw draws of its
 * stream each pass the compare -- and when any draw fails, the system
 * is nonzero regardless of what the later draws mean. That makes the
 * filter a pure function of (mixedSeed, system index): the AVX-512
 * kernel runs splitmix64 seeding plus `channels` xoshiro256** steps
 * across 8 lanes of 64-bit vectors and one compare rejects 8 systems
 * at a time. At Table I rates >= 93% of channels are zero-fault, so this
 * is the dominant branch of the engine loop.
 *
 * Byte-identity: the filter never touches any Rng object. Systems it
 * flags as zero-fault produce exactly the bookkeeping a full scalar
 * simulation of a zero-fault system produces (one system credited,
 * no failure, no autopsy); systems it cannot prove zero are re-run
 * through the unmodified scalar body from a freshly derived stream.
 * Campaign stores and goldens are unchanged at every dispatch level.
 */

#ifndef XED_FAULTSIM_ZERO_FILTER_HH
#define XED_FAULTSIM_ZERO_FILTER_HH

#include <cstdint>

#include "common/simd.hh"

namespace xed::faultsim
{

/**
 * Lane count of the vector zero-fault kernel at @p level: 8 for
 * Avx512, 0 where no vector path exists (Scalar, and Neon -- AdvSIMD
 * has no packed 64-bit multiply, so splitmix64 seeding does not
 * vectorize profitably there). Width 0 tells the engine to skip
 * batching entirely.
 */
unsigned zeroFilterWidth(SimdLevel level);

/**
 * Bitmask over systems [firstSystem, firstSystem + count): bit i is
 * set iff each of the first @p channels draws of stream
 * (mixedSeed, firstSystem + i) satisfies (draw >> 11) <= zeroMax,
 * i.e. the system is provably all-zero-fault under the Knuth sampler.
 *
 * @p count must be at most 32; the vector kernel serves count ==
 * zeroFilterWidth(level), anything else falls back to a scalar replay
 * of the same draws. All levels return identical masks.
 */
std::uint32_t zeroFaultMask(SimdLevel level, std::uint64_t mixedSeed,
                            std::uint64_t firstSystem, unsigned count,
                            unsigned channels, std::uint64_t zeroMax);

} // namespace xed::faultsim

#endif // XED_FAULTSIM_ZERO_FILTER_HH
