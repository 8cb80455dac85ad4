#include "faultsim/zero_filter.hh"

#include <cassert>

#include "common/rng.hh"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace xed::faultsim
{

namespace
{

// splitmix64 / stream-derivation constants, kept textually in sync
// with Rng (rng.hh); the per-level equivalence tests pin the match.
constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;
constexpr std::uint64_t kMix1 = 0xBF58476D1CE4E5B9ull;
constexpr std::uint64_t kMix2 = 0x94D049BB133111EBull;
constexpr std::uint64_t kStream = 0xD2B74407B1CE6E93ull;

/** Reference path: replay the exact Rng draws lane by lane. */
std::uint32_t
zeroFaultMaskScalar(std::uint64_t mixedSeed, std::uint64_t firstSystem,
                    unsigned count, unsigned channels,
                    std::uint64_t zeroMax)
{
    std::uint32_t mask = 0;
    for (unsigned i = 0; i < count; ++i) {
        Rng rng = Rng::streamMixed(mixedSeed, firstSystem + i);
        bool zero = true;
        for (unsigned ch = 0; zero && ch < channels; ++ch)
            zero = (rng.next() >> 11) <= zeroMax;
        mask |= static_cast<std::uint32_t>(zero) << i;
    }
    return mask;
}

#if defined(__x86_64__)

// Vector helpers are free functions: a lambda inside a
// target-attributed function does NOT inherit the target, so GCC
// refuses to inline the intrinsics into it.

// _mm512_undefined_epi32() inside the GCC intrinsic headers trips
// -Wuninitialized; the value is fully overwritten, known false positive.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

/** splitmix64 finalizer (without the kGolden add), 8 lanes. */
__attribute__((target("avx512f,avx512bw,avx512dq,avx512vl")))
inline __m512i
mixAvx512(__m512i z)
{
    z = _mm512_mullo_epi64(
        _mm512_xor_si512(z, _mm512_srli_epi64(z, 30)),
        _mm512_set1_epi64(static_cast<long long>(kMix1)));
    z = _mm512_mullo_epi64(
        _mm512_xor_si512(z, _mm512_srli_epi64(z, 27)),
        _mm512_set1_epi64(static_cast<long long>(kMix2)));
    return _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
}

/**
 * 8 lanes of splitmix64 + xoshiro256** on AVX-512 (F+DQ: vpmullq does
 * the 64-bit multiplies of the seeding; the xoshiro step needs none).
 * Each value is computed with exactly the scalar semantics, and the
 * unsigned compare sees the same 53-bit draw the scalar path tests.
 */
__attribute__((target("avx512f,avx512bw,avx512dq,avx512vl")))
std::uint32_t
zeroFaultMask8Avx512(std::uint64_t mixedSeed, std::uint64_t firstSystem,
                     unsigned channels, std::uint64_t zeroMax)
{
    // seed = mixedSeed ^ mix64(~index * kStream); mix64 adds kGolden
    // before finalizing.
    const __m512i idx = _mm512_add_epi64(
        _mm512_set1_epi64(static_cast<long long>(firstSystem)),
        _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
    __m512i z = _mm512_mullo_epi64(
        _mm512_xor_si512(idx, _mm512_set1_epi64(-1)),
        _mm512_set1_epi64(static_cast<long long>(kStream)));
    z = mixAvx512(_mm512_add_epi64(
        z, _mm512_set1_epi64(static_cast<long long>(kGolden))));
    __m512i x = _mm512_xor_si512(
        _mm512_set1_epi64(static_cast<long long>(mixedSeed)), z);

    // Rng constructor: four splitmix64 expansions of the seed.
    __m512i s[4];
    for (int w = 0; w < 4; ++w) {
        x = _mm512_add_epi64(
            x, _mm512_set1_epi64(static_cast<long long>(kGolden)));
        s[w] = mixAvx512(x);
    }

    const __m512i zeroMaxV =
        _mm512_set1_epi64(static_cast<long long>(zeroMax));
    __mmask8 bad = 0;
    for (unsigned ch = 0; ch < channels; ++ch) {
        // result = rotl(s1 * 5, 7) * 9; *5 and *9 are shift-adds.
        __m512i r = _mm512_rol_epi64(
            _mm512_add_epi64(s[1], _mm512_slli_epi64(s[1], 2)), 7);
        r = _mm512_add_epi64(r, _mm512_slli_epi64(r, 3));
        const __m512i draw = _mm512_srli_epi64(r, 11);
        bad = static_cast<__mmask8>(
            bad | _mm512_cmpgt_epu64_mask(draw, zeroMaxV));

        const __m512i t = _mm512_slli_epi64(s[1], 17);
        s[2] = _mm512_xor_si512(s[2], s[0]);
        s[3] = _mm512_xor_si512(s[3], s[1]);
        s[1] = _mm512_xor_si512(s[1], s[2]);
        s[0] = _mm512_xor_si512(s[0], s[3]);
        s[2] = _mm512_xor_si512(s[2], t);
        s[3] = _mm512_rol_epi64(s[3], 45);
    }
    return static_cast<std::uint32_t>(static_cast<std::uint8_t>(~bad));
}
#pragma GCC diagnostic pop

#endif // __x86_64__

} // namespace

unsigned
zeroFilterWidth(SimdLevel level)
{
    switch (level) {
    case SimdLevel::Avx512:
        return 8;
    default:
        return 0;
    }
}

std::uint32_t
zeroFaultMask(SimdLevel level, std::uint64_t mixedSeed,
              std::uint64_t firstSystem, unsigned count,
              unsigned channels, std::uint64_t zeroMax)
{
    assert(count <= 32);
#if defined(__x86_64__)
    if (level == SimdLevel::Avx512 && count == 8)
        return zeroFaultMask8Avx512(mixedSeed, firstSystem, channels,
                                    zeroMax);
#else
    (void)level;
#endif
    return zeroFaultMaskScalar(mixedSeed, firstSystem, count, channels,
                               zeroMax);
}

} // namespace xed::faultsim
