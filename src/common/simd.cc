#include "common/simd.hh"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <stdexcept>

#if defined(__aarch64__) && defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_ASIMD
#define HWCAP_ASIMD (1 << 1)
#endif
#endif

namespace xed
{

namespace
{

/** Resolved level as int, or -1 before the first simdLevel() call. */
std::atomic<int> resolvedLevel{-1};
std::mutex resolveMutex;
std::string overrideOrigin; // guarded by resolveMutex

SimdLevel
probeCpu()
{
#if defined(__x86_64__) || defined(__i386__)
    // __builtin_cpu_supports consults the libgcc CPUID probe, which
    // already masks out AVX-512 state the OS does not save (OSXSAVE +
    // XCR0), so a "yes" here means the instructions are actually
    // executable. The AVX-512 kernels use BW byte ops and DQ 64-bit
    // multiplies, so all four baseline subsets are required.
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512dq") &&
        __builtin_cpu_supports("avx512vl"))
        return SimdLevel::Avx512;
    return SimdLevel::Scalar;
#elif defined(__aarch64__)
    // AdvSIMD is architecturally mandatory on AArch64; consult HWCAP
    // anyway where available so exotic no-FP configurations (which
    // Linux exposes by clearing the bit) fall back to scalar.
#if defined(__linux__)
    if (!(getauxval(AT_HWCAP) & HWCAP_ASIMD))
        return SimdLevel::Scalar;
#endif
    return SimdLevel::Neon;
#else
    return SimdLevel::Scalar;
#endif
}

} // namespace

const char *
simdLevelName(SimdLevel level)
{
    switch (level) {
    case SimdLevel::Scalar:
        return "scalar";
    case SimdLevel::Neon:
        return "neon";
    case SimdLevel::Avx512:
        return "avx512";
    }
    return "scalar";
}

std::optional<SimdLevel>
parseSimdLevel(std::string_view name)
{
    if (name == "scalar")
        return SimdLevel::Scalar;
    if (name == "neon")
        return SimdLevel::Neon;
    if (name == "avx512")
        return SimdLevel::Avx512;
    return std::nullopt;
}

SimdLevel
simdDetectedLevel()
{
    static const SimdLevel detected = probeCpu();
    return detected;
}

bool
simdLevelSupported(SimdLevel level)
{
    return level == SimdLevel::Scalar || level == simdDetectedLevel();
}

SimdLevel
simdLevel()
{
    const int cached = resolvedLevel.load(std::memory_order_acquire);
    if (cached >= 0)
        return static_cast<SimdLevel>(cached);

    std::lock_guard<std::mutex> lock(resolveMutex);
    const int again = resolvedLevel.load(std::memory_order_relaxed);
    if (again >= 0)
        return static_cast<SimdLevel>(again);

    SimdLevel level = simdDetectedLevel();
    if (const char *env = std::getenv("XED_SIMD")) {
        const auto parsed = parseSimdLevel(env);
        if (!parsed)
            throw std::runtime_error(
                std::string("XED_SIMD: expected scalar, neon or avx512, "
                            "got \"") +
                env + "\"");
        if (!simdLevelSupported(*parsed))
            throw std::runtime_error(
                std::string("XED_SIMD=") + env +
                ": level not executable on this host (detected " +
                simdLevelName(simdDetectedLevel()) + ")");
        level = *parsed;
        overrideOrigin = std::string("XED_SIMD=") + env;
    }
    resolvedLevel.store(static_cast<int>(level),
                        std::memory_order_release);
    return level;
}

void
simdForceLevel(SimdLevel level, std::string_view origin)
{
    if (!simdLevelSupported(level))
        throw std::runtime_error(
            std::string(origin) + ": level \"" + simdLevelName(level) +
            "\" not executable on this host (detected " +
            simdLevelName(simdDetectedLevel()) + ")");
    std::lock_guard<std::mutex> lock(resolveMutex);
    overrideOrigin.assign(origin.begin(), origin.end());
    resolvedLevel.store(static_cast<int>(level),
                        std::memory_order_release);
}

std::string
simdOverride()
{
    // Resolve first so an XED_SIMD override set before any kernel ran
    // is reflected here too.
    simdLevel();
    std::lock_guard<std::mutex> lock(resolveMutex);
    return overrideOrigin;
}

} // namespace xed
