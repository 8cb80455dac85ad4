/**
 * @file
 * Counting-allocator proof of the sampling kernel's allocation
 * contract: after the per-shard setup (SampleContext, the reserved
 * event buffer, the reserved EvalScratch), the system loop performs
 * ZERO heap allocations in steady state. Verified by replacing global
 * operator new with a counting forwarder and comparing shard runs of
 * different lengths -- identical setup, so any count difference is a
 * per-system allocation.
 *
 * This binary must stay separate from test_faultsim: the global
 * operator new replacement applies process-wide.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common/units.hh"
#include "dram/geometry.hh"
#include "faultsim/engine.hh"
#include "faultsim/fault_model.hh"
#include "faultsim/scheme.hh"
#include "obs/trace.hh"

namespace
{

std::atomic<std::uint64_t> allocationCount{0};

void *
countedAlloc(std::size_t size)
{
    ++allocationCount;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace xed::faultsim
{
namespace
{

/** Allocations performed by one serial shard run of [0, systems). */
std::uint64_t
shardAllocations(const Scheme &scheme, const McConfig &cfg,
                 std::uint64_t systems)
{
    const std::uint64_t before =
        allocationCount.load(std::memory_order_relaxed);
    const McResult result = runMonteCarloShard(scheme, cfg, 0, systems);
    const std::uint64_t after =
        allocationCount.load(std::memory_order_relaxed);
    // Keep the result alive across the second load so its destructor
    // isn't interleaved with the measurement.
    EXPECT_LE(result.failByYear[7].successes(), systems);
    return after - before;
}

TEST(AllocationContract, SteadyStateIsAllocationFreeBitOnlyFit)
{
    // Bit faults only, scaled up so most systems sample and evaluate
    // several events, all of which SECDED corrects: no failures, no
    // failure-type counter insertions, nothing but the kernel. Every
    // allocation must come from the fixed per-shard setup, so the
    // count is independent of the number of systems simulated.
    McConfig cfg;
    cfg.seed = 61799;
    for (auto &entry : cfg.fit.rates)
        entry = {0.0, 0.0};
    cfg.fit.entry(FaultKind::Bit) = {142.0, 186.0}; // 10x Table I
    const auto scheme = makeScheme(SchemeKind::Secded, OnDieOptions{});

    const std::uint64_t shortRun = shardAllocations(*scheme, cfg, 500);
    const std::uint64_t longRun = shardAllocations(*scheme, cfg, 4000);
    EXPECT_EQ(shortRun, longRun)
        << (longRun - shortRun) << " steady-state allocations leaked "
        << "into 3500 extra systems";
}

TEST(AllocationContract, SteadyStateIsAllocationFreeTableOneRates)
{
    // Full Table I rates and real failures. The only steady-state
    // allocation candidate left is the failure-type counter map, which
    // allocates once per DISTINCT type; both runs see every type
    // inside the shorter prefix, so the totals must still match.
    McConfig cfg;
    cfg.seed = 61799;
    const auto scheme = makeScheme(SchemeKind::Secded, OnDieOptions{});

    const std::uint64_t shortRun = shardAllocations(*scheme, cfg, 1500);
    const std::uint64_t longRun = shardAllocations(*scheme, cfg, 3000);
    EXPECT_EQ(shortRun, longRun);
}

TEST(AllocationContract, SteadyStateIsAllocationFreeWithTracingOn)
{
    // The traced hot path must be as allocation-free as the untraced
    // one: the only tracing allocation is the per-thread ring buffer,
    // registered on this thread's first recorded span (inside the
    // warm-up run), after which recording is a struct store into the
    // preallocated ring.
    McConfig cfg;
    cfg.seed = 61799;
    const auto scheme = makeScheme(SchemeKind::Secded, OnDieOptions{});

    auto &recorder = obs::TraceRecorder::instance();
    recorder.setEnabled(true);
    shardAllocations(*scheme, cfg, 1500); // ring + counter-key warm-up

    const std::uint64_t shortRun = shardAllocations(*scheme, cfg, 1500);
    const std::uint64_t longRun = shardAllocations(*scheme, cfg, 3000);
    recorder.setEnabled(false);
    EXPECT_EQ(shortRun, longRun)
        << (longRun - shortRun) << " steady-state allocations leaked "
        << "into 1500 extra traced systems";
}

TEST(AllocationContract, EvaluateDimmWithScratchDoesNotAllocate)
{
    // Direct check of the Scheme::evaluateDimm scratch contract: with
    // a warmed scratch, re-evaluating event sets allocates nothing.
    const dram::ChipGeometry geometry{};
    const AddressLayout layout(geometry);
    const auto scheme = makeScheme(SchemeKind::Chipkill, OnDieOptions{});
    // 20x the paper lifetime makes most DIMMs sample several events
    // (lambda ~ 3) without risking the 64-slot reserve high-water.
    const SampleContext ctx(FitTable{}, layout, scheme->dimmShape(),
                            20.0 * evaluationHours);

    std::vector<FaultEvent> events;
    events.reserve(64);
    EvalScratch scratch;
    scratch.reserve(64);

    Rng rng = Rng::stream(61799, 0);
    // Warm-up pass: let vectors inside the RS decoder (if any) and the
    // scratch reach their high-water marks.
    for (int i = 0; i < 2000; ++i) {
        sampleDimmFaultsInto(rng, ctx, events);
        if (!events.empty())
            scheme->evaluateDimm(events, layout, rng, scratch);
    }

    const std::uint64_t before =
        allocationCount.load(std::memory_order_relaxed);
    for (int i = 0; i < 2000; ++i) {
        sampleDimmFaultsInto(rng, ctx, events);
        if (!events.empty())
            scheme->evaluateDimm(events, layout, rng, scratch);
    }
    const std::uint64_t after =
        allocationCount.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u);
}

} // namespace
} // namespace xed::faultsim
