/**
 * The event-driven simulate() against an every-cycle reference loop.
 *
 * simulate() visits only the cycles at which some core or channel is
 * due. The reference below is the plain loop it replaced -- tick the
 * memory system and every core on every memory cycle -- built from the
 * same components with the same seeds. The two must agree on cycles,
 * every MemStats field and power, for every protection mode. LOT-ECC
 * is included: its parity writes draw from the memory system's RNG, so
 * any reordering of writes across cores would show.
 *
 * MemorySystem::tick skips channels that are not due inside the
 * reference too, so the channel wake cycles are pinned separately:
 * pinnedRuns holds cycles and event counts recorded from the memory
 * system that refreshed and scanned every channel on every cycle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

#include "perfsim/system.hh"

namespace xed::perfsim
{
namespace
{

const ProtectionMode allModes[] = {
    ProtectionMode::SecdedBaseline,
    ProtectionMode::Xed,
    ProtectionMode::Chipkill,
    ProtectionMode::XedChipkill,
    ProtectionMode::DoubleChipkill,
    ProtectionMode::ChipkillExtraBurst,
    ProtectionMode::DoubleChipkillExtraBurst,
    ProtectionMode::ChipkillExtraTransaction,
    ProtectionMode::DoubleChipkillExtraTransaction,
    ProtectionMode::LotEcc,
};

/** One run at 500 ops per core and the default seed: cycles, then
 *  reads, writes, rowHits, bankActivates, readBusCycles,
 *  writeBusCycles, refreshes and extraWrites. */
struct PinnedRun
{
    ProtectionMode mode;
    const char *workload;
    std::array<std::uint64_t, 9> counts;
};

const PinnedRun pinnedRuns[] = {
    {ProtectionMode::SecdedBaseline, "mcf",
     {10167, 3203, 797, 746, 3254, 12812, 3188, 12, 0}},
    {ProtectionMode::SecdedBaseline, "libquantum",
     {6412, 2968, 1032, 3723, 277, 11872, 4128, 8, 0}},
    {ProtectionMode::SecdedBaseline, "black",
     {35658, 2999, 1001, 2216, 1784, 11996, 4004, 48, 0}},
    {ProtectionMode::SecdedBaseline, "stream",
     {11544, 2608, 1392, 3011, 989, 10432, 5568, 16, 0}},
    {ProtectionMode::Xed, "mcf",
     {10167, 3203, 797, 746, 3254, 12812, 3188, 12, 0}},
    {ProtectionMode::Xed, "libquantum",
     {6412, 2968, 1032, 3723, 277, 11872, 4128, 8, 0}},
    {ProtectionMode::Xed, "black",
     {35658, 2999, 1001, 2216, 1784, 11996, 4004, 48, 0}},
    {ProtectionMode::Xed, "stream",
     {11544, 2608, 1392, 3011, 989, 10432, 5568, 16, 0}},
    {ProtectionMode::Chipkill, "mcf",
     {13524, 3203, 797, 670, 3330, 25624, 6376, 16, 0}},
    {ProtectionMode::Chipkill, "libquantum",
     {11652, 2968, 1032, 3454, 546, 23744, 8256, 16, 0}},
    {ProtectionMode::Chipkill, "black",
     {35654, 2999, 1001, 2076, 1924, 23992, 8008, 48, 0}},
    {ProtectionMode::Chipkill, "stream",
     {14129, 2608, 1392, 2746, 1254, 20864, 11136, 16, 0}},
    {ProtectionMode::XedChipkill, "mcf",
     {13524, 3203, 797, 670, 3330, 25624, 6376, 16, 0}},
    {ProtectionMode::XedChipkill, "libquantum",
     {11652, 2968, 1032, 3454, 546, 23744, 8256, 16, 0}},
    {ProtectionMode::XedChipkill, "black",
     {35654, 2999, 1001, 2076, 1924, 23992, 8008, 48, 0}},
    {ProtectionMode::XedChipkill, "stream",
     {14129, 2608, 1392, 2746, 1254, 20864, 11136, 16, 0}},
    {ProtectionMode::DoubleChipkill, "mcf",
     {21595, 3203, 797, 531, 3469, 51248, 12752, 24, 0}},
    {ProtectionMode::DoubleChipkill, "libquantum",
     {20559, 2968, 1032, 3083, 917, 47488, 16512, 24, 0}},
    {ProtectionMode::DoubleChipkill, "black",
     {35654, 2999, 1001, 1863, 2137, 47984, 16016, 48, 0}},
    {ProtectionMode::DoubleChipkill, "stream",
     {22538, 2608, 1392, 2351, 1649, 41728, 22272, 32, 0}},
    {ProtectionMode::ChipkillExtraBurst, "mcf",
     {14718, 3203, 797, 683, 3317, 32030, 7970, 16, 0}},
    {ProtectionMode::ChipkillExtraBurst, "libquantum",
     {13471, 2968, 1032, 3509, 491, 29680, 10320, 16, 0}},
    {ProtectionMode::ChipkillExtraBurst, "black",
     {35667, 2999, 1001, 2084, 1916, 29990, 10010, 48, 0}},
    {ProtectionMode::ChipkillExtraBurst, "stream",
     {15909, 2608, 1392, 2694, 1306, 26080, 13920, 24, 0}},
    {ProtectionMode::DoubleChipkillExtraBurst, "mcf",
     {24762, 3203, 797, 537, 3463, 64060, 15940, 32, 0}},
    {ProtectionMode::DoubleChipkillExtraBurst, "libquantum",
     {23512, 2968, 1032, 3222, 778, 59360, 20640, 32, 0}},
    {ProtectionMode::DoubleChipkillExtraBurst, "black",
     {35662, 2999, 1001, 1877, 2123, 59980, 20020, 48, 0}},
    {ProtectionMode::DoubleChipkillExtraBurst, "stream",
     {26499, 2608, 1392, 2343, 1657, 52160, 27840, 32, 0}},
    {ProtectionMode::ChipkillExtraTransaction, "mcf",
     {16693, 3203, 797, 650, 3350, 38436, 9564, 24, 0}},
    {ProtectionMode::ChipkillExtraTransaction, "libquantum",
     {15627, 2968, 1032, 3553, 447, 35616, 12384, 24, 0}},
    {ProtectionMode::ChipkillExtraTransaction, "black",
     {35683, 2999, 1001, 2094, 1906, 35988, 12012, 48, 0}},
    {ProtectionMode::ChipkillExtraTransaction, "stream",
     {17528, 2608, 1392, 2746, 1254, 31296, 16704, 24, 0}},
    {ProtectionMode::DoubleChipkillExtraTransaction, "mcf",
     {28242, 3203, 797, 549, 3451, 76872, 19128, 40, 0}},
    {ProtectionMode::DoubleChipkillExtraTransaction, "libquantum",
     {30669, 2968, 1032, 3074, 926, 71232, 24768, 40, 0}},
    {ProtectionMode::DoubleChipkillExtraTransaction, "black",
     {35851, 2999, 1001, 1843, 2157, 71976, 24024, 48, 0}},
    {ProtectionMode::DoubleChipkillExtraTransaction, "stream",
     {31001, 2608, 1392, 2418, 1582, 62592, 33408, 40, 0}},
    {ProtectionMode::LotEcc, "mcf",
     {11663, 3203, 865, 746, 3322, 12812, 3460, 16, 68}},
    {ProtectionMode::LotEcc, "libquantum",
     {7537, 2968, 1114, 3639, 443, 11872, 4456, 8, 82}},
    {ProtectionMode::LotEcc, "black",
     {35658, 2999, 1080, 2167, 1912, 11996, 4320, 48, 79}},
    {ProtectionMode::LotEcc, "stream",
     {11754, 2608, 1513, 2957, 1164, 10432, 6052, 16, 121}},
};

/** Every component ticks on every memory cycle. */
RunResult
everyCycleReference(const Workload &workload, ProtectionMode mode,
                    const PerfConfig &config)
{
    const ModeEffects fx = modeEffects(mode);
    MemorySystem memory(config.timing, fx, config.seed ^ 0xBEEF);
    TraceGen::AddressSpace space;
    space.channels = fx.effectiveChannels;
    space.ranks = fx.effectiveRanks;
    std::vector<std::unique_ptr<Core>> cores;
    for (unsigned c = 0; c < config.cores; ++c)
        cores.push_back(std::make_unique<Core>(
            c, workload, config.coreParams, space, config.memOpsPerCore,
            config.seed + 1000003ull * (c + 1),
            config.timing.cpuCyclesPerMemCycle));

    std::uint64_t cycle = 0;
    std::uint64_t ticks = 0;
    std::uint64_t lastFinish = 0;
    for (; cycle < config.maxCycles; ++cycle) {
        ++ticks;
        memory.tick(cycle);
        bool allDone = true;
        for (auto &core : cores) {
            core->tick(cycle, memory);
            allDone &= core->finished();
        }
        if (allDone && memory.drained()) {
            for (const auto &core : cores)
                lastFinish = std::max(lastFinish, core->finishCycle());
            break;
        }
    }
    if (lastFinish == 0)
        lastFinish = cycle;

    RunResult result;
    result.cycles = std::max(lastFinish, cycle);
    result.ticks = ticks;
    result.stats = memory.stats();
    PowerConfig pc;
    pc.timing = config.timing;
    pc.currents = config.currents;
    pc.ioEnergyScale = fx.ioEnergyScale;
    result.power = computeMemoryPower(result.stats, result.cycles, pc);
    return result;
}

void
expectSameRun(const RunResult &got, const RunResult &want)
{
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.stats.reads, want.stats.reads);
    EXPECT_EQ(got.stats.writes, want.stats.writes);
    EXPECT_EQ(got.stats.rowHits, want.stats.rowHits);
    EXPECT_EQ(got.stats.rankActivates, want.stats.rankActivates);
    EXPECT_EQ(got.stats.bankActivates, want.stats.bankActivates);
    EXPECT_EQ(got.stats.readBusCycles, want.stats.readBusCycles);
    EXPECT_EQ(got.stats.writeBusCycles, want.stats.writeBusCycles);
    EXPECT_EQ(got.stats.refreshes, want.stats.refreshes);
    EXPECT_EQ(got.stats.extraWrites, want.stats.extraWrites);
    EXPECT_EQ(got.power.background, want.power.background);
    EXPECT_EQ(got.power.activate, want.power.activate);
    EXPECT_EQ(got.power.readWrite, want.power.readWrite);
    EXPECT_EQ(got.power.refresh, want.power.refresh);
}

class EventLoopMode : public ::testing::TestWithParam<ProtectionMode>
{
};

TEST_P(EventLoopMode, MatchesEveryCycleReference)
{
    std::vector<Workload> workloads;
    for (const char *name : {"mcf", "libquantum", "black", "stream"})
        workloads.push_back(workloadByName(name));
    // Two synthetic extremes: back-to-back reads that use the full
    // retire width and fill the ROB window, and a write storm that
    // fills the write queue so cores wait on queue room.
    workloads.push_back({"read-burst", Suite::Spec2006, 2000, 0.5, 0.1, 16});
    workloads.push_back({"write-storm", Suite::Spec2006, 2000, 0.2, 0.9, 4});
    for (const Workload &w : workloads) {
        for (const std::uint64_t seed : {0x5EEDull, 0xC0FFEEull}) {
            SCOPED_TRACE(w.name + " seed " + std::to_string(seed));
            PerfConfig cfg;
            cfg.memOpsPerCore = 500;
            cfg.seed = seed;
            const RunResult got = simulate(w, GetParam(), cfg);
            const RunResult want = everyCycleReference(w, GetParam(), cfg);
            expectSameRun(got, want);
            EXPECT_LT(got.ticks, want.ticks);
        }
    }
}

std::string
modeName(const ::testing::TestParamInfo<ProtectionMode> &info)
{
    std::string name = protectionModeName(info.param);
    for (auto &c : name)
        if (c == '-')
            c = '_';
    return name;
}

INSTANTIATE_TEST_SUITE_P(AllModes, EventLoopMode,
                         ::testing::ValuesIn(allModes), modeName);

TEST(EventLoop, MatchesRunsPinnedFromTheEveryChannelTick)
{
    PerfConfig cfg;
    cfg.memOpsPerCore = 500;
    for (const PinnedRun &pin : pinnedRuns) {
        const auto r =
            simulate(workloadByName(pin.workload), pin.mode, cfg);
        const MemStats &s = r.stats;
        const std::array<std::uint64_t, 9> got = {
            r.cycles,         s.reads,          s.writes,
            s.rowHits,        s.bankActivates,  s.readBusCycles,
            s.writeBusCycles, s.refreshes,      s.extraWrites};
        EXPECT_EQ(got, pin.counts)
            << protectionModeName(pin.mode) << " " << pin.workload;
    }
}

TEST(EventLoop, SkipsMostCyclesOfAComputeBoundRun)
{
    // A silent fallback to ticking every cycle fails here.
    PerfConfig cfg;
    cfg.memOpsPerCore = 500;
    const auto r =
        simulate(workloadByName("black"), ProtectionMode::Xed, cfg);
    EXPECT_GT(r.ticks, 0u);
    EXPECT_LT(r.ticks, r.cycles / 2);
}

} // namespace
} // namespace xed::perfsim
