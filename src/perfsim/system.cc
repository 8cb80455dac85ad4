#include "perfsim/system.hh"

#include <algorithm>
#include <memory>
#include <vector>

#include "obs/trace.hh"

namespace xed::perfsim
{

RunResult
simulate(const Workload &workload, ProtectionMode mode,
         const PerfConfig &config)
{
    XED_TRACE_SPAN_ARG("perfsim.simulate", "perfsim", "memOpsPerCore",
                       config.memOpsPerCore);
    const ModeEffects fx = modeEffects(mode);
    MemorySystem memory(config.timing, fx, config.seed ^ 0xBEEF);

    TraceGen::AddressSpace space;
    space.channels = fx.effectiveChannels;
    space.ranks = fx.effectiveRanks;

    std::vector<std::unique_ptr<Core>> cores;
    for (unsigned c = 0; c < config.cores; ++c) {
        cores.push_back(std::make_unique<Core>(
            c, workload, config.coreParams, space, config.memOpsPerCore,
            config.seed + 1000003ull * (c + 1),
            config.timing.cpuCyclesPerMemCycle));
    }

    // Each processed cycle ticks the due channels, then the due cores
    // in id order -- the order of a full tick -- and jumps to the next
    // wake cycle. A core is due at its wake cycle, which a served read
    // can bring forward, or when its full queue has gained room.
    std::uint64_t cycle = 0;
    std::uint64_t ticks = 0;
    std::uint64_t lastFinish = 0;
    while (cycle < config.maxCycles) {
        ++ticks;
        for (const MemRequest *req : memory.tick(cycle))
            cores[req->core]->readServed(*req);
        bool allDone = true;
        for (auto &core : cores) {
            if (core->wakeAt() <= cycle || core->queueFreed(memory))
                core->tick(cycle, memory);
            allDone &= core->finished();
        }
        if (allDone && memory.drained()) {
            for (const auto &core : cores)
                lastFinish = std::max(lastFinish, core->finishCycle());
            break;
        }
        std::uint64_t next = memory.wakeAt();
        for (const auto &core : cores)
            next = std::min(next, core->wakeAt());
        cycle = std::min(std::max(cycle + 1, next), config.maxCycles);
    }
    if (lastFinish == 0)
        lastFinish = cycle;

    RunResult result;
    result.mode = fx.label;
    result.workload = workload.name;
    result.cycles = std::max(lastFinish, cycle);
    result.ticks = ticks;
    result.seconds =
        static_cast<double>(result.cycles) * config.timing.tCkSeconds;
    result.stats = memory.stats();

    PowerConfig pc;
    pc.timing = config.timing;
    pc.currents = config.currents;
    pc.ioEnergyScale = fx.ioEnergyScale;
    result.power = computeMemoryPower(result.stats, result.cycles, pc);
    return result;
}

NormalizedResult
normalizedAgainstBaseline(const Workload &workload, ProtectionMode mode,
                          const PerfConfig &config)
{
    const auto baseline =
        simulate(workload, ProtectionMode::SecdedBaseline, config);
    const auto run = simulate(workload, mode, config);
    NormalizedResult out;
    out.execTime = static_cast<double>(run.cycles) /
                   static_cast<double>(baseline.cycles);
    out.memoryPower =
        run.memoryPowerWatts() / baseline.memoryPowerWatts();
    return out;
}

} // namespace xed::perfsim
