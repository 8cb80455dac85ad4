/**
 * @file
 * perf_fig11: the Figure 11 run set -- every paper workload under the
 * SECDED baseline, XED, Chipkill, XED+Chipkill and Double-Chipkill --
 * through perfsim::simulate, single-threaded as bench/fig11 runs it,
 * at an ops-per-core the benchmark fixes.
 */

#include <cmath>
#include <string_view>

#include "perfsim/system.hh"
#include "workloads.hh"

namespace xedbench
{

using namespace xed;
using namespace xed::perfsim;

namespace
{

constexpr ProtectionMode modes[] = {
    ProtectionMode::SecdedBaseline, ProtectionMode::Xed,
    ProtectionMode::Chipkill, ProtectionMode::XedChipkill,
    ProtectionMode::DoubleChipkill};
const char *modeLabels[] = {"baseline", "xed", "chipkill", "xed_chipkill",
                            "double_chipkill"};
constexpr unsigned numModes = 5;

/** Physical DDR3 channels of the Table V system (bus-cycle base). */
constexpr double physicalBuses = 4.0;

/** Digest of every run's cycles and MemStats at defaultSeed. */
const char *recordedDigest = "aa83689dbc0ab7a1";

PerfConfig
perfConfig(const Options &options)
{
    PerfConfig cfg;
    cfg.memOpsPerCore = 1000;
    cfg.seed = mixSeed(PerfConfig{}.seed, options.seed);
    return cfg;
}

struct Run
{
    const Workload *workload = nullptr;
    unsigned mode = 0;
    std::uint64_t cycles = 0;
    MemStats stats{};
};

std::string
runsDigest(const std::vector<Run> &runs)
{
    Digest digest;
    for (const Run &run : runs) {
        digest.add(run.workload->name);
        digest.add(modeLabels[run.mode]);
        digest.add(run.cycles);
        const MemStats &s = run.stats;
        for (const std::uint64_t v :
             {s.reads, s.writes, s.rowHits, s.bankActivates,
              s.readBusCycles, s.writeBusCycles, s.refreshes,
              s.extraWrites})
            digest.add(v);
        digest.add(json::formatDouble(s.rankActivates));
    }
    return digest.hex();
}

/** The set-up calls before the first simulated cycle: the workload
 *  table, then the first run's memory system and cores. */
void
setUp(const PerfConfig &cfg)
{
    const auto &table = paperWorkloads();
    const ModeEffects fx = modeEffects(ProtectionMode::SecdedBaseline);
    MemorySystem memory(cfg.timing, fx, cfg.seed ^ 0xBEEF);
    TraceGen::AddressSpace space;
    space.channels = fx.effectiveChannels;
    space.ranks = fx.effectiveRanks;
    std::vector<std::unique_ptr<Core>> cores;
    for (unsigned c = 0; c < cfg.cores; ++c)
        cores.push_back(std::make_unique<Core>(
            c, table.front(), cfg.coreParams, space, cfg.memOpsPerCore,
            cfg.seed + 1000003ull * (c + 1),
            cfg.timing.cpuCyclesPerMemCycle));
}

std::vector<Run>
simulateAll(const PerfConfig &cfg, ThreadLog *log)
{
    std::vector<Run> runs;
    for (const Workload &w : paperWorkloads()) {
        for (unsigned m = 0; m < numModes; ++m) {
            Run run;
            run.workload = &w;
            run.mode = m;
            std::optional<Scope> span;
            if (log)
                span.emplace(*log, "perfsim.simulate", runs.size());
            const RunResult result = simulate(w, modes[m], cfg);
            span.reset();
            run.cycles = result.cycles;
            run.stats = result.stats;
            runs.push_back(run);
        }
    }
    return runs;
}

bool
lowMpki(const Run &run)
{
    return run.workload->mpki < 5;
}

bool
highMpki(const Run &run)
{
    return run.workload->mpki >= 10;
}

/** MemorySystem alone: ns per tick with empty queues, and with the
 *  read and write queues kept full from a pre-generated trace. */
void
probeMemsys(const PerfConfig &cfg, LayerSample &fixed)
{
    const ModeEffects fx = modeEffects(ProtectionMode::SecdedBaseline);
    const std::uint64_t cycles = 400000;
    {
        MemorySystem memory(cfg.timing, fx, cfg.seed);
        const auto t0 = Clock::now();
        for (std::uint64_t now = 0; now < cycles; ++now)
            memory.tick(now);
        fixed["perfsim.memsys_ns_per_cycle.idle"] =
            secondsSince(t0) * 1e9 / static_cast<double>(cycles);
    }
    TraceGen::AddressSpace space;
    space.channels = fx.effectiveChannels;
    space.ranks = fx.effectiveRanks;
    TraceGen gen(workloadByName("mcf"), space, cfg.seed);
    std::vector<MemOp> ops(1 << 16);
    for (MemOp &op : ops)
        op = gen.next();
    std::vector<MemRequest> pool(1024);
    std::size_t nextOp = 0, nextSlot = 0;
    MemorySystem memory(cfg.timing, fx, cfg.seed);
    const auto t0 = Clock::now();
    for (std::uint64_t now = 0; now < cycles; ++now) {
        for (unsigned k = 0; k < 4; ++k) {
            const MemOp &op = ops[nextOp % ops.size()];
            if (op.isWrite) {
                if (!memory.canAcceptWrite(op.addr.channel))
                    break;
                memory.enqueueWrite(op.addr);
            } else {
                MemRequest &req = pool[nextSlot % pool.size()];
                const bool free = req.done() || req.arrivalCycle == 0;
                if (!free || !memory.canAcceptRead(op.addr.channel))
                    break;
                req = MemRequest{};
                req.addr = op.addr;
                req.arrivalCycle = now + 1;
                memory.enqueueRead(&req);
                ++nextSlot;
            }
            ++nextOp;
        }
        memory.tick(now);
    }
    fixed["perfsim.memsys_ns_per_cycle.busy"] =
        secondsSince(t0) * 1e9 / static_cast<double>(cycles);
}

/** Probe results land here so the timed loops are not optimized out. */
volatile std::uint64_t keep = 0;

void
probeTraceGenAndPower(const PerfConfig &cfg, const std::vector<Run> &runs,
                      LayerSample &fixed)
{
    TraceGen::AddressSpace space;
    const std::uint64_t perWorkload = 20000;
    std::uint64_t sink = 0, ops = 0;
    const auto t0 = Clock::now();
    for (const Workload &w : paperWorkloads()) {
        TraceGen gen(w, space, cfg.seed);
        for (std::uint64_t i = 0; i < perWorkload; ++i, ++ops)
            sink += gen.next().addr.row;
    }
    fixed["perfsim.tracegen_ns_per_op"] =
        secondsSince(t0) * 1e9 / static_cast<double>(ops);
    keep = sink;

    // The PowerConfig each run's simulate() builds.
    std::vector<PowerConfig> configs(numModes);
    for (unsigned m = 0; m < numModes; ++m) {
        configs[m].timing = cfg.timing;
        configs[m].currents = cfg.currents;
        configs[m].ioEnergyScale = modeEffects(modes[m]).ioEnergyScale;
    }
    constexpr unsigned passes = 50;
    double watts = 0;
    const auto t1 = Clock::now();
    for (unsigned p = 0; p < passes; ++p)
        for (const Run &run : runs)
            watts += computeMemoryPower(run.stats, run.cycles,
                                        configs[run.mode])
                         .total();
    fixed["perfsim.power_us_per_run"] =
        secondsSince(t1) * 1e6 / (passes * runs.size());
    keep = static_cast<std::uint64_t>(watts);
}

} // namespace

Outcome
runPerfWorkload(const Options &options)
{
    Outcome out;
    const PerfConfig cfg = perfConfig(options);
    out.provenance.set("memOpsPerCore", cfg.memOpsPerCore);
    out.provenance.set("perfSeed", cfg.seed);
    out.provenance.set("perfThreads", 1u);

    const auto timedSetUp = [&] {
        const auto t0 = Clock::now();
        setUp(cfg);
        return secondsSince(t0);
    };

    const double units = static_cast<double>(paperWorkloads().size()) *
                         numModes * cfg.cores * cfg.memOpsPerCore;
    RepTimes times;
    std::vector<Run> last;
    std::vector<LayerSample> samples;
    std::unique_ptr<Recorder> lastTrace;

    const auto untraced = [&](bool timed) {
        const double cpu0 = processCpuSeconds();
        const auto t0 = Clock::now();
        last = simulateAll(cfg, nullptr);
        const double wall = secondsSince(t0);
        const double cpu = processCpuSeconds() - cpu0;
        if (out.runOutputs.empty())
            out.runOutputs = runsDigest(last);
        else
            out.checks.check(runsDigest(last) == out.runOutputs,
                             "simulated statistics repeat across runs");
        if (timed) {
            times.wall.push_back(wall);
            times.cpu.push_back(cpu);
        }
    };
    const auto traced = [&] {
        auto rec = std::make_unique<Recorder>();
        ThreadLog log(*rec, 0);
        const auto t0 = Clock::now();
        const std::size_t root = log.open("bench.replay");
        {
            Scope span(log, "perfsim.setup");
            setUp(cfg);
        }
        const std::vector<Run> runs = simulateAll(cfg, &log);
        log.close(root);
        const double wall = secondsSince(t0);
        out.replayOutputs = runsDigest(runs);
        out.checks.check(out.replayOutputs == out.runOutputs,
                         "traced replay cycles and MemStats equal the run's");

        LayerSample l;
        std::vector<double> modeSeconds(numModes, 0.0);
        double lowNs = 0, highNs = 0, lowCycles = 0, highCycles = 0;
        for (const Span &span : log.spans()) {
            if (std::string_view(span.name) != "perfsim.simulate")
                continue;
            const Run &run = runs[span.id];
            modeSeconds[run.mode] += static_cast<double>(span.durNs()) * 1e-9;
            if (lowMpki(run)) {
                lowNs += static_cast<double>(span.durNs());
                lowCycles += static_cast<double>(run.cycles);
            } else if (highMpki(run)) {
                highNs += static_cast<double>(span.durNs());
                highCycles += static_cast<double>(run.cycles);
            }
        }
        const double perMode = static_cast<double>(paperWorkloads().size());
        for (unsigned m = 0; m < numModes; ++m)
            l[std::string("perfsim.simulate_ms.") + modeLabels[m]] =
                modeSeconds[m] * 1e3 / perMode;
        l["perfsim.host_ns_per_cycle.low_mpki"] = lowNs / lowCycles;
        l["perfsim.host_ns_per_cycle.high_mpki"] = highNs / highCycles;
        rec->adopt(std::move(log));
        const auto self = rec->layerSelfSeconds(0);
        l["bench.unattributed_frac"] =
            (self.count("bench") ? self.at("bench") : 0.0) / wall;
        out.checks.check(l["bench.unattributed_frac"] <= layerSumSlack,
                         "layer self times sum to the traced wall time");
        times.traced.push_back(wall);
        samples.push_back(std::move(l));
        lastTrace = std::move(rec);
    };
    repeatFor(options, 3, timedSetUp, untraced, traced, times);

    // Output checks on the last untraced run.
    double logSum[numModes] = {};
    std::vector<double> baselineCycles;
    for (const Run &run : last) {
        out.checks.check(run.cycles > 0 && run.cycles < cfg.maxCycles,
                         run.workload->name + "/" + modeLabels[run.mode] +
                             ": finished below maxCycles");
        if (run.mode == 0)
            baselineCycles.push_back(static_cast<double>(run.cycles));
        else
            logSum[run.mode] +=
                std::log(static_cast<double>(run.cycles) /
                         baselineCycles.back());
    }
    out.digest = runsDigest(last);
    if (options.seed == defaultSeed)
        out.checks.check(out.digest == recordedDigest,
                         "outputs match the recorded digest (got " +
                             out.digest + ")");

    if (!options.trace) {
        emitEndToEnd(out, times, units);
        return out;
    }

    LayerSample fixed;
    std::vector<double> gmeans;
    for (unsigned m = 1; m < numModes; ++m)
        gmeans.push_back(
            std::exp(logSum[m] / static_cast<double>(baselineCycles.size())));
    fixed["paper_dev"] = paperDeviation(gmeans, {1.00, 1.21, 1.21, 1.82});
    double cycles = 0, rowHits = 0, accesses = 0;
    double lowBus = 0, lowBase = 0, highBus = 0, highBase = 0;
    for (const Run &run : last) {
        const double c = static_cast<double>(run.cycles);
        const double bus = static_cast<double>(run.stats.readBusCycles +
                                               run.stats.writeBusCycles);
        cycles += c;
        rowHits += static_cast<double>(run.stats.rowHits);
        accesses += static_cast<double>(run.stats.reads + run.stats.writes);
        if (lowMpki(run)) {
            lowBus += bus;
            lowBase += c * physicalBuses;
        } else if (highMpki(run)) {
            highBus += bus;
            highBase += c * physicalBuses;
        }
    }
    fixed["perfsim.sim_cycles"] = cycles;
    fixed["perfsim.row_hit_rate"] = rowHits / accesses;
    fixed["perfsim.bus_util.low_mpki"] = lowBus / lowBase;
    fixed["perfsim.bus_util.high_mpki"] = highBus / highBase;
    fixed["sim_cycles_per_s"] = cycles / median(times.wall);
    probeMemsys(cfg, fixed);
    probeTraceGenAndPower(cfg, last, fixed);
    emitPerLayer(out, samples, fixed, times);
    if (lastTrace && !options.spansPath.empty())
        lastTrace->writeJsonl(options.spansPath);
    return out;
}

} // namespace xedbench
