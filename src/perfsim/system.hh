/**
 * @file
 * Top-level performance simulation: 8 cores in rate mode over the
 * DDR3 memory system (Table V), one run per (workload, protection
 * mode). Reports execution time and memory power, the quantities
 * Figures 11-14 plot normalized to the ECC-DIMM SECDED baseline.
 */

#ifndef XED_PERFSIM_SYSTEM_HH
#define XED_PERFSIM_SYSTEM_HH

#include <cstdint>
#include <string>

#include "perfsim/core.hh"
#include "perfsim/power.hh"
#include "perfsim/protection.hh"
#include "perfsim/workloads.hh"

namespace xed::perfsim
{

struct PerfConfig
{
    unsigned cores = 8; ///< Table V
    /** Memory operations simulated per core (trace length). */
    std::uint64_t memOpsPerCore = 30000;
    TimingParams timing{};
    CoreParams coreParams{};
    PowerParams currents{};
    std::uint64_t seed = 0x5EED;
    /** Hard cap to guarantee termination. */
    std::uint64_t maxCycles = 500000000;
};

struct RunResult
{
    std::string mode;
    std::string workload;
    std::uint64_t cycles = 0; ///< memory cycles to finish all cores
    /** Cycles the event loop processed; the rest were skipped because
     *  no core or channel could change state in them. */
    std::uint64_t ticks = 0;
    double seconds = 0;
    MemStats stats{};
    PowerBreakdown power{};

    double memoryPowerWatts() const { return power.total(); }
};

/** Simulate one workload under one protection mode. The loop visits
 *  only the cycles at which some core or channel is due (DESIGN.md
 *  Section 4l); the result equals ticking every component every cycle. */
RunResult simulate(const Workload &workload, ProtectionMode mode,
                   const PerfConfig &config = {});

/** Convenience: exec-time and power of @p mode normalized to SECDED. */
struct NormalizedResult
{
    double execTime = 1.0;
    double memoryPower = 1.0;
};

NormalizedResult normalizedAgainstBaseline(const Workload &workload,
                                           ProtectionMode mode,
                                           const PerfConfig &config = {});

} // namespace xed::perfsim

#endif // XED_PERFSIM_SYSTEM_HH
