/**
 * @file
 * ROB-limited core model (USIMM-style front end, Table V: 160-entry
 * ROB, 4-wide retire, 3.2GHz).
 *
 * Each core consumes its trace in program order. Non-memory
 * instructions retire at 4 per CPU cycle; reads are issued to the
 * memory system and the core stalls when its achievable memory-level
 * parallelism (bounded by the ROB and by the workload's dependence
 * structure) is exhausted; writes are posted through the write buffer
 * and never stall retirement.
 *
 * Every tick also yields the core's wake cycle (DESIGN.md Section 4l):
 * the earliest cycle at which its next tick can change state on its
 * own. A core stalled on the memory system has no wake cycle; it is
 * woken when its full queue gains room (queueFreed), or when a read is
 * served while it waits on its ROB head (readServed).
 */

#ifndef XED_PERFSIM_CORE_HH
#define XED_PERFSIM_CORE_HH

#include <cstdint>
#include <vector>

#include "perfsim/ddr_timing.hh"
#include "perfsim/memsys.hh"
#include "perfsim/tracegen.hh"

namespace xed::perfsim
{

class Core
{
  public:
    Core(unsigned id, const Workload &workload, const CoreParams &params,
         const TraceGen::AddressSpace &space, std::uint64_t memOpBudget,
         std::uint64_t seed, unsigned cpuCyclesPerMemCycle);

    /** Advance one memory cycle. */
    void tick(std::uint64_t now, MemorySystem &memory);

    /** Earliest cycle after the last tick at which tick() can change
     *  this core's state without a memory-system event; never while
     *  it waits on one (or once finished). */
    std::uint64_t wakeAt() const { return wakeAt_; }
    /** True when the pending op is held back by a full memory queue
     *  that has room again, so the next tick can issue it. */
    bool queueFreed(const MemorySystem &memory) const;
    /** The memory system served one of this core's reads: a core
     *  that cannot go on until its ROB head retires (window full, or
     *  trace done) wakes at the read's done cycle. */
    void readServed(const MemRequest &req);

    bool finished() const { return finished_; }
    std::uint64_t finishCycle() const { return finishCycle_; }
    std::uint64_t opsIssued() const { return opsIssued_; }

  private:
    /** The issue gate: the pending op's preceding non-memory work is
     *  still executing during memory cycle @p now. */
    bool computeBusy(std::uint64_t now) const;
    MemRequest &robHead() { return rob_[robHead_]; }

    unsigned id_;
    CoreParams params_;
    TraceGen gen_;
    std::uint64_t memOpBudget_;
    unsigned cpuPerMem_;
    /** Outstanding-read limit: min(workload MLP, core cap). */
    unsigned window_;

    /** Outstanding reads in program order: a ring of window_ slots. A
     *  slot is reused only after its read retires, so the memory
     *  system's pointers into it stay valid while the read is queued. */
    std::vector<MemRequest> rob_;
    unsigned robHead_ = 0;
    unsigned robCount_ = 0;
    MemOp pending_{};
    bool hasPending_ = false;
    /** The pending op waits on its channel's full read/write queue. */
    bool queueStalled_ = false;
    /** The core waits on its ROB head to retire. */
    bool waitsOnRetire_ = false;
    double computeReadyCpu_ = 0; ///< CPU cycle the next op is ready
    std::uint64_t opsIssued_ = 0;
    bool finished_ = false;
    std::uint64_t finishCycle_ = 0;
    std::uint64_t wakeAt_ = 0;
};

} // namespace xed::perfsim

#endif // XED_PERFSIM_CORE_HH
