/**
 * @file
 * USIMM-style DDR3 memory system: per-channel FR-FCFS scheduling over
 * per-bank state machines with JEDEC timing (tRCD/tRP/tCL/tRAS/tRRD/
 * tFAW/tWR/tRFC/tREFI), a write buffer with watermark-based draining,
 * and periodic refresh.
 *
 * Protection modes shape the system through ModeEffects: rank lockstep
 * reduces the number of independent ranks, channel ganging halves the
 * independent channels, extra-burst/extra-transaction modes stretch the
 * data-bus occupancy, and LOT-ECC spawns additional parity writes.
 *
 * Each channel keeps a wake cycle (DESIGN.md Section 4l): the earliest
 * cycle at which its tick can refresh or issue. tick() skips channels
 * whose wake cycle has not come, which is exact because their tick
 * would change nothing; enqueueing a request resets the wake.
 */

#ifndef XED_PERFSIM_MEMSYS_HH
#define XED_PERFSIM_MEMSYS_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hh"
#include "perfsim/ddr_timing.hh"
#include "perfsim/protection.hh"
#include "perfsim/request.hh"

namespace xed::perfsim
{

struct MemStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rowHits = 0;
    /** Activate events in x8-rank-equivalents (power accounting). */
    double rankActivates = 0;
    /** Bank-activate commands issued (scheduling statistic). */
    std::uint64_t bankActivates = 0;
    /** Data-bus cycles consumed by reads / writes (per physical bus). */
    std::uint64_t readBusCycles = 0;
    std::uint64_t writeBusCycles = 0;
    /** Per-rank refresh events. */
    std::uint64_t refreshes = 0;
    /** Extra writes injected by LOT-ECC parity updates. */
    std::uint64_t extraWrites = 0;
};

class MemorySystem
{
  public:
    MemorySystem(const TimingParams &timing, const ModeEffects &mode,
                 std::uint64_t seed = 0x9E);

    unsigned channels() const { return mode_.effectiveChannels; }

    bool canAcceptRead(unsigned channel) const;
    bool canAcceptWrite(unsigned channel) const;

    /** Hand a read to the controller; completion lands in req. */
    void enqueueRead(MemRequest *req);
    /** Posted write (no completion notification needed). */
    void enqueueWrite(const Address &addr);

    /** Advance one memory cycle: refresh + issue per channel whose
     *  wake cycle has come. Returns the reads served this cycle (at
     *  most one per channel), valid until the next tick. */
    std::span<MemRequest *const> tick(std::uint64_t now);

    /** Earliest cycle at which tick() can change state, given the
     *  requests queued so far; at most the next tick after an enqueue. */
    std::uint64_t wakeAt() const;

    /** True when every queue is empty. */
    bool drained() const;

    const MemStats &stats() const { return stats_; }
    const ModeEffects &mode() const { return mode_; }

  private:
    struct Bank
    {
        std::int64_t openRow = -1;
        /** Earliest cycle the next CAS may issue (tCCD-limited). */
        std::uint64_t nextCasAt = 0;
        /** Earliest cycle the row may be precharged (tRTP / tWR). */
        std::uint64_t prechargeableAt = 0;
    };

    struct RankState
    {
        /** tFAW history; negative sentinel = no prior activate. */
        std::int64_t actWindow[4] = {-(1 << 20), -(1 << 20), -(1 << 20),
                                     -(1 << 20)};
        unsigned actPtr = 0;
        std::int64_t lastActivate = -(1 << 20);
        std::uint64_t refreshUntil = 0;
        std::uint64_t nextRefreshAt = 0;
    };

    /** A queued access, with its bank (rank * banksPerRank + bank)
     *  and row inline so FR-FCFS scans touch only the queue. */
    struct Queued
    {
        unsigned bank = 0;
        unsigned row = 0;
        /** The read to complete; null for a posted write. */
        MemRequest *req = nullptr;
    };

    struct Channel
    {
        std::vector<Queued> readQ;  ///< oldest first
        std::vector<Queued> writeQ; ///< oldest first
        std::vector<Bank> banks;    ///< ranks x banksPerRank
        std::vector<RankState> ranks;
        std::uint64_t busFreeAt = 0;
        bool draining = false;
        /** Earliest cycle this channel's tick can change state. */
        std::uint64_t wakeAt = 0;
    };

    /** Refresh the ranks that are due; returns the next refresh cycle. */
    std::uint64_t refreshTick(Channel &ch, std::uint64_t now);
    /** Issue one request on the channel if possible; returns the
     *  earliest cycle at which it can issue again (see afterIssue;
     *  never with nothing queued). */
    std::uint64_t issueTick(Channel &ch, std::uint64_t now);
    /** Wake cycle of a channel that just issued. */
    static std::uint64_t afterIssue(const Channel &ch, std::uint64_t now);
    /** Reserve timing for an access; returns data-done cycle. */
    std::uint64_t serve(Channel &ch, const Queued &access, bool isWrite,
                        std::uint64_t now);

    static constexpr unsigned banksPerRank = 8;
    static constexpr std::size_t readQueueCap = 32;
    static constexpr std::size_t writeQueueCap = 64;
    static constexpr std::size_t drainHigh = 40;
    static constexpr std::size_t drainLow = 16;

    TimingParams timing_;
    ModeEffects mode_;
    Rng rng_;
    std::vector<Channel> channels_;
    /** Reads served by the current tick. */
    std::vector<MemRequest *> served_;
    MemStats stats_;
};

} // namespace xed::perfsim

#endif // XED_PERFSIM_MEMSYS_HH
