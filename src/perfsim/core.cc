#include "perfsim/core.hh"

#include <algorithm>
#include <cmath>

namespace xed::perfsim
{

Core::Core(unsigned id, const Workload &workload, const CoreParams &params,
           const TraceGen::AddressSpace &space, std::uint64_t memOpBudget,
           std::uint64_t seed, unsigned cpuCyclesPerMemCycle)
    : id_(id), params_(params), gen_(workload, space, seed),
      memOpBudget_(memOpBudget), cpuPerMem_(cpuCyclesPerMemCycle),
      window_(std::min(params.maxMlp, std::max(1u, workload.mlp))),
      rob_(window_)
{
}

bool
Core::computeBusy(std::uint64_t now) const
{
    const double cpuNow = static_cast<double>(now * cpuPerMem_);
    return computeReadyCpu_ > cpuNow + cpuPerMem_ - 1;
}

bool
Core::queueFreed(const MemorySystem &memory) const
{
    if (!queueStalled_)
        return false;
    const unsigned channel = pending_.addr.channel;
    return pending_.isWrite ? memory.canAcceptWrite(channel)
                            : memory.canAcceptRead(channel);
}

void
Core::readServed(const MemRequest &req)
{
    if (waitsOnRetire_)
        wakeAt_ = std::min(wakeAt_,
                           static_cast<std::uint64_t>(req.doneCycle));
}

void
Core::tick(std::uint64_t now, MemorySystem &memory)
{
    if (finished_)
        return;
    const double cpuNow = static_cast<double>(now * cpuPerMem_);

    // Retire completed reads in program order (ROB head semantics).
    while (robCount_ > 0 && robHead().done() &&
           robHead().doneCycle <= static_cast<std::int64_t>(now)) {
        robHead_ = (robHead_ + 1) % window_;
        --robCount_;
    }

    // Issue as much of the in-order stream as this cycle allows. Each
    // break records what the core waits on.
    wakeAt_ = never;
    queueStalled_ = false;
    waitsOnRetire_ = false;
    unsigned issued = 0;
    for (; issued < params_.retireWidth; ++issued) {
        if (!hasPending_) {
            if (opsIssued_ >= memOpBudget_) {
                waitsOnRetire_ = true; // to finish
                break;
            }
            pending_ = gen_.next();
            // The preceding non-memory instructions execute at the
            // sustained non-memory IPC.
            computeReadyCpu_ =
                std::max(computeReadyCpu_, cpuNow) +
                static_cast<double>(pending_.gapInstrs) /
                    params_.nonMemIpc;
            hasPending_ = true;
        }
        if (computeBusy(now)) {
            // Still chewing through compute: wake at the first cycle
            // the same gate passes, starting from the rounded estimate.
            std::uint64_t ready = now + 1;
            const double estimate =
                std::ceil((computeReadyCpu_ + 1) / cpuPerMem_) - 1;
            if (estimate > static_cast<double>(ready))
                ready = static_cast<std::uint64_t>(estimate);
            while (ready > now + 1 && !computeBusy(ready - 1))
                --ready;
            while (computeBusy(ready))
                ++ready;
            wakeAt_ = ready;
            break;
        }
        const unsigned channel = pending_.addr.channel;
        if (pending_.isWrite) {
            if (!memory.canAcceptWrite(channel)) {
                queueStalled_ = true; // write buffer back-pressure
                break;
            }
            memory.enqueueWrite(pending_.addr);
        } else {
            if (robCount_ >= window_) {
                waitsOnRetire_ = true; // ROB / MLP limit
                break;
            }
            if (!memory.canAcceptRead(channel)) {
                queueStalled_ = true;
                break;
            }
            MemRequest &req = rob_[(robHead_ + robCount_) % window_];
            req = MemRequest{};
            req.addr = pending_.addr;
            req.core = id_;
            req.arrivalCycle = now;
            memory.enqueueRead(&req);
            ++robCount_;
        }
        hasPending_ = false;
        ++opsIssued_;
    }
    if (issued == params_.retireWidth)
        wakeAt_ = now + 1; // retire width used up

    if (opsIssued_ >= memOpBudget_ && !hasPending_ && robCount_ == 0) {
        finished_ = true;
        finishCycle_ = std::max(
            now, static_cast<std::uint64_t>(
                     std::ceil(computeReadyCpu_ / cpuPerMem_)));
        wakeAt_ = never;
    } else if (waitsOnRetire_ && robHead().done()) {
        // A served head retires at its done cycle; an unserved one
        // wakes the core when the memory system serves it. Retiring
        // while the core is busy otherwise is left to its next tick.
        wakeAt_ = static_cast<std::uint64_t>(robHead().doneCycle);
    }
}

} // namespace xed::perfsim
