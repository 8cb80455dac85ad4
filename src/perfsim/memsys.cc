#include "perfsim/memsys.hh"

#include <algorithm>
#include <cassert>

namespace xed::perfsim
{

MemorySystem::MemorySystem(const TimingParams &timing,
                           const ModeEffects &mode, std::uint64_t seed)
    : timing_(timing), mode_(mode), rng_(seed)
{
    channels_.resize(mode_.effectiveChannels);
    served_.reserve(channels_.size());
    for (auto &ch : channels_) {
        ch.readQ.reserve(readQueueCap);
        ch.writeQ.reserve(writeQueueCap);
        ch.banks.resize(mode_.effectiveRanks * banksPerRank);
        ch.ranks.resize(mode_.effectiveRanks);
        // Stagger refresh across ranks to avoid artificial alignment.
        for (unsigned r = 0; r < mode_.effectiveRanks; ++r)
            ch.ranks[r].nextRefreshAt =
                (r + 1) * timing_.tREFI / (mode_.effectiveRanks + 1);
    }
}

bool
MemorySystem::canAcceptRead(unsigned channel) const
{
    return channels_[channel].readQ.size() < readQueueCap;
}

bool
MemorySystem::canAcceptWrite(unsigned channel) const
{
    return channels_[channel].writeQ.size() < writeQueueCap;
}

void
MemorySystem::enqueueRead(MemRequest *req)
{
    const Address &a = req->addr;
    assert(a.channel < channels_.size());
    auto &ch = channels_[a.channel];
    ch.readQ.push_back({a.rank * banksPerRank + a.bank, a.row, req});
    ch.wakeAt = 0;
}

void
MemorySystem::enqueueWrite(const Address &addr)
{
    auto &ch = channels_[addr.channel];
    const unsigned bank = addr.rank * banksPerRank + addr.bank;
    ch.writeQ.push_back({bank, addr.row});
    ch.wakeAt = 0;
    if (mode_.extraWriteProb > 0 &&
        rng_.bernoulli(mode_.extraWriteProb)) {
        // LOT-ECC second-tier parity update: a write to a different row
        // of the same bank (the T2EC region).
        if (ch.writeQ.size() < writeQueueCap)
            ch.writeQ.push_back({bank, (addr.row ^ 0x5555u) % 32768u});
        ++stats_.extraWrites;
    }
}

std::uint64_t
MemorySystem::refreshTick(Channel &ch, std::uint64_t now)
{
    for (unsigned r = 0; r < ch.ranks.size(); ++r) {
        auto &rank = ch.ranks[r];
        if (now < rank.nextRefreshAt)
            continue;
        rank.refreshUntil = now + timing_.tRFC;
        rank.nextRefreshAt += timing_.tREFI;
        stats_.refreshes += mode_.ranksPerAccess;
        for (unsigned b = 0; b < banksPerRank; ++b) {
            auto &bank = ch.banks[r * banksPerRank + b];
            bank.openRow = -1; // refresh closes all rows
            bank.nextCasAt = std::max<std::uint64_t>(bank.nextCasAt,
                                                     rank.refreshUntil);
            bank.prechargeableAt = std::max<std::uint64_t>(
                bank.prechargeableAt, rank.refreshUntil);
        }
    }
    std::uint64_t next = never;
    for (const auto &rank : ch.ranks)
        next = std::min(next, rank.nextRefreshAt);
    return next;
}

std::uint64_t
MemorySystem::serve(Channel &ch, const Queued &access, bool isWrite,
                    std::uint64_t now)
{
    auto &bank = ch.banks[access.bank];
    auto &rank = ch.ranks[access.bank / banksPerRank];
    const bool hit =
        bank.openRow == static_cast<std::int64_t>(access.row);

    std::uint64_t cas;
    if (!hit) {
        std::uint64_t start =
            std::max({now, bank.prechargeableAt, rank.refreshUntil});
        if (bank.openRow >= 0)
            start += timing_.tRP; // precharge the conflicting row
        const std::uint64_t act = static_cast<std::uint64_t>(std::max(
            {static_cast<std::int64_t>(start),
             rank.lastActivate + timing_.tRRD,
             rank.actWindow[rank.actPtr] + timing_.tFAW}));
        rank.actWindow[rank.actPtr] = static_cast<std::int64_t>(act);
        rank.actPtr = (rank.actPtr + 1) % 4;
        rank.lastActivate = static_cast<std::int64_t>(act);
        stats_.rankActivates += mode_.activateRankEquivalents;
        ++stats_.bankActivates;
        bank.openRow = access.row;
        cas = act + timing_.tRCD;
    } else {
        cas = std::max({now, bank.nextCasAt, rank.refreshUntil});
        ++stats_.rowHits;
    }

    const unsigned casLatency = isWrite ? timing_.tCWL : timing_.tCL;
    const unsigned burst =
        isWrite ? mode_.writeBurstCycles : mode_.readBurstCycles;
    std::uint64_t dataStart = std::max(cas + casLatency, ch.busFreeAt);
    ch.busFreeAt = dataStart + burst;
    const std::uint64_t dataDone = dataStart + burst;

    bank.nextCasAt = cas + std::max(timing_.tCCD, burst);
    bank.prechargeableAt =
        isWrite ? dataDone + timing_.tWR : cas + timing_.tRTP;
    if (isWrite) {
        ++stats_.writes;
        stats_.writeBusCycles += burst * mode_.gangedBuses;
    } else {
        ++stats_.reads;
        stats_.readBusCycles += burst * mode_.gangedBuses;
    }
    return dataDone;
}

std::uint64_t
MemorySystem::afterIssue(const Channel &ch, std::uint64_t now)
{
    // With both queues empty the next tick cannot issue, and the drain
    // flag is already clear: this tick saw at most one queued write.
    return ch.readQ.empty() && ch.writeQ.empty() ? never : now + 1;
}

std::uint64_t
MemorySystem::issueTick(Channel &ch, std::uint64_t now)
{
    // Write-drain hysteresis.
    if (ch.writeQ.size() >= drainHigh)
        ch.draining = true;
    else if (ch.writeQ.size() <= drainLow)
        ch.draining = false;

    const bool doWrites =
        ch.draining || (ch.readQ.empty() && !ch.writeQ.empty());

    if (doWrites && !ch.writeQ.empty()) {
        // FR-FCFS over the write queue: prefer a row hit that can
        // start now, else the oldest request.
        std::size_t pick = 0;
        for (std::size_t i = 0; i < ch.writeQ.size(); ++i) {
            const Queued &w = ch.writeQ[i];
            const Bank &bank = ch.banks[w.bank];
            if (bank.openRow == static_cast<std::int64_t>(w.row) &&
                bank.nextCasAt <= now) {
                pick = i;
                break;
            }
        }
        serve(ch, ch.writeQ[pick], true, now);
        ch.writeQ.erase(ch.writeQ.begin() +
                        static_cast<std::ptrdiff_t>(pick));
        return afterIssue(ch, now);
    }

    if (ch.readQ.empty())
        return never;
    std::size_t pick = 0;
    bool found = false;
    for (std::size_t i = 0; i < ch.readQ.size(); ++i) {
        const Queued &r = ch.readQ[i];
        const Bank &bank = ch.banks[r.bank];
        if (bank.openRow == static_cast<std::int64_t>(r.row) &&
            bank.nextCasAt <= now) {
            pick = i;
            found = true;
            break;
        }
    }
    if (!found) {
        // Oldest-first among requests whose bank is ready. A full pass
        // that finds none also yields the earliest cycle any queued
        // read can issue, as a row hit or after its bank's precharge.
        std::uint64_t wake = never;
        for (std::size_t i = 0; i < ch.readQ.size(); ++i) {
            const Queued &r = ch.readQ[i];
            const Bank &bank = ch.banks[r.bank];
            if (bank.prechargeableAt <= now) {
                pick = i;
                found = true;
                break;
            }
            std::uint64_t ready = bank.prechargeableAt;
            if (bank.openRow == static_cast<std::int64_t>(r.row))
                ready = std::min(ready, bank.nextCasAt);
            wake = std::min(wake, ready);
        }
        if (!found)
            return wake; // every bank is busy this cycle
    }
    const Queued read = ch.readQ[pick];
    ch.readQ.erase(ch.readQ.begin() + static_cast<std::ptrdiff_t>(pick));
    read.req->doneCycle =
        static_cast<std::int64_t>(serve(ch, read, false, now));
    served_.push_back(read.req);
    return afterIssue(ch, now);
}

std::span<MemRequest *const>
MemorySystem::tick(std::uint64_t now)
{
    served_.clear();
    for (auto &ch : channels_) {
        if (ch.wakeAt > now)
            continue; // this tick would neither refresh nor issue
        const std::uint64_t nextRefresh = refreshTick(ch, now);
        ch.wakeAt = std::min(nextRefresh, issueTick(ch, now));
    }
    return served_;
}

std::uint64_t
MemorySystem::wakeAt() const
{
    std::uint64_t wake = never;
    for (const auto &ch : channels_)
        wake = std::min(wake, ch.wakeAt);
    return wake;
}

bool
MemorySystem::drained() const
{
    for (const auto &ch : channels_)
        if (!ch.readQ.empty() || !ch.writeQ.empty())
            return false;
    return true;
}

} // namespace xed::perfsim
