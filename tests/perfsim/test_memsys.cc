#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "perfsim/memsys.hh"

namespace xed::perfsim
{
namespace
{

class MemsysTest : public ::testing::Test
{
  protected:
    MemsysTest()
        : fx(modeEffects(ProtectionMode::SecdedBaseline)),
          mem(timing, fx)
    {
    }

    /** Run until the request completes; returns its done cycle. */
    std::int64_t
    runUntilDone(MemRequest &req, std::uint64_t start = 0)
    {
        for (std::uint64_t c = start; c < start + 100000; ++c) {
            mem.tick(c);
            if (req.done())
                return req.doneCycle;
        }
        return -1;
    }

    TimingParams timing;
    ModeEffects fx;
    MemorySystem mem;
};

TEST_F(MemsysTest, ClosedBankReadLatency)
{
    MemRequest req;
    req.addr = {0, 0, 0, 100, 5};
    mem.enqueueRead(&req);
    const auto done = runUntilDone(req);
    // ACT at cycle 0, CAS at tRCD, data done tCL + tBurst later.
    EXPECT_EQ(done, static_cast<std::int64_t>(timing.tRCD + timing.tCL +
                                              timing.tBurst));
    EXPECT_EQ(mem.stats().reads, 1u);
    EXPECT_EQ(mem.stats().bankActivates, 1u);
    EXPECT_EQ(mem.stats().rowHits, 0u);
}

TEST_F(MemsysTest, RowHitReadIsFaster)
{
    MemRequest first;
    first.addr = {0, 0, 0, 100, 5};
    mem.enqueueRead(&first);
    const auto t1 = runUntilDone(first);
    ASSERT_GT(t1, 0);

    MemRequest hit;
    hit.addr = {0, 0, 0, 100, 6};
    mem.enqueueRead(&hit);
    const auto start = static_cast<std::uint64_t>(t1) + 1;
    const auto t2 = runUntilDone(hit, start);
    EXPECT_EQ(t2, static_cast<std::int64_t>(start + timing.tCL +
                                            timing.tBurst));
    EXPECT_EQ(mem.stats().rowHits, 1u);
    EXPECT_EQ(mem.stats().bankActivates, 1u);
}

TEST_F(MemsysTest, RowConflictPaysPrecharge)
{
    MemRequest first;
    first.addr = {0, 0, 0, 100, 5};
    mem.enqueueRead(&first);
    const auto t1 = runUntilDone(first);
    ASSERT_GT(t1, 0);

    MemRequest conflict;
    conflict.addr = {0, 0, 0, 200, 5}; // same bank, other row
    mem.enqueueRead(&conflict);
    // Bank must respect tRTP after the read, then tRP + tRCD + tCL.
    const auto t2 = runUntilDone(conflict,
                                 static_cast<std::uint64_t>(t1) + 1);
    EXPECT_GT(t2, t1 + static_cast<std::int64_t>(timing.tRP +
                                                 timing.tRCD +
                                                 timing.tCL));
    EXPECT_EQ(mem.stats().bankActivates, 2u);
}

TEST_F(MemsysTest, IndependentBanksOverlap)
{
    MemRequest a, b;
    a.addr = {0, 0, 0, 100, 5};
    b.addr = {0, 0, 1, 100, 5};
    mem.enqueueRead(&a);
    mem.enqueueRead(&b);
    for (std::uint64_t c = 0; c < 1000 && !(a.done() && b.done()); ++c)
        mem.tick(c);
    ASSERT_TRUE(a.done() && b.done());
    // b's activation overlaps a's; b completes one burst after a
    // (bus-serialized), far sooner than a serial ACT+CAS would allow.
    EXPECT_LE(b.doneCycle, a.doneCycle + static_cast<std::int64_t>(
                                             timing.tBurst + timing.tRRD));
}

TEST_F(MemsysTest, FrFcfsPrefersRowHit)
{
    // Open row 100, then enqueue a conflict (older) and a hit (younger)
    // together: the hit must complete first.
    MemRequest opener;
    opener.addr = {0, 0, 0, 100, 0};
    mem.enqueueRead(&opener);
    const auto t1 = runUntilDone(opener);
    ASSERT_GT(t1, 0);

    MemRequest conflict, hit;
    conflict.addr = {0, 0, 0, 300, 0};
    hit.addr = {0, 0, 0, 100, 9};
    mem.enqueueRead(&conflict);
    mem.enqueueRead(&hit);
    for (std::uint64_t c = static_cast<std::uint64_t>(t1) + 1;
         c < 100000 && !(conflict.done() && hit.done()); ++c)
        mem.tick(c);
    ASSERT_TRUE(conflict.done() && hit.done());
    EXPECT_LT(hit.doneCycle, conflict.doneCycle);
}

TEST_F(MemsysTest, WritesDrainEventually)
{
    for (int i = 0; i < 10; ++i)
        mem.enqueueWrite({0, 0, static_cast<unsigned>(i % 8), 50, 0});
    EXPECT_FALSE(mem.drained());
    for (std::uint64_t c = 0; c < 100000 && !mem.drained(); ++c)
        mem.tick(c);
    EXPECT_TRUE(mem.drained());
    EXPECT_EQ(mem.stats().writes, 10u);
}

TEST_F(MemsysTest, RefreshHappensEveryTrefi)
{
    for (std::uint64_t c = 0; c < 3 * timing.tREFI + 10; ++c)
        mem.tick(c);
    // 4 channels x 2 ranks, ~3 refreshes each (x ranksPerAccess = 1).
    EXPECT_GE(mem.stats().refreshes, 4u * 2u * 2u);
    EXPECT_LE(mem.stats().refreshes, 4u * 2u * 4u);
}

TEST_F(MemsysTest, LockstepModeUsesLongBursts)
{
    const auto ck = modeEffects(ProtectionMode::Chipkill);
    MemorySystem ckMem(timing, ck);
    MemRequest req;
    req.addr = {0, 0, 0, 100, 5};
    ckMem.enqueueRead(&req);
    for (std::uint64_t c = 0; c < 1000 && !req.done(); ++c)
        ckMem.tick(c);
    ASSERT_TRUE(req.done());
    EXPECT_EQ(ckMem.stats().readBusCycles, 8u);
    EXPECT_DOUBLE_EQ(ckMem.stats().rankActivates,
                     ck.activateRankEquivalents);
    EXPECT_EQ(ckMem.stats().bankActivates, 1u);
}

TEST_F(MemsysTest, LotEccSpawnsExtraWrites)
{
    const auto lot = modeEffects(ProtectionMode::LotEcc);
    MemorySystem lotMem(timing, lot, 99);
    for (int i = 0; i < 2000; ++i)
        lotMem.enqueueWrite({0, 0, 0, static_cast<unsigned>(i % 32768),
                             0});
    // ~10% of writes spawn a parity update.
    EXPECT_GT(lotMem.stats().extraWrites, 120u);
    EXPECT_LT(lotMem.stats().extraWrites, 280u);
}

TEST_F(MemsysTest, TickingOnlyAtWakeCyclesIsExact)
{
    // A dense read/write burst across the first refresh of rank 0
    // (tREFI / 3 = 2080), then a sparse tail across rank 1's at 4160.
    // One memory system ticks on every cycle, the other only at its
    // wake cycles and at the arrivals; both must serve every read at
    // the same cycle and count the same events.
    struct Arrival
    {
        std::uint64_t cycle;
        bool isWrite;
        Address addr;
    };
    std::vector<Arrival> arrivals;
    std::uint64_t lcg = 12345;
    for (unsigned i = 0; i < 900; ++i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        const auto bits = static_cast<unsigned>(lcg >> 32);
        Arrival a;
        a.cycle = i < 500 ? 2000 + i / 4 : 2125 + 5 * (i - 500);
        a.isWrite = bits % 3 == 0;
        a.addr = {(bits >> 2) % 4, (bits >> 4) % 2, (bits >> 5) % 8,
                  (bits >> 8) % 4, 0};
        arrivals.push_back(a);
    }

    struct Run
    {
        std::vector<MemRequest> reads;
        std::vector<bool> accepted;
        MemStats stats;
        std::uint64_t ticks = 0;
    };
    const auto run = [&](bool everyCycle) {
        MemorySystem m(timing, fx, 7);
        Run out;
        out.reads.resize(arrivals.size());
        std::size_t next = 0;
        for (std::uint64_t now = 0; now < 3 * timing.tREFI;) {
            ++out.ticks;
            m.tick(now);
            for (; next < arrivals.size() && arrivals[next].cycle == now;
                 ++next) {
                const Arrival &a = arrivals[next];
                bool ok;
                if (a.isWrite) {
                    ok = m.canAcceptWrite(a.addr.channel);
                    if (ok)
                        m.enqueueWrite(a.addr);
                } else {
                    ok = m.canAcceptRead(a.addr.channel);
                    out.reads[next].addr = a.addr;
                    if (ok)
                        m.enqueueRead(&out.reads[next]);
                }
                out.accepted.push_back(ok);
            }
            std::uint64_t wake =
                everyCycle ? now + 1 : std::max(now + 1, m.wakeAt());
            if (next < arrivals.size())
                wake = std::min(wake, arrivals[next].cycle);
            now = wake;
        }
        EXPECT_TRUE(m.drained());
        out.stats = m.stats();
        return out;
    };

    const Run every = run(true);
    const Run woken = run(false);
    EXPECT_LT(woken.ticks, every.ticks / 4);
    EXPECT_EQ(woken.accepted, every.accepted);
    EXPECT_LT(std::count(every.accepted.begin(), every.accepted.end(),
                         true),
              static_cast<std::ptrdiff_t>(arrivals.size()))
        << "the burst should overflow a queue";
    for (std::size_t i = 0; i < arrivals.size(); ++i)
        EXPECT_EQ(woken.reads[i].doneCycle, every.reads[i].doneCycle)
            << "arrival " << i;
    EXPECT_EQ(woken.stats.reads, every.stats.reads);
    EXPECT_EQ(woken.stats.writes, every.stats.writes);
    EXPECT_EQ(woken.stats.rowHits, every.stats.rowHits);
    EXPECT_EQ(woken.stats.rankActivates, every.stats.rankActivates);
    EXPECT_EQ(woken.stats.bankActivates, every.stats.bankActivates);
    EXPECT_EQ(woken.stats.readBusCycles, every.stats.readBusCycles);
    EXPECT_EQ(woken.stats.writeBusCycles, every.stats.writeBusCycles);
    EXPECT_EQ(woken.stats.refreshes, every.stats.refreshes);
    EXPECT_GT(every.stats.rowHits, 0u);
}

TEST_F(MemsysTest, QueueCapacityEnforced)
{
    std::vector<std::unique_ptr<MemRequest>> reqs;
    unsigned accepted = 0;
    while (mem.canAcceptRead(0)) {
        reqs.push_back(std::make_unique<MemRequest>());
        reqs.back()->addr = {0, 0, 0, accepted, 0};
        mem.enqueueRead(reqs.back().get());
        ++accepted;
    }
    EXPECT_EQ(accepted, 32u);
}

} // namespace
} // namespace xed::perfsim
