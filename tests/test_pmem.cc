/**
 * @file
 * Unit tests for the PM/cache persistency model — the substrate the
 * paper's definitions (§4.2) are executed against. Each test checks
 * one clause of the x86 semantics: weakly-ordered CLWB/CLFLUSHOPT,
 * store-ordered CLFLUSH, non-temporal stores, fence draining,
 * eviction injection, and crash imaging.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "pmem/pm_pool.hh"
#include "support/errors.hh"
#include "support/random.hh"

namespace hippo::test
{

using namespace hippo::pmem;

namespace
{

void
store64(PmPool &pool, uint64_t addr, uint64_t v)
{
    pool.store(addr, reinterpret_cast<uint8_t *>(&v), 8);
}

uint64_t
loadPersisted64(const PmPool &pool, uint64_t addr)
{
    uint64_t v = 0;
    pool.loadPersisted(addr, reinterpret_cast<uint8_t *>(&v), 8);
    return v;
}

uint64_t
load64(const PmPool &pool, uint64_t addr)
{
    uint64_t v = 0;
    pool.load(addr, reinterpret_cast<uint8_t *>(&v), 8);
    return v;
}

} // namespace

TEST(PmPool, RegionMappingIsIdempotent)
{
    PmPool pool(1 << 20);
    uint64_t a = pool.mapRegion("r1", 100);
    uint64_t b = pool.mapRegion("r2", 100);
    EXPECT_NE(a, b);
    EXPECT_EQ(pool.mapRegion("r1", 100), a);
    EXPECT_GE(a, pmBaseAddr);
    // Regions are line-aligned so flushes never straddle regions.
    EXPECT_EQ(a % cacheLineSize, 0u);
    EXPECT_EQ(b % cacheLineSize, 0u);
    EXPECT_TRUE(pool.contains(a, 100));
    EXPECT_FALSE(pool.contains(pmBaseAddr - 1));
    ASSERT_NE(pool.findRegion("r1"), nullptr);
    EXPECT_EQ(pool.findRegion("r1")->base, a);
    EXPECT_EQ(pool.findRegion("nope"), nullptr);
}

TEST(PmPool, StoreIsVisibleButNotDurable)
{
    PmPool pool(1 << 16);
    uint64_t a = pool.mapRegion("r", 64);
    store64(pool, a, 42);
    EXPECT_EQ(load64(pool, a), 42u); // visible to loads
    EXPECT_EQ(loadPersisted64(pool, a), 0u); // not durable
    EXPECT_FALSE(pool.isPersisted(a, 8));
    EXPECT_EQ(pool.dirtyLineCount(), 1u);
}

TEST(PmPool, ClwbAloneIsNotDurable)
{
    // CLWB is weakly ordered: without a fence the write-back has not
    // necessarily completed (§2.1).
    PmPool pool(1 << 16);
    uint64_t a = pool.mapRegion("r", 64);
    store64(pool, a, 42);
    pool.flush(a, FlushOp::Clwb);
    EXPECT_EQ(loadPersisted64(pool, a), 0u);
    EXPECT_EQ(pool.pendingWritebacks(), 1u);
}

TEST(PmPool, ClwbPlusFenceIsDurable)
{
    PmPool pool(1 << 16);
    uint64_t a = pool.mapRegion("r", 64);
    store64(pool, a, 42);
    pool.flush(a, FlushOp::Clwb);
    pool.fence();
    EXPECT_EQ(loadPersisted64(pool, a), 42u);
    EXPECT_TRUE(pool.isPersisted(a, 8));
    EXPECT_EQ(pool.pendingWritebacks(), 0u);
}

TEST(PmPool, FenceWithoutFlushDoesNothing)
{
    PmPool pool(1 << 16);
    uint64_t a = pool.mapRegion("r", 64);
    store64(pool, a, 42);
    pool.fence();
    EXPECT_EQ(loadPersisted64(pool, a), 0u)
        << "a fence orders flushes; it does not flush";
}

TEST(PmPool, ClflushIsImmediatelyDurable)
{
    // CLFLUSH is ordered with respect to stores (Intel SDM), so no
    // fence is required for durability.
    PmPool pool(1 << 16);
    uint64_t a = pool.mapRegion("r", 64);
    store64(pool, a, 7);
    pool.flush(a, FlushOp::Clflush);
    EXPECT_EQ(loadPersisted64(pool, a), 7u);
}

TEST(PmPool, NonTemporalStoreNeedsOnlyFence)
{
    PmPool pool(1 << 16);
    uint64_t a = pool.mapRegion("r", 64);
    uint64_t v = 99;
    pool.store(a, reinterpret_cast<uint8_t *>(&v), 8,
               /*non_temporal=*/true);
    EXPECT_EQ(load64(pool, a), 99u);
    EXPECT_EQ(loadPersisted64(pool, a), 0u);
    EXPECT_EQ(pool.dirtyLineCount(), 0u)
        << "NT stores bypass the cache";
    pool.fence();
    EXPECT_EQ(loadPersisted64(pool, a), 99u);
}

TEST(PmPool, StoreAfterFlushNeedsAnotherFlush)
{
    PmPool pool(1 << 16);
    uint64_t a = pool.mapRegion("r", 64);
    store64(pool, a, 1);
    pool.flush(a, FlushOp::Clwb);
    store64(pool, a, 2); // re-dirties the line after the snapshot
    pool.fence();
    // Only the snapshot taken at flush time is guaranteed durable.
    EXPECT_EQ(loadPersisted64(pool, a), 1u);
    EXPECT_EQ(pool.dirtyLineCount(), 1u);
    pool.flush(a, FlushOp::Clwb);
    pool.fence();
    EXPECT_EQ(loadPersisted64(pool, a), 2u);
}

TEST(PmPool, RepeatedFlushesCoalescePerLine)
{
    PmPool pool(1 << 16);
    uint64_t a = pool.mapRegion("r", 256);
    for (int i = 0; i < 4; i++) {
        store64(pool, a + i * 8, i);
        pool.flush(a, FlushOp::Clwb);
    }
    EXPECT_EQ(pool.pendingWritebacks(), 1u)
        << "same-line write-backs coalesce";
    pool.fence();
    for (int i = 0; i < 4; i++)
        EXPECT_EQ(loadPersisted64(pool, a + i * 8), (uint64_t)i);
}

TEST(PmPool, FlushOfCleanLineIsRedundant)
{
    PmPool pool(1 << 16);
    uint64_t a = pool.mapRegion("r", 64);
    pool.flush(a, FlushOp::Clwb);
    EXPECT_EQ(pool.stats().redundantFlushes, 1u);
    store64(pool, a, 1);
    pool.flush(a, FlushOp::Clwb);
    EXPECT_EQ(pool.stats().redundantFlushes, 1u);
    pool.flush(a, FlushOp::Clwb); // second flush of a now-clean line
    EXPECT_EQ(pool.stats().redundantFlushes, 2u);
}

TEST(PmPool, MultiLineStoreDirtiesEveryTouchedLine)
{
    PmPool pool(1 << 16);
    uint64_t a = pool.mapRegion("r", 512);
    std::vector<uint8_t> buf(200, 0xAB);
    pool.store(a + 32, buf.data(), buf.size()); // spans 4 lines
    EXPECT_EQ(pool.dirtyLineCount(), 4u);
    for (uint64_t off = 32; off < 232; off += 64)
        pool.flush(a + off, FlushOp::Clwb);
    pool.flush(a + 231, FlushOp::Clwb);
    pool.fence();
    EXPECT_TRUE(pool.isPersisted(a + 32, 200));
}

TEST(PmPool, ForkedPoolAnswersLikeItsOrigin)
{
    // A pool forked from a snapshot rebuilds its dirty-line index
    // from the snapshot's dirty lines alone. It must then answer as
    // the origin does, through a flush of a line in the middle of the
    // index, a redundant flush and a fence.
    PmPool origin(1 << 20);
    uint64_t a = origin.mapRegion("r", 16 * 64);
    for (uint64_t i = 0; i < 8; i++)
        store64(origin, a + i * 64, 100 + i);
    origin.flush(a + 2 * 64, FlushOp::Clflush); // persisted
    origin.flush(a + 5 * 64, FlushOp::Clwb);    // pending a fence
    ASSERT_EQ(origin.dirtyLineCount(), 6u);
    PmPool fork(origin.snapshot());

    auto expect_same = [&](const char *when) {
        EXPECT_EQ(fork.dirtyLineCount(), origin.dirtyLineCount())
            << when;
        EXPECT_EQ(fork.stats().redundantFlushes,
                  origin.stats().redundantFlushes)
            << when;
        for (uint64_t i = 0; i < 16; i++)
            EXPECT_EQ(fork.isPersisted(a + i * 64, 64),
                      origin.isPersisted(a + i * 64, 64))
                << when << ", line " << i;
    };
    expect_same("after the fork");

    for (PmPool *p : {&origin, &fork}) {
        p->flush(a + 3 * 64, FlushOp::Clwb);  // dirty, mid-index
        p->flush(a + 12 * 64, FlushOp::Clwb); // never written
        p->fence();
    }
    EXPECT_EQ(origin.dirtyLineCount(), 5u);
    EXPECT_TRUE(origin.isPersisted(a + 3 * 64, 64));
    expect_same("after a flush and a fence");

    for (PmPool *p : {&origin, &fork}) {
        for (uint64_t i = 0; i < 16; i++)
            p->flush(a + i * 64, FlushOp::Clwb);
        p->fence();
    }
    EXPECT_EQ(origin.dirtyLineCount(), 0u);
    EXPECT_TRUE(origin.isPersisted(a, 16 * 64));
    expect_same("after flushing every line");
}

TEST(PmPool, CrashDiscardsCacheOnlyState)
{
    PmPool pool(1 << 16);
    uint64_t a = pool.mapRegion("r", 128);
    store64(pool, a, 1);
    pool.flush(a, FlushOp::Clwb);
    pool.fence();
    store64(pool, a + 64, 2); // never flushed
    store64(pool, a, 3);      // durable value is still 1
    pool.crash();
    EXPECT_EQ(load64(pool, a), 1u);
    EXPECT_EQ(load64(pool, a + 64), 0u);
    EXPECT_EQ(pool.dirtyLineCount(), 0u);
    EXPECT_EQ(pool.pendingWritebacks(), 0u);
}

TEST(PmPool, CrashDropsPendingWritebacks)
{
    PmPool pool(1 << 16);
    uint64_t a = pool.mapRegion("r", 64);
    store64(pool, a, 5);
    pool.flush(a, FlushOp::Clwb); // flushed but never fenced
    pool.crash();
    EXPECT_EQ(load64(pool, a), 0u)
        << "unfenced CLWB may not reach PM before a crash";
}

TEST(PmPool, EvictionInjectionCanPersistUnflushedData)
{
    // Lemma 2's premise: an unflushed store may still reach PM due
    // to cache pressure. With eviction injection at p=1 every dirty
    // line is written back eagerly.
    PmPool pool(1 << 16, /*evict_chance=*/1.0, /*seed=*/42);
    uint64_t a = pool.mapRegion("r", 64);
    store64(pool, a, 77);
    EXPECT_EQ(loadPersisted64(pool, a), 77u);
    EXPECT_GT(pool.stats().evictions, 0u);
    EXPECT_EQ(pool.dirtyLineCount(), 0u);
}

TEST(PmPool, StatsCountOperations)
{
    PmPool pool(1 << 16);
    uint64_t a = pool.mapRegion("r", 128);
    store64(pool, a, 1);
    store64(pool, a + 64, 2);
    pool.flush(a, FlushOp::Clwb);
    pool.fence();
    const PmPoolStats &s = pool.stats();
    EXPECT_EQ(s.stores, 2u);
    EXPECT_EQ(s.storedBytes, 16u);
    EXPECT_EQ(s.flushes, 1u);
    EXPECT_EQ(s.fences, 1u);
    pool.resetStats();
    EXPECT_EQ(pool.stats().stores, 0u);
}

TEST(PmPool, CapacityIsRoundedAndEnforced)
{
    PmPool pool(100); // rounds up to 128
    EXPECT_EQ(pool.capacity(), 128u);
    pool.mapRegion("a", 64);
    pool.mapRegion("b", 64);
    // The pool is now full; another mapping throws a recoverable,
    // classified resource error (exit code 4 at the CLI boundary).
    try {
        pool.mapRegion("c", 1);
        FAIL() << "mapRegion beyond capacity did not throw";
    } catch (const support::HippoError &e) {
        EXPECT_EQ(e.kind(), support::ErrorKind::Resource);
        EXPECT_EQ(e.exitCode(), 4);
        EXPECT_NE(std::string(e.what()).find("exhausted"),
                  std::string::npos);
    }
    // The failed mapping must not have corrupted the region table.
    EXPECT_NE(pool.findRegion("a"), nullptr);
    EXPECT_EQ(pool.findRegion("c"), nullptr);
}

TEST(PmPool, PersistEpochRisesWhenTheCrashImageMayChange)
{
    PmPool pool(1 << 16);
    uint64_t last = pool.persistEpoch();
    // True when the epoch moved since the previous call.
    auto moved = [&] {
        uint64_t now = pool.persistEpoch();
        bool m = now != last;
        EXPECT_GE(now, last);
        last = now;
        return m;
    };

    uint64_t a = pool.mapRegion("r", 256);
    EXPECT_TRUE(moved()) << "new region";
    pool.mapRegion("r", 256);
    EXPECT_FALSE(moved()) << "re-mapped region";
    store64(pool, a, 1);
    EXPECT_FALSE(moved()) << "store";
    pool.fence();
    EXPECT_FALSE(moved()) << "empty fence";
    pool.flush(a + 64, FlushOp::Clwb);
    EXPECT_FALSE(moved()) << "flush of a clean line";
    pool.flush(a, FlushOp::ClflushOpt);
    EXPECT_FALSE(moved()) << "queued write-back";
    pool.fence();
    EXPECT_TRUE(moved()) << "fence draining a line";
    store64(pool, a, 2);
    pool.flush(a, FlushOp::Clflush);
    EXPECT_TRUE(moved()) << "CLFLUSH of a dirty line";
    pool.store(a + 128, reinterpret_cast<const uint8_t *>("nt-bytes"), 8,
               true);
    EXPECT_FALSE(moved()) << "non-temporal store";
    pool.fence();
    EXPECT_TRUE(moved()) << "fence draining a non-temporal store";
    pool.crash();
    EXPECT_FALSE(moved()) << "fault-free crash";

    PmPool evicting(1 << 16, 1.0, 7);
    uint64_t b = evicting.mapRegion("r", 64);
    uint64_t before = evicting.persistEpoch();
    store64(evicting, b, 3);
    EXPECT_EQ(evicting.stats().evictions, 1u);
    EXPECT_GT(evicting.persistEpoch(), before) << "eviction";
}

TEST(PmPool, PersistEpochNeverRepeatsAfterRestore)
{
    PmPool pool(1 << 16);
    uint64_t a = pool.mapRegion("r", 256);
    std::set<uint64_t> seen = {0, pool.persistEpoch()};
    auto persist = [&](uint64_t v) {
        store64(pool, a, v);
        pool.flush(a, FlushOp::Clflush);
        EXPECT_TRUE(seen.insert(pool.persistEpoch()).second);
    };
    persist(1);
    PmPool::Snapshot snap = pool.snapshot();
    persist(2);
    persist(3);
    for (int round = 0; round < 3; round++) {
        pool.restoreFrom(snap);
        EXPECT_TRUE(seen.insert(pool.persistEpoch()).second)
            << "round " << round;
        persist(10 + round);
    }
}

TEST(PmPool, EqualPersistEpochsMeanEqualPersistentImages)
{
    // A seeded mix of every pool operation, with a snapshot after
    // each: any two snapshots of one epoch hold the same persistent
    // image and region table.
    PmPool pool(1 << 16);
    Rng rng(42);
    std::vector<PmPool::Snapshot> snaps;
    uint64_t base = pool.mapRegion("r0", 4096);
    for (int i = 0; i < 400; i++) {
        uint64_t addr = base + rng.nextBelow(4096 / 8) * 8;
        switch (rng.nextBelow(8)) {
          case 0:
          case 1:
          case 2:
            store64(pool, addr, rng.next());
            break;
          case 3:
            pool.flush(addr, FlushOp::Clwb);
            break;
          case 4:
            pool.flush(addr, FlushOp::Clflush);
            break;
          case 5:
            pool.fence();
            break;
          case 6:
            pool.mapRegion("r" + std::to_string(rng.nextBelow(4)), 4096);
            break;
          default:
            if (!snaps.empty())
                pool.restoreFrom(snaps[rng.nextBelow(snaps.size())]);
            break;
        }
        snaps.push_back(pool.snapshot());
    }
    uint64_t pairs = 0;
    for (size_t i = 0; i < snaps.size(); i++) {
        for (size_t j = i + 1; j < snaps.size(); j++) {
            if (snaps[i].persistEpoch != snaps[j].persistEpoch)
                continue;
            pairs++;
            EXPECT_TRUE(snaps[i].persist.rangeEquals(snaps[j].persist, 0,
                                                     pool.capacity()))
                << i << " vs " << j;
            EXPECT_EQ(snaps[i].regions.size(), snaps[j].regions.size());
        }
    }
    EXPECT_GT(pairs, 0u);
}

} // namespace hippo::test
