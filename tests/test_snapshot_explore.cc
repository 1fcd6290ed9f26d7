/**
 * @file
 * Tests for the snapshot replay engine (DESIGN.md "Snapshot replay
 * engine"): PmPool snapshot/restore round-trips, copy-on-write
 * isolation between concurrently running forks, byte-identical
 * ExplorationResults between the legacy per-replay engine and the
 * snapshot engine in both eviction modes and at several jobs
 * settings, the deterministic steps-saved accounting the bench
 * gate relies on, and the fault-free fork leg's one recovery per
 * distinct crash image and one compile per exploration. Runs under
 * TSAN in CI alongside test_parallel.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "apps/bugsuite.hh"
#include "apps/pclht.hh"
#include "apps/pmcache.hh"
#include "apps/pmlog.hh"
#include "apps/racekv.hh"
#include "core/fixer.hh"
#include "pmcheck/crash_explorer.hh"
#include "pmem/pm_pool.hh"
#include "support/metrics.hh"
#include "support/parallel.hh"
#include "test_util.hh"
#include "vm/bytecode.hh"

namespace hippo::test
{

using pmcheck::CrashExplorerConfig;
using pmcheck::ExplorationResult;
using pmcheck::ExploreEngine;
using pmcheck::exploreCrashes;
using pmem::PmPool;

namespace
{

/** Store @p value at @p addr, CLWB it, and fence. */
void
putU64(PmPool &pool, uint64_t addr, uint64_t value)
{
    pool.store(addr, reinterpret_cast<uint8_t *>(&value), 8);
    pool.flush(addr, pmem::FlushOp::Clwb);
    pool.fence();
}

uint64_t
getU64(const PmPool &pool, uint64_t addr)
{
    uint64_t v = 0;
    pool.load(addr, reinterpret_cast<uint8_t *>(&v), 8);
    return v;
}

uint64_t
getPersistedU64(const PmPool &pool, uint64_t addr)
{
    uint64_t v = 0;
    pool.loadPersisted(addr, reinterpret_cast<uint8_t *>(&v), 8);
    return v;
}

/** The deterministic (comparable) metric leaves as a flat map. */
std::map<std::string, double>
metricSnapshot()
{
    std::map<std::string, double> out;
    for (const auto &[k, v] :
         support::MetricsRegistry::global().deterministicSnapshot())
        out[k] = v;
    return out;
}

/** True for histogram percentile leaves (`.p50`/`.p95`/`.p99`):
 *  order statistics, not additive — a repeated identical workload
 *  leaves them unchanged, so deltas are meaningless. */
bool
isPercentileLeaf(const std::string &k)
{
    auto ends = [&](const char *suffix) {
        size_t n = std::strlen(suffix);
        return k.size() >= n && k.compare(k.size() - n, n, suffix) == 0;
    };
    return ends(".p50") || ends(".p95") || ends(".p99");
}

/** Leafwise delta of two metric snapshots (missing key = 0),
 *  restricted to the additive leaves. */
std::map<std::string, double>
metricDelta(const std::map<std::string, double> &before,
            const std::map<std::string, double> &after)
{
    std::map<std::string, double> out;
    for (const auto &[k, v] : after) {
        if (isPercentileLeaf(k))
            continue;
        auto it = before.find(k);
        double d = v - (it == before.end() ? 0.0 : it->second);
        if (d != 0)
            out[k] = d;
    }
    return out;
}

} // namespace

TEST(PoolSnapshot, RestoreRoundTripsFullState)
{
    PmPool pool(1 << 20);
    uint64_t base = pool.mapRegion("r", 4 << 10);
    putU64(pool, base, 111);            // persisted
    uint64_t two = 222;
    pool.store(base + 64, reinterpret_cast<uint8_t *>(&two), 8);
    pool.flush(base + 64, pmem::FlushOp::Clwb); // pending, unfenced
    uint64_t three = 333;
    pool.store(base + 128, reinterpret_cast<uint8_t *>(&three), 8);
    // line base+128 left dirty

    PmPool::Snapshot snap = pool.snapshot();
    uint64_t dirty_at_snap = pool.dirtyLineCount();
    uint64_t pending_at_snap = pool.pendingWritebacks();

    // Diverge: overwrite everything and fence.
    for (uint64_t off = 0; off < 256; off += 64)
        putU64(pool, base + off, 999);
    pool.mapRegion("r2", 4 << 10);
    ASSERT_EQ(getU64(pool, base), 999u);

    pool.restoreFrom(snap);
    EXPECT_EQ(getU64(pool, base), 111u);
    EXPECT_EQ(getU64(pool, base + 64), 222u);
    EXPECT_EQ(getU64(pool, base + 128), 333u);
    EXPECT_EQ(getPersistedU64(pool, base), 111u);
    EXPECT_EQ(getPersistedU64(pool, base + 64), 0u);
    EXPECT_EQ(getPersistedU64(pool, base + 128), 0u);
    EXPECT_EQ(pool.dirtyLineCount(), dirty_at_snap);
    EXPECT_EQ(pool.pendingWritebacks(), pending_at_snap);
    EXPECT_EQ(pool.findRegion("r2"), nullptr);

    // The restored line states behave: the pending write-back drains
    // at the next fence, the dirty line still needs a flush.
    pool.fence();
    EXPECT_EQ(getPersistedU64(pool, base + 64), 222u);
    EXPECT_EQ(getPersistedU64(pool, base + 128), 0u);
    EXPECT_FALSE(pool.isPersisted(base + 128, 8));

    // Crash on the restored pool: only persisted data survives.
    pool.crash();
    EXPECT_EQ(getU64(pool, base), 111u);
    EXPECT_EQ(getU64(pool, base + 64), 222u);
    EXPECT_EQ(getU64(pool, base + 128), 0u);
    EXPECT_EQ(pool.dirtyLineCount(), 0u);
}

TEST(PoolSnapshot, RestorePreservesEvictionRngSequence)
{
    // Two pools fed identical op streams from the same seed must
    // evict identically — including when one of them detours
    // through snapshot()/restoreFrom() in the middle.
    auto run_ops = [](PmPool &pool, uint64_t base, int n) {
        for (int i = 0; i < n; i++) {
            uint64_t v = 1000 + i;
            pool.store(base + (i % 64) * 64,
                       reinterpret_cast<uint8_t *>(&v), 8);
        }
    };
    PmPool a(1 << 20, 0.5, 7);
    PmPool b(1 << 20, 0.5, 7);
    uint64_t ba = a.mapRegion("r", 8 << 10);
    uint64_t bb = b.mapRegion("r", 8 << 10);
    run_ops(a, ba, 100);
    run_ops(b, bb, 100);

    PmPool::Snapshot snap = b.snapshot();
    run_ops(b, bb, 50);     // divergent detour
    b.restoreFrom(snap);

    run_ops(a, ba, 200);
    run_ops(b, bb, 200);
    EXPECT_EQ(a.stats().evictions, b.stats().evictions);
    EXPECT_GT(a.stats().evictions, 0u);
    for (uint64_t off = 0; off < (8u << 10); off += 8) {
        ASSERT_EQ(getPersistedU64(a, ba + off),
                  getPersistedU64(b, bb + off))
            << "offset " << off;
    }
}

TEST(PoolSnapshot, ConcurrentForksAreIsolated)
{
    PmPool master(1 << 20);
    uint64_t base = master.mapRegion("shared", 64 << 10);
    for (uint64_t i = 0; i < 16; i++)
        putU64(master, base + i * 64, 0xABC0 + i);
    PmPool::Snapshot snap = master.snapshot();

    // Every fork mutates the same lines with its own pattern while
    // the others run; COW pages keep them (and the master) isolated.
    constexpr unsigned forks = 8;
    std::vector<uint8_t> ok(forks, 0);
    support::parallelFor(4, 0, forks, [&](uint64_t f) {
        PmPool pool(snap);
        for (uint64_t i = 0; i < 16; i++)
            putU64(pool, base + i * 64, f * 1000 + i);
        pool.crash();
        bool good = true;
        for (uint64_t i = 0; i < 16; i++)
            good &= getU64(pool, base + i * 64) == f * 1000 + i;
        ok[f] = good;
    });
    for (unsigned f = 0; f < forks; f++)
        EXPECT_TRUE(ok[f]) << "fork " << f;
    for (uint64_t i = 0; i < 16; i++)
        EXPECT_EQ(getU64(master, base + i * 64), 0xABC0 + i);
    EXPECT_GE(master.stats().snapshots, 1u);
}

namespace
{

/** Legacy-vs-snapshot equivalence over jobs and eviction modes. */
void
expectEngineEquivalence(ir::Module *m, CrashExplorerConfig cfg)
{
    for (double evict : {0.0, 0.01}) {
        cfg.evictChance = evict;
        cfg.engine = ExploreEngine::Legacy;
        cfg.jobs = 1;
        ExplorationResult legacy = exploreCrashes(m, cfg);
        cfg.engine = ExploreEngine::Snapshot;
        for (unsigned jobs : {1u, 4u}) {
            cfg.jobs = jobs;
            EXPECT_EQ(legacy, exploreCrashes(m, cfg))
                << "evict=" << evict << " jobs=" << jobs;
        }
    }
}

} // namespace

TEST(SnapshotEngine, MatchesLegacyOnFixedLog)
{
    apps::PmlogConfig lc;
    lc.seedBugs = false;
    lc.capacity = 64 << 10;
    auto m = apps::buildPmlog(lc);

    CrashExplorerConfig xc;
    xc.entry = "log_example";
    xc.entryArgs = {8};
    xc.recovery = "log_walk";
    xc.stepStride = 23;
    expectEngineEquivalence(m.get(), xc);
}

TEST(SnapshotEngine, MatchesLegacyOnBuggyLog)
{
    auto m = apps::buildPmlog({});
    CrashExplorerConfig xc;
    xc.entry = "log_example";
    xc.entryArgs = {8};
    xc.recovery = "log_walk";
    xc.stepStride = 17;
    expectEngineEquivalence(m.get(), xc);
}

TEST(SnapshotEngine, MatchesLegacyOnRepairedPclht)
{
    auto repaired = apps::buildPclht({});
    runPipelineWithArg(repaired.get(), "clht_example", 12);

    CrashExplorerConfig xc;
    xc.entry = "clht_example";
    xc.entryArgs = {12};
    xc.recovery = "clht_recover";
    expectEngineEquivalence(repaired.get(), xc);
}

TEST(SnapshotEngine, MatchesLegacyAcrossBugsuiteCases)
{
    // The PMDK reproducers have no dedicated recovery entry; re-run
    // the reproducer itself against the surviving pool. That is a
    // legitimate recovery program for equivalence purposes and walks
    // the engines through the suite's full op-mix (NT stores,
    // CLFLUSH variants, memcpy/memset, region remaps).
    for (const apps::BugCase &c : apps::pmdkBugCases()) {
        for (bool dev_fixed : {false, true}) {
            auto m = c.build(dev_fixed);
            CrashExplorerConfig xc;
            xc.entry = c.entry;
            xc.recovery = c.entry;
            xc.stepStride = 13;
            xc.maxCrashes = 64;
            for (double evict : {0.0, 0.01}) {
                xc.evictChance = evict;
                xc.jobs = 1;
                xc.engine = ExploreEngine::Legacy;
                ExplorationResult legacy = exploreCrashes(m.get(), xc);
                xc.engine = ExploreEngine::Snapshot;
                xc.jobs = 4;
                EXPECT_EQ(legacy, exploreCrashes(m.get(), xc))
                    << c.id << " dev_fixed=" << dev_fixed
                    << " evict=" << evict;
            }
        }
    }
}

TEST(SnapshotEngine, OpLogOverflowFallsBackToLegacyResult)
{
    apps::PmlogConfig lc;
    lc.seedBugs = false;
    auto m = apps::buildPmlog(lc);

    CrashExplorerConfig xc;
    xc.entry = "log_example";
    xc.entryArgs = {8};
    xc.recovery = "log_walk";
    xc.evictChance = 0.05;
    xc.engine = ExploreEngine::Legacy;
    ExplorationResult legacy = exploreCrashes(m.get(), xc);

    xc.engine = ExploreEngine::Snapshot;
    xc.opLogMaxBytes = 64; // force overflow
    auto before = metricSnapshot();
    EXPECT_EQ(legacy, exploreCrashes(m.get(), xc));
    auto delta = metricDelta(before, metricSnapshot());
    EXPECT_EQ(delta["explorer.oplog.overflows"], 1.0);
    EXPECT_EQ(delta["explorer.engine.legacy"], 1.0);
}

TEST(SnapshotEngine, StepsSavedMatchesLegacyStepsExecuted)
{
    // The bench gate's accounting identity: the snapshot engine's
    // steps_saved counter equals the entry steps the legacy engine
    // actually executes for the same plan, and the snapshot engine
    // executes none.
    apps::PmlogConfig lc;
    lc.seedBugs = false;
    auto m = apps::buildPmlog(lc);

    CrashExplorerConfig xc;
    xc.entry = "log_example";
    xc.entryArgs = {12};
    xc.recovery = "log_walk";
    xc.stepStride = 31;
    xc.jobs = 1;

    xc.engine = ExploreEngine::Legacy;
    auto s0 = metricSnapshot();
    exploreCrashes(m.get(), xc);
    auto legacy = metricDelta(s0, metricSnapshot());

    xc.engine = ExploreEngine::Snapshot;
    auto s1 = metricSnapshot();
    exploreCrashes(m.get(), xc);
    auto snap = metricDelta(s1, metricSnapshot());

    EXPECT_GT(legacy["explorer.replay.steps_executed"], 0.0);
    EXPECT_EQ(snap["explorer.replay.steps_saved"],
              legacy["explorer.replay.steps_executed"]);
    EXPECT_EQ(snap["explorer.replay.steps_executed"], 0.0);
    EXPECT_EQ(snap["explorer.recovery.steps"],
              legacy["explorer.recovery.steps"]);
    EXPECT_GT(snap["explorer.snapshot.count"], 0.0);
}

TEST(SnapshotEngine, MetricsDeterministicAcrossJobs)
{
    apps::PmlogConfig lc;
    lc.seedBugs = false;
    auto m = apps::buildPmlog(lc);

    CrashExplorerConfig xc;
    xc.entry = "log_example";
    xc.entryArgs = {10};
    xc.recovery = "log_walk";
    xc.stepStride = 19;

    xc.jobs = 1;
    auto s0 = metricSnapshot();
    ExplorationResult serial = exploreCrashes(m.get(), xc);
    auto d1 = metricDelta(s0, metricSnapshot());

    xc.jobs = 4;
    auto s1 = metricSnapshot();
    ExplorationResult parallel = exploreCrashes(m.get(), xc);
    auto d4 = metricDelta(s1, metricSnapshot());

    EXPECT_EQ(serial, parallel);
    EXPECT_EQ(d1, d4);
}

TEST(SnapshotEngine, FixerVerifyFixedUsesFastPath)
{
    auto m = apps::buildPmlog({});
    trace::Trace tr;
    pmcheck::Report report;
    vm::DynPointsTo dyn;
    {
        pmem::PmPool pool(16u << 20);
        vm::VmConfig vc;
        vc.traceEnabled = true;
        vm::Vm machine(m.get(), &pool, vc);
        machine.run("log_example", {8});
        tr = machine.trace();
        report = pmcheck::analyze(tr);
        dyn = machine.dynPointsTo();
    }
    core::Fixer fixer(m.get(), {});
    fixer.fix(report, tr, &dyn);

    CrashExplorerConfig xc;
    xc.entry = "log_example";
    xc.entryArgs = {8};
    xc.recovery = "log_walk";
    xc.jobs = 1;

    auto before = metricSnapshot();
    ExplorationResult res = fixer.verifyFixed(xc);
    auto delta = metricDelta(before, metricSnapshot());

    // The repaired log recovers every committed entry, and the
    // verification rode the snapshot engine (saved steps, executed
    // no entry replays).
    EXPECT_TRUE(res.durPointRecoveryNonDecreasing());
    for (uint64_t i = 0; i < res.outcomes.size(); i++)
        EXPECT_EQ(res.outcomes[i].recovered, i);
    EXPECT_EQ(delta["fixer.verify.runs"], 1.0);
    EXPECT_EQ(delta["fixer.verify.crash_points"],
              (double)res.outcomes.size());
    EXPECT_GT(delta["explorer.replay.steps_saved"], 0.0);
    EXPECT_EQ(delta["explorer.replay.steps_executed"], 0.0);
}

namespace
{

/** One explored program of the memo tests. */
struct MemoCase
{
    std::string name;
    std::unique_ptr<ir::Module> module;
    CrashExplorerConfig config;
    /** A recovery step budget below some of the program's recoveries
     *  (pmlog/buggy persists nothing, so its recoveries all fit). */
    uint64_t tightBudget = 0;
};

/** pmlog, P-CLHT and pmcache (small tables, so recovery is short),
 *  buggy and repaired, each explored at every durpoint and a step
 *  stride. */
std::vector<MemoCase>
memoCases()
{
    std::vector<MemoCase> cases;
    auto add = [&](std::string name, std::unique_ptr<ir::Module> m,
                   const char *entry, uint64_t arg, const char *recovery,
                   uint64_t tight_budget, bool repair) {
        if (repair)
            runPipelineWithArg(m.get(), entry, arg);
        MemoCase c;
        c.name = name + (repair ? "/repaired" : "/buggy");
        c.module = std::move(m);
        c.config.entry = entry;
        c.config.entryArgs = {arg};
        c.config.recovery = recovery;
        c.config.stepStride = 29;
        c.tightBudget = tight_budget;
        cases.push_back(std::move(c));
    };
    for (bool repair : {false, true}) {
        add("pmlog", apps::buildPmlog({}), "log_example", 8, "log_walk",
            100, repair);
        apps::PclhtConfig hc;
        hc.buckets = 16;
        add("pclht", apps::buildPclht(hc), "clht_example", 8,
            "clht_recover", 300, repair);
        apps::PmcacheConfig mc;
        mc.buckets = 16;
        mc.items = 64;
        add("pmcache", apps::buildPmcache(mc), "mc_example", 8,
            "mc_recover", 400, repair);
    }
    return cases;
}

/** Explore @p m under @p cfg; @p delta gets the metric delta. */
ExplorationResult
exploreMeasured(ir::Module *m, const CrashExplorerConfig &cfg,
                std::map<std::string, double> &delta)
{
    auto before = metricSnapshot();
    ExplorationResult res = exploreCrashes(m, cfg);
    delta = metricDelta(before, metricSnapshot());
    return res;
}

} // namespace

TEST(SnapshotEngine, MemoMatchesLegacyWithAndWithoutStepBudget)
{
    // Sharing one recovery between the crash points of one image must
    // change nothing a caller sees: the result, and every per-point
    // counter (each point is charged its image's recovery).
    uint64_t mixed = 0; // explorations with verified and unverified points
    for (MemoCase &c : memoCases()) {
        for (uint64_t budget : {uint64_t(0), c.tightBudget}) {
            CrashExplorerConfig cfg = c.config;
            cfg.stepBudget = budget;
            cfg.engine = ExploreEngine::Legacy;
            cfg.jobs = 1;
            std::map<std::string, double> legacy_delta;
            ExplorationResult legacy =
                exploreMeasured(c.module.get(), cfg, legacy_delta);
            uint64_t unverified = legacy.unverifiedCount();
            if (!budget)
                EXPECT_EQ(unverified, 0u) << c.name;
            mixed += unverified > 0 && unverified < legacy.outcomes.size();
            cfg.engine = ExploreEngine::Snapshot;
            for (unsigned jobs : {1u, 4u}) {
                cfg.jobs = jobs;
                std::map<std::string, double> d;
                ExplorationResult snap =
                    exploreMeasured(c.module.get(), cfg, d);
                std::string where = c.name + " budget=" +
                                    std::to_string(budget) +
                                    " jobs=" + std::to_string(jobs);
                EXPECT_EQ(legacy, snap) << where;
                EXPECT_EQ(pmcheck::recoveryDigest(legacy),
                          pmcheck::recoveryDigest(snap))
                    << where;
                for (const char *k :
                     {"explorer.recovery.steps", "explorer.recovered.count",
                      "explorer.recovered.sum",
                      "explorer.degraded.unverified",
                      "explorer.degraded.timeout",
                      "explorer.crash_points.total"})
                    EXPECT_EQ(legacy_delta[k], d[k]) << where << " " << k;
            }
        }
    }
    // Some tight budget splits one exploration's points.
    EXPECT_GT(mixed, 0u);
}

TEST(SnapshotEngine, MemoHitsAreCrashPointsMinusDistinctEpochs)
{
    for (MemoCase &c : memoCases()) {
        // The persist epoch at every crash boundary, from a probe run
        // of the entry program.
        std::map<uint64_t, uint64_t> dur_epoch, step_epoch;
        {
            PmPool pool(c.config.poolBytes);
            vm::VmConfig vc;
            vc.durPointAtExit = false;
            vc.durPointProbe = [&](uint64_t n, uint64_t,
                                   const std::string &) {
                dur_epoch[n] = pool.persistEpoch();
            };
            vc.stepProbeStride = c.config.stepStride;
            vc.stepProbe = [&](uint64_t step) {
                step_epoch[step] = pool.persistEpoch();
            };
            vm::Vm machine(c.module.get(), &pool, vc);
            machine.run(c.config.entry, c.config.entryArgs);
        }

        CrashExplorerConfig cfg = c.config;
        cfg.jobs = 1;
        std::map<std::string, double> d;
        ExplorationResult res = exploreMeasured(c.module.get(), cfg, d);
        std::set<uint64_t> epochs;
        for (const pmcheck::CrashOutcome &o : res.outcomes)
            epochs.insert(o.atStep ? step_epoch.at(o.crashPoint)
                                   : dur_epoch.at(o.crashPoint));
        double points = (double)res.outcomes.size();
        EXPECT_GT(points, (double)epochs.size()) << c.name;
        EXPECT_EQ(d["explorer.memo.images"], (double)epochs.size())
            << c.name;
        EXPECT_EQ(d["explorer.memo.hits"], points - (double)epochs.size())
            << c.name;
        EXPECT_EQ(d["explorer.snapshot.count"], (double)epochs.size())
            << c.name;
    }
}

TEST(SnapshotEngine, CompilesOncePerExploration)
{
    auto log = apps::buildPmlog({});
    CrashExplorerConfig xc;
    xc.entry = "log_example";
    xc.entryArgs = {6};
    xc.recovery = "log_walk";
    xc.stepStride = 41;

    auto compiles = [](ir::Module *m, const CrashExplorerConfig &cfg) {
        uint64_t before = vm::compileModuleCalls();
        exploreCrashes(m, cfg);
        return vm::compileModuleCalls() - before;
    };

    // Every replay mode: fork, op log, legacy, and fork under faults.
    for (unsigned jobs : {1u, 4u}) {
        xc.jobs = jobs;
        EXPECT_EQ(compiles(log.get(), xc), 1u) << "fork";
        CrashExplorerConfig evict = xc;
        evict.evictChance = 0.01;
        EXPECT_EQ(compiles(log.get(), evict), 1u) << "oplog";
        CrashExplorerConfig legacy = xc;
        legacy.engine = ExploreEngine::Legacy;
        EXPECT_EQ(compiles(log.get(), legacy), 1u) << "legacy";
        CrashExplorerConfig torn = xc;
        torn.faults.tornChance = 0.5;
        EXPECT_EQ(compiles(log.get(), torn), 1u) << "faults";
    }

    // The interleaving path: baseline, schedule plans and race forks.
    apps::RaceKvBuild b;
    b.slots = 2;
    auto race = apps::buildRaceKv(b);
    CrashExplorerConfig rc;
    rc.entry = apps::raceKvEntry;
    rc.recovery = apps::raceKvRecovery;
    rc.poolBytes = apps::raceKvPoolBytes;
    rc.schedules = 4;
    rc.jobs = 4;
    EXPECT_EQ(compiles(race.get(), rc), 1u) << "interleavings";
}

} // namespace hippo::test
