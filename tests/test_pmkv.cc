/**
 * @file
 * Tests for the pmkv application and the Redis-variant factory
 * (§6.3): functional correctness, bug finding on the flush-free
 * build, repair, crash-recovery behavior, and the performance
 * ordering RedisH-full >= Redis-pm >> RedisH-intra. The `Shard`
 * suite keeps the names of checks that once ran on a sharded store
 * and now run on the single store: both interpreters recover the
 * same logical state, and crash exploration of the store repeats to
 * one recovery digest.
 */

#include <gtest/gtest.h>

#include "apps/kv_driver.hh"
#include "ir/builder.hh"
#include "pmcheck/crash_explorer.hh"
#include "test_util.hh"

namespace hippo::test
{

using apps::buildPmkv;
using apps::buildRedisVariants;
using apps::KvDriver;
using apps::PmkvConfig;
using apps::PmkvVariant;

namespace
{

PmkvConfig
smallConfig(PmkvVariant v = PmkvVariant::FlushFree)
{
    PmkvConfig cfg;
    cfg.variant = v;
    cfg.buckets = 256;
    cfg.logCapacity = 2u << 20;
    return cfg;
}

/**
 * Run one fixed YCSB stream (Load, an A mix, an E slice) on a pmkv
 * module under @p engine and return what a reader can observe of
 * the store: the kv_recover count, kv_handle_get of every key the
 * stream can reach, and the summed Scan hits.
 */
std::vector<uint64_t>
observedState(ir::Module *m, vm::VmEngine engine)
{
    constexpr uint64_t records = 64;
    constexpr uint64_t scan_ops = 12;
    pmem::PmPool pool(32u << 20);
    vm::VmConfig vc;
    vc.engine = engine;
    KvDriver driver(m, &pool, vc);
    driver.init();
    driver.run(ycsb::Workload::Load, records, records, 1233);
    driver.run(ycsb::Workload::A, records, 64, 1234);
    uint64_t scan_hits = 0;
    ycsb::Generator scans(ycsb::Workload::E, records, scan_ops, 1235);
    while (scans.hasNext()) {
        ycsb::Op op = scans.next();
        if (op.type != ycsb::OpType::Scan) {
            driver.execute(op);
            continue;
        }
        vm::RunResult res = driver.vm().run(
            "kv_handle_scan", {op.key, op.scanLength});
        EXPECT_TRUE(res.ok()) << res.diag;
        scan_hits += res.returnValue;
    }

    std::vector<uint64_t> state;
    state.push_back(driver.vm().run("kv_recover").returnValue);
    // Every E insert lands past the loaded range, one key per op.
    for (uint64_t key = 0; key < records + scan_ops; key++)
        state.push_back(
            driver.vm().run("kv_handle_get", {key}).returnValue);
    state.push_back(scan_hits);
    return state;
}

} // namespace

TEST(Pmkv, SetThenGetRoundTrips)
{
    auto m = buildPmkv(smallConfig(PmkvVariant::Manual));
    pmem::PmPool pool(16u << 20);
    KvDriver driver(m.get(), &pool);
    driver.init();

    driver.vm().run("kv_handle_set", {42, 100});
    auto got = driver.vm().run("kv_handle_get", {42});
    EXPECT_EQ(got.returnValue, 100u);
    auto miss = driver.vm().run("kv_handle_get", {43});
    EXPECT_EQ(miss.returnValue, 0u);
}

TEST(Pmkv, UpdateShadowsOldValueLength)
{
    auto m = buildPmkv(smallConfig(PmkvVariant::Manual));
    pmem::PmPool pool(16u << 20);
    KvDriver driver(m.get(), &pool);
    driver.init();

    driver.vm().run("kv_handle_set", {7, 100});
    driver.vm().run("kv_handle_update", {7, 48});
    auto got = driver.vm().run("kv_handle_get", {7});
    EXPECT_EQ(got.returnValue, 48u);
}

TEST(Pmkv, ScanCountsPresentKeys)
{
    auto m = buildPmkv(smallConfig(PmkvVariant::Manual));
    pmem::PmPool pool(16u << 20);
    KvDriver driver(m.get(), &pool);
    driver.init();
    for (uint64_t k = 10; k < 20; k++)
        driver.vm().run("kv_handle_set", {k, 64});
    auto hits = driver.vm().run("kv_handle_scan", {12, 5});
    EXPECT_EQ(hits.returnValue, 5u);
    auto partial = driver.vm().run("kv_handle_scan", {18, 5});
    EXPECT_EQ(partial.returnValue, 2u);
}

TEST(Pmkv, FlushFreeBuildHasDurabilityBugs)
{
    auto m = buildPmkv(smallConfig());
    pmem::PmPool pool(16u << 20);
    vm::VmConfig vc;
    vc.traceEnabled = true;
    KvDriver driver(m.get(), &pool, vc);
    driver.init();
    driver.run(ycsb::Workload::Load, 16, 16, 3);
    driver.run(ycsb::Workload::A, 16, 16, 5);

    auto report = pmcheck::analyze(driver.vm().trace());
    EXPECT_FALSE(report.clean());
    // Fences were kept, so every bug is a missing flush.
    for (const auto &bug : report.bugs)
        EXPECT_EQ(bug.kind, pmcheck::BugKind::MissingFlush)
            << bug.str();
}

TEST(Pmkv, ManualBuildIsClean)
{
    auto m = buildPmkv(smallConfig(PmkvVariant::Manual));
    pmem::PmPool pool(16u << 20);
    vm::VmConfig vc;
    vc.traceEnabled = true;
    KvDriver driver(m.get(), &pool, vc);
    driver.init();
    driver.run(ycsb::Workload::Load, 16, 16, 3);
    driver.run(ycsb::Workload::A, 16, 16, 5);

    auto report = pmcheck::analyze(driver.vm().trace());
    EXPECT_TRUE(report.clean()) << report.writeText();
}

TEST(Pmkv, RedisVariantsRepairAndHoist)
{
    auto variants = buildRedisVariants(smallConfig());

    EXPECT_FALSE(variants.flushFreeReport.clean());
    EXPECT_GT(variants.fullSummary.fixes.size(), 0u);
    // The full repair must contain interprocedural fixes at both one
    // and two frames above the PM modification (the buf_copy and
    // hdr_checksum hoists), while the intra repair has none.
    EXPECT_GT(variants.fullSummary.interproceduralCount(), 0u);
    EXPECT_GT(variants.fullSummary.hoistedAtLevel(1), 0u);
    EXPECT_GT(variants.fullSummary.hoistedAtLevel(2), 0u);
    EXPECT_EQ(variants.intraSummary.interproceduralCount(), 0u);

    EXPECT_NE(variants.hippoFull->findFunction("buf_copy_PM"),
              nullptr);
    EXPECT_NE(variants.hippoFull->findFunction("hdr_checksum_PM"),
              nullptr);
    EXPECT_NE(variants.hippoFull->findFunction("u64_store_PM"),
              nullptr);
}

TEST(Pmkv, RepairedVariantsFunctionallyCorrect)
{
    auto variants = buildRedisVariants(smallConfig());
    for (ir::Module *m :
         {variants.hippoFull.get(), variants.hippoIntra.get()}) {
        pmem::PmPool pool(16u << 20);
        KvDriver driver(m, &pool);
        driver.init();
        driver.vm().run("kv_handle_set", {5, 80});
        auto got = driver.vm().run("kv_handle_get", {5});
        EXPECT_EQ(got.returnValue, 80u) << m->name();
    }
}

TEST(Pmkv, CrashRecoveryLosesDataOnlyWhenUnfixed)
{
    // Crash right at the durability point of the 4th set. The
    // repaired store must recover all 4 committed entries; the
    // flush-free store loses (at least some of) them.
    auto count_after_crash = [](ir::Module *m) {
        pmem::PmPool pool(16u << 20);
        {
            vm::VmConfig vc;
            KvDriver driver(m, &pool, vc);
            driver.init();
            for (uint64_t k = 0; k < 3; k++)
                driver.vm().run("kv_handle_set", {k, 64});
        }
        {
            vm::VmConfig vc;
            vc.crashAtDurPoint = 0;
            KvDriver driver(m, &pool, vc);
            auto run = driver.vm().run("kv_handle_set",
                                       {uint64_t(3), 64});
            EXPECT_TRUE(run.crashed);
        }
        pool.crash();
        vm::Vm recovery(m, &pool, {});
        return recovery.run("kv_recover").returnValue;
    };

    auto variants = buildRedisVariants(smallConfig());
    EXPECT_EQ(count_after_crash(variants.hippoFull.get()), 4u);
    EXPECT_EQ(count_after_crash(variants.manual.get()), 4u);
    auto buggy = buildPmkv(smallConfig());
    EXPECT_LT(count_after_crash(buggy.get()), 4u);
}

TEST(Pmkv, AllYcsbWorkloadsRunOnEveryVariant)
{
    auto variants = buildRedisVariants(smallConfig());
    for (ir::Module *m :
         {variants.manual.get(), variants.hippoFull.get(),
          variants.hippoIntra.get()}) {
        pmem::PmPool pool(32u << 20);
        KvDriver driver(m, &pool);
        driver.init();
        auto load =
            driver.run(ycsb::Workload::Load, 200, 200, 5);
        EXPECT_EQ(load.ops, 200u) << m->name();
        for (auto w : {ycsb::Workload::A, ycsb::Workload::B,
                       ycsb::Workload::C, ycsb::Workload::D,
                       ycsb::Workload::E, ycsb::Workload::F}) {
            auto res = driver.run(w, 200, 100, 9);
            EXPECT_EQ(res.ops, 100u)
                << m->name() << " workload " << workloadName(w);
            EXPECT_GT(res.simSeconds, 0) << m->name();
        }
    }
}

TEST(Pmkv, VariantsAgreeOnGetResultsAfterMixedWorkload)
{
    // After identical deterministic workloads, all three variants
    // must return identical values for every key: durability
    // strategy must not change semantics.
    auto variants = buildRedisVariants(smallConfig());
    auto probe = [](ir::Module *m) {
        pmem::PmPool pool(32u << 20);
        KvDriver driver(m, &pool);
        driver.init();
        driver.run(ycsb::Workload::Load, 64, 64, 3);
        driver.run(ycsb::Workload::A, 64, 64, 5);
        driver.run(ycsb::Workload::F, 64, 32, 7);
        std::vector<uint64_t> values;
        for (uint64_t k = 0; k < 64; k++) {
            values.push_back(
                driver.vm().run("kv_handle_get", {k}).returnValue);
        }
        return values;
    };
    auto manual = probe(variants.manual.get());
    EXPECT_EQ(probe(variants.hippoFull.get()), manual);
    EXPECT_EQ(probe(variants.hippoIntra.get()), manual);
}

TEST(Pmkv, RecoverCountsMatchWritesAfterCleanShutdown)
{
    auto m = buildPmkv(smallConfig(PmkvVariant::Manual));
    pmem::PmPool pool(16u << 20);
    {
        KvDriver driver(m.get(), &pool);
        driver.init();
        for (uint64_t k = 0; k < 10; k++)
            driver.vm().run("kv_handle_set", {k, 64});
        driver.vm().run("kv_handle_update", {3, 48});
    }
    pool.crash(); // clean shutdown: everything was persisted
    vm::Vm recovery(m.get(), &pool, {});
    // 10 inserts + 1 update version = 11 log entries.
    EXPECT_EQ(recovery.run("kv_recover").returnValue, 11u);
}

TEST(Pmkv, PoolStatsReflectDurabilityStrategy)
{
    // The manual build must flush and fence; the flush-free build
    // must fence but never flush.
    auto run_stats = [](PmkvVariant v) {
        auto m = buildPmkv(smallConfig(v));
        pmem::PmPool pool(16u << 20);
        KvDriver driver(m.get(), &pool);
        driver.init();
        for (uint64_t k = 0; k < 8; k++)
            driver.vm().run("kv_handle_set", {k, 64});
        return pool.stats();
    };
    auto manual = run_stats(PmkvVariant::Manual);
    EXPECT_GT(manual.flushes, 0u);
    EXPECT_GT(manual.fences, 0u);
    auto flushfree = run_stats(PmkvVariant::FlushFree);
    EXPECT_EQ(flushfree.flushes, 0u);
    EXPECT_GT(flushfree.fences, 0u);
    EXPECT_EQ(flushfree.stores, manual.stores);
}

TEST(Pmkv, PerformanceOrderingMatchesFig4)
{
    // RedisH-full must be at least as fast as Redis-pm, and several
    // times faster than RedisH-intra (paper: 2.4-11.7x).
    auto variants = buildRedisVariants(smallConfig());

    auto throughput = [](ir::Module *m, ycsb::Workload w) {
        pmem::PmPool pool(32u << 20);
        KvDriver driver(m, &pool);
        driver.init();
        driver.run(ycsb::Workload::Load, 400, 400, 21);
        auto res = driver.run(w, 400, 400, 33);
        return res.throughput();
    };

    for (auto w : {ycsb::Workload::A, ycsb::Workload::C}) {
        double full = throughput(variants.hippoFull.get(), w);
        double manual = throughput(variants.manual.get(), w);
        double intra = throughput(variants.hippoIntra.get(), w);
        EXPECT_GE(full, manual * 0.95)
            << "workload " << ycsb::workloadName(w);
        EXPECT_GT(full, intra * 2.0)
            << "workload " << ycsb::workloadName(w);
    }
}

TEST(Shard, EnginesAgreeOnTheRecoveredState)
{
    auto m = buildPmkv(smallConfig(PmkvVariant::Manual));
    auto tree = observedState(m.get(), vm::VmEngine::Tree);
    auto fast = observedState(m.get(), vm::VmEngine::Bytecode);
    EXPECT_GT(tree.front(), 0u) << "kv_recover found no entries";
    EXPECT_GT(tree.back(), 0u) << "no Scan found a key";
    EXPECT_EQ(tree, fast)
        << "interpreters disagree on the logical store";
}

TEST(Shard, ExploreShardsIsConsistentAndShardCountInvariant)
{
    auto m = buildPmkv(smallConfig(PmkvVariant::Manual));
    // A small exercise entry touching the set path twice.
    ir::Function *f = m->addFunction("kv_exercise", ir::Type::Int);
    ir::BasicBlock *bb = f->addBlock("entry");
    ir::IRBuilder b(m.get());
    b.setInsertPoint(bb);
    b.setLoc("test_pmkv.cc", 1);
    auto call = [&](const char *name,
                    std::vector<ir::Value *> args) {
        return b.createCall(m->findFunction(name), std::move(args));
    };
    call("kv_init", {});
    call("kv_handle_set", {b.getInt(3), b.getInt(24)});
    call("kv_handle_set", {b.getInt(7), b.getInt(24)});
    b.createRet(call("kv_recover", {}));

    pmcheck::CrashExplorerConfig xc;
    xc.entry = "kv_exercise";
    xc.recovery = "kv_recover";
    xc.maxCrashes = 1u << 20;
    xc.poolBytes = 32u << 20;
    xc.vmEngine = vm::VmEngine::Bytecode;
    // Independent explorations of one config, serial and fanned
    // out, must verify every crash point and agree on one digest.
    uint64_t ref = 0;
    bool have_ref = false;
    for (unsigned jobs : {1u, 1u, 2u}) {
        xc.jobs = jobs;
        auto res = pmcheck::exploreCrashes(m.get(), xc);
        EXPECT_FALSE(res.outcomes.empty());
        EXPECT_EQ(res.unverifiedCount(), 0u) << "jobs=" << jobs;
        uint64_t digest = pmcheck::recoveryDigest(res);
        if (!have_ref) {
            ref = digest;
            have_ref = true;
        } else {
            EXPECT_EQ(digest, ref)
                << "exploration digest drifts at jobs=" << jobs;
        }
    }
}

} // namespace hippo::test
