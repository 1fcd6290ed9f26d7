/**
 * @file
 * Adversarial fault-injection tests: the torn-store crash model
 * (sub-line persistence the whole-line model cannot produce), its
 * composition with the crash explorer at every jobs/engine setting,
 * the VM watchdog (step / heap / wall-clock budgets, sandboxed
 * traps), and the explorer's graceful-degradation ladder.
 */

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/bugsuite.hh"
#include "apps/pclht.hh"
#include "apps/pmlog.hh"
#include "ir/parser.hh"
#include "pmcheck/crash_explorer.hh"
#include "pmem/pm_pool.hh"
#include "support/metrics.hh"
#include "vm/vm.hh"

namespace hippo::test
{

using pmcheck::CrashExplorerConfig;
using pmcheck::ExploreEngine;
using pmcheck::exploreCrashes;
using pmem::FaultPlan;
using pmem::PmPool;
using vm::ExecOutcome;
using vm::Vm;
using vm::VmConfig;

namespace
{

/**
 * Fill one cache line with 8 distinct nonzero 8-byte chunks, leave
 * it unflushed, crash under @p plan, and return the persisted line.
 */
std::vector<uint8_t>
crashOneDirtyLine(const FaultPlan &plan, PmPool &pool)
{
    uint64_t base = pool.mapRegion("line", pmem::cacheLineSize);
    for (uint64_t i = 0; i < 8; i++) {
        uint64_t v = 0x1111111111111111ULL * (i + 1);
        pool.store(base + i * 8, (const uint8_t *)&v, 8);
    }
    pool.setFaultPlan(plan);
    pool.crash();
    std::vector<uint8_t> line(pmem::cacheLineSize);
    pool.loadPersisted(base, line.data(), line.size());
    return line;
}

/** Count 8-byte chunks of @p line holding the expected new value. */
unsigned
newChunks(const std::vector<uint8_t> &line)
{
    unsigned n = 0;
    for (uint64_t i = 0; i < 8; i++) {
        uint64_t v = 0x1111111111111111ULL * (i + 1);
        if (std::memcmp(line.data() + i * 8, &v, 8) == 0)
            n++;
    }
    return n;
}

} // namespace

TEST(FaultInjection, WholeLineModelIsAllOrNothing)
{
    // Baseline: without a fault plan, a crash drops the dirty line
    // entirely — the persisted line stays all-zero.
    PmPool pool(1 << 16);
    auto line = crashOneDirtyLine(FaultPlan{}, pool);
    EXPECT_EQ(newChunks(line), 0u);
    EXPECT_EQ(pool.stats().tornLines, 0u);
    EXPECT_EQ(pool.stats().faultedCrashes, 0u);
}

TEST(FaultInjection, TornStoreProducesSubLineState)
{
    // The acceptance bar: a state the whole-line model cannot
    // produce — a line where SOME chunks persisted and some did
    // not. With tornChance=1 and 8 chunks at p=0.5 each, almost
    // every seed gives a mixed line; scan a few so the test does
    // not encode one RNG stream.
    bool mixed_found = false;
    for (uint64_t seed = 1; seed <= 16 && !mixed_found; seed++) {
        FaultPlan plan;
        plan.seed = seed;
        plan.tornChance = 1.0;
        PmPool pool(1 << 16);
        auto line = crashOneDirtyLine(plan, pool);
        unsigned n = newChunks(line);
        EXPECT_EQ(pool.stats().faultedCrashes, 1u);
        if (n > 0 && n < 8) {
            mixed_found = true;
            EXPECT_GE(pool.stats().tornLines, 1u);
            EXPECT_EQ(pool.stats().tornChunks, n);
        }
    }
    EXPECT_TRUE(mixed_found)
        << "no seed in [1,16] tore a line partially";
}

TEST(FaultInjection, TornCrashIsDeterministicPerSeed)
{
    FaultPlan plan;
    plan.seed = 7;
    plan.tornChance = 0.8;
    plan.bitRotChance = 0.2;
    PmPool a(1 << 16), b(1 << 16);
    EXPECT_EQ(crashOneDirtyLine(plan, a), crashOneDirtyLine(plan, b));
    EXPECT_EQ(a.stats().tornChunks, b.stats().tornChunks);
    EXPECT_EQ(a.stats().bitRotFlips, b.stats().bitRotFlips);
}

TEST(FaultInjection, PersistedLinesAreNeverTorn)
{
    // A flushed + fenced line is durable; the fault pass must not
    // touch it, whatever the tornChance.
    PmPool pool(1 << 16);
    uint64_t base = pool.mapRegion("r", 2 * pmem::cacheLineSize);
    uint64_t v = 0xdeadbeefcafef00dULL;
    pool.store(base, (const uint8_t *)&v, 8);
    pool.flush(base, pmem::FlushOp::Clwb);
    pool.fence();
    // Second line stays dirty so the fault pass has work to do.
    pool.store(base + pmem::cacheLineSize, (const uint8_t *)&v, 8);

    FaultPlan plan;
    plan.tornChance = 1.0;
    plan.bitRotChance = 1.0;
    pool.setFaultPlan(plan);
    pool.crash();

    uint64_t got = 0;
    pool.loadPersisted(base, (uint8_t *)&got, 8);
    EXPECT_EQ(got, v);
}

TEST(FaultInjection, BitRotHitsOnlyUnflushedLines)
{
    // CLWB'd-but-unfenced lines sit in the write-back queue: they
    // may tear, but the bit-rot model (decaying cells that never
    // reached the DIMM) applies only to lines still dirty in cache.
    PmPool pool(1 << 16);
    uint64_t base = pool.mapRegion("r", pmem::cacheLineSize);
    uint64_t v = ~0ULL;
    pool.store(base, (const uint8_t *)&v, 8);
    pool.flush(base, pmem::FlushOp::Clwb); // queued, not fenced

    FaultPlan plan;
    plan.tornChance = 1.0;
    plan.bitRotChance = 1.0;
    pool.setFaultPlan(plan);
    pool.crash();
    EXPECT_EQ(pool.stats().bitRotFlips, 0u);

    uint64_t got = 0;
    pool.loadPersisted(base, (uint8_t *)&got, 8);
    EXPECT_TRUE(got == 0 || got == ~0ULL) << got;
}

TEST(FaultInjection, ExplorationByteIdenticalAcrossJobs)
{
    // Torn-store exploration on pmlog, pclht and a bugsuite case
    // must be byte-identical at any --jobs for a fixed seed.
    struct Case
    {
        const char *name;
        std::unique_ptr<ir::Module> m;
        CrashExplorerConfig xc;
    };
    std::vector<Case> cases;

    {
        apps::PmlogConfig cfg;
        cfg.seedBugs = false;
        cfg.capacity = 64 << 10;
        Case c{"pmlog", apps::buildPmlog(cfg), {}};
        c.xc.entry = "log_example";
        c.xc.entryArgs = {6};
        c.xc.recovery = "log_walk";
        c.xc.stepStride = 97;
        cases.push_back(std::move(c));
    }
    {
        Case c{"pclht", apps::buildPclht({}), {}};
        c.xc.entry = "clht_example";
        c.xc.entryArgs = {8};
        c.xc.recovery = "clht_recover";
        cases.push_back(std::move(c));
    }
    {
        const auto &bug = apps::pmdkBugCases().front();
        Case c{bug.id.c_str(), bug.build(false), {}};
        c.xc.entry = bug.entry;
        c.xc.recovery = bug.entry;
        cases.push_back(std::move(c));
    }

    for (auto &c : cases) {
        SCOPED_TRACE(c.name);
        c.xc.faults.seed = 42;
        c.xc.faults.tornChance = 0.4;
        c.xc.faults.bitRotChance = 0.01;
        c.xc.stepBudget = 2'000'000;
        c.xc.maxCrashes = 64;

        c.xc.jobs = 1;
        auto serial = exploreCrashes(c.m.get(), c.xc);
        c.xc.jobs = 4;
        auto parallel = exploreCrashes(c.m.get(), c.xc);
        EXPECT_EQ(serial, parallel);
    }
}

TEST(FaultInjection, ExplorationByteIdenticalAcrossEngines)
{
    apps::PmlogConfig cfg;
    cfg.seedBugs = false;
    cfg.capacity = 64 << 10;
    auto m = apps::buildPmlog(cfg);

    CrashExplorerConfig xc;
    xc.entry = "log_example";
    xc.entryArgs = {5};
    xc.recovery = "log_walk";
    xc.stepStride = 113;
    xc.faults.seed = 9;
    xc.faults.tornChance = 0.5;
    xc.stepBudget = 2'000'000;

    xc.engine = ExploreEngine::Legacy;
    auto legacy = exploreCrashes(m.get(), xc);
    xc.engine = ExploreEngine::Snapshot;
    auto snap = exploreCrashes(m.get(), xc);
    EXPECT_EQ(legacy, snap);
}

TEST(FaultInjection, TornExplorationSurfacesNewStates)
{
    // On the buggy log (no flushes at all) the whole-line model
    // recovers nothing from any crash. The torn model persists
    // random sub-line fragments, so at least one crash point must
    // observe a different recovery — a state whole-line exploration
    // can never produce.
    auto m = apps::buildPmlog({});
    CrashExplorerConfig xc;
    xc.entry = "log_example";
    xc.entryArgs = {8};
    xc.recovery = "log_walk";
    xc.stepStride = 61;
    xc.maxCrashes = 128;
    xc.stepBudget = 2'000'000;

    auto base = exploreCrashes(m.get(), xc);
    EXPECT_EQ(base.maxRecovered(), 0u);
    EXPECT_EQ(base.unverifiedCount(), 0u);

    xc.faults.seed = 3;
    xc.faults.tornChance = 1.0;
    auto torn = exploreCrashes(m.get(), xc);
    ASSERT_EQ(torn.outcomes.size(), base.outcomes.size());
    bool diverged = false;
    for (size_t i = 0; i < torn.outcomes.size(); i++)
        diverged |= !(torn.outcomes[i] == base.outcomes[i]);
    EXPECT_TRUE(diverged)
        << "torn exploration indistinguishable from whole-line";
}

TEST(FaultInjection, WatchdogConvertsDivergentLoopToTimeout)
{
    std::string error;
    auto m = ir::parseModule("module \"spin\"\n"
                             "func @spin() -> i64 {\n"
                             "entry:\n"
                             "    br %loop\n"
                             "loop:\n"
                             "    br %loop\n"
                             "}\n",
                             &error);
    ASSERT_TRUE(m) << error;

    pmem::PmPool pool(1 << 16);
    VmConfig vc;
    vc.sandbox = true;
    vc.stepBudget = 50'000;
    Vm machine(m.get(), &pool, vc);
    auto res = machine.run("spin", {});
    EXPECT_EQ(res.outcome, ExecOutcome::Timeout);
    EXPECT_FALSE(res.ok());
    EXPECT_FALSE(res.diag.empty());
}

TEST(FaultInjection, WatchdogHeapBudgetIsStructured)
{
    std::string error;
    auto m = ir::parseModule("module \"hog\"\n"
                             "func @hog() -> i64 {\n"
                             "entry:\n"
                             "    br %more\n"
                             "more:\n"
                             "    %v0 = alloca 4096\n"
                             "    br %more\n"
                             "}\n",
                             &error);
    ASSERT_TRUE(m) << error;

    pmem::PmPool pool(1 << 16);
    VmConfig vc;
    vc.sandbox = true;
    vc.heapBudget = 1 << 20;
    vc.stepBudget = 10'000'000; // heap pops first
    Vm machine(m.get(), &pool, vc);
    auto res = machine.run("hog", {});
    EXPECT_EQ(res.outcome, ExecOutcome::BudgetExceeded);
}

TEST(FaultInjection, SandboxConvertsFatalTrapToOutcome)
{
    std::string error;
    auto m = ir::parseModule("module \"crash\"\n"
                             "func @crash() -> i64 {\n"
                             "entry:\n"
                             "    %v0 = udiv 1, 0\n"
                             "    ret %v0\n"
                             "}\n",
                             &error);
    ASSERT_TRUE(m) << error;

    pmem::PmPool pool(1 << 16);
    VmConfig vc;
    vc.sandbox = true;
    Vm machine(m.get(), &pool, vc);
    auto res = machine.run("crash", {});
    EXPECT_EQ(res.outcome, ExecOutcome::Trap);
    EXPECT_NE(res.diag.find("division"), std::string::npos)
        << res.diag;
}

TEST(FaultInjection, SandboxedMissingFunctionTraps)
{
    std::string error;
    auto m = ir::parseModule("module \"empty\"\n", &error);
    ASSERT_TRUE(m) << error;
    pmem::PmPool pool(1 << 16);
    VmConfig vc;
    vc.sandbox = true;
    Vm machine(m.get(), &pool, vc);
    auto res = machine.run("nope", {});
    EXPECT_EQ(res.outcome, ExecOutcome::Trap);
}

TEST(FaultInjection, DegradationLadderRecordsUnverified)
{
    // A recovery entry that never terminates exhausts the sandbox
    // budget and the crash point lands as unverified — exploration
    // completes instead of hanging.
    std::string error;
    auto m = ir::parseModule("module \"stuckrec\"\n"
                             "func @work() -> i64 {\n"
                             "entry:\n"
                             "    %p = pmmap \"r\", 64\n"
                             "    store 1, %p, 8\n"
                             "    fence sfence\n"
                             "    durpoint \"one\"\n"
                             "    ret 1\n"
                             "}\n"
                             "func @stuck() -> i64 {\n"
                             "entry:\n"
                             "    br %loop\n"
                             "loop:\n"
                             "    br %loop\n"
                             "}\n",
                             &error);
    ASSERT_TRUE(m) << error;

    CrashExplorerConfig xc;
    xc.entry = "work";
    xc.recovery = "stuck";
    xc.stepBudget = 20'000;

    auto res = exploreCrashes(m.get(), xc);
    ASSERT_EQ(res.outcomes.size(), 1u);
    EXPECT_TRUE(res.outcomes[0].unverified);
    EXPECT_EQ(res.outcomes[0].recovered, 0u);
    EXPECT_EQ(res.unverifiedCount(), 1u);
    // Unverified points are excluded from the recovery invariants.
    EXPECT_TRUE(res.durPointRecoveryNonDecreasing());
    EXPECT_EQ(res.minRecovered(), 0u);
}

namespace
{

/** A recovery entry that never terminates. */
constexpr const char *stuckRecovery = "func @stuck() -> i64 {\n"
                                      "entry:\n"
                                      "    br %loop\n"
                                      "loop:\n"
                                      "    br %loop\n"
                                      "}\n";

/** Steps @stuck runs before a sandbox with @p step_budget cuts it. */
uint64_t
stuckSteps(ir::Module *m, uint64_t step_budget)
{
    pmem::PmPool pool(1 << 16);
    VmConfig vc;
    vc.sandbox = true;
    vc.stepBudget = step_budget;
    Vm machine(m, &pool, vc);
    auto res = machine.run("stuck", {});
    EXPECT_EQ(res.outcome, ExecOutcome::Timeout);
    return res.steps;
}

/** What one exploration added to the explorer counters. */
struct LadderDelta
{
    uint64_t stepsExecuted = 0;
    uint64_t recoverySteps = 0;
    uint64_t timeouts = 0;
    uint64_t unverified = 0;
};

pmcheck::ExplorationResult
exploreCounting(ir::Module *m, const CrashExplorerConfig &xc,
                LadderDelta &d)
{
    auto &reg = support::MetricsRegistry::global();
    auto read = [&] {
        return LadderDelta{
            reg.counter("explorer.replay.steps_executed").value(),
            reg.counter("explorer.recovery.steps").value(),
            reg.counter("explorer.degraded.timeout").value(),
            reg.counter("explorer.degraded.unverified").value()};
    };
    LadderDelta before = read();
    auto res = exploreCrashes(m, xc);
    LadderDelta after = read();
    d.stepsExecuted = after.stepsExecuted - before.stepsExecuted;
    d.recoverySteps = after.recoverySteps - before.recoverySteps;
    d.timeouts = after.timeouts - before.timeouts;
    d.unverified = after.unverified - before.unverified;
    return res;
}

} // namespace

TEST(FaultInjection, UnverifiedAfterOneAttemptWithoutReexecution)
{
    // Replays are deterministic, so a recovery the watchdog cut short
    // gets no second attempt: the snapshot engine records the point
    // as unverified without re-executing the entry program, and the
    // point's recovery steps are those of its one attempt.
    std::string error;
    auto m = ir::parseModule(std::string("module \"stuckrec\"\n"
                                         "func @work() -> i64 {\n"
                                         "entry:\n"
                                         "    %p = pmmap \"r\", 64\n"
                                         "    store 1, %p, 8\n"
                                         "    fence sfence\n"
                                         "    durpoint \"one\"\n"
                                         "    ret 1\n"
                                         "}\n") +
                                 stuckRecovery,
                             &error);
    ASSERT_TRUE(m) << error;

    CrashExplorerConfig xc;
    xc.entry = "work";
    xc.recovery = "stuck";
    xc.engine = ExploreEngine::Snapshot;
    xc.stepBudget = 20'000;
    const uint64_t attempt = stuckSteps(m.get(), xc.stepBudget);

    LadderDelta d;
    auto res = exploreCounting(m.get(), xc, d);
    ASSERT_EQ(res.outcomes.size(), 1u);
    EXPECT_TRUE(res.outcomes[0].unverified);
    EXPECT_EQ(d.stepsExecuted, 0u);
    EXPECT_EQ(d.timeouts, 1u);
    EXPECT_EQ(d.unverified, 1u);
    // The clean run's recovery plus the point's single attempt.
    EXPECT_EQ(d.recoverySteps, 2 * attempt);
}

TEST(FaultInjection, ThreadedUnverifiedAfterOneAttempt)
{
    // The same ladder on the interleaving path: a thread_spawn entry
    // whose durpoint crash cannot be recovered.
    std::string error;
    auto m = ir::parseModule(
        std::string("module \"stuckthreads\"\n"
                    "func @worker(%q: ptr) -> i64 {\n"
                    "entry:\n"
                    "    store 7, %q, 8\n"
                    "    ret 0\n"
                    "}\n"
                    "func @work() -> i64 {\n"
                    "entry:\n"
                    "    %p = pmmap \"r\", 128\n"
                    "    %q = gep %p, 64\n"
                    "    %t = thread_spawn @worker(%q)\n"
                    "    %r = thread_join %t\n"
                    "    store 1, %p, 8\n"
                    "    fence sfence\n"
                    "    durpoint \"one\"\n"
                    "    ret 1\n"
                    "}\n") +
            stuckRecovery,
        &error);
    ASSERT_TRUE(m) << error;
    ASSERT_TRUE(ir::moduleIsThreaded(*m));

    CrashExplorerConfig xc;
    xc.entry = "work";
    xc.recovery = "stuck";
    xc.stepBudget = 20'000;
    const uint64_t attempt = stuckSteps(m.get(), xc.stepBudget);

    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE(jobs);
        xc.jobs = jobs;
        LadderDelta d;
        auto res = exploreCounting(m.get(), xc, d);
        ASSERT_EQ(res.outcomes.size(), 1u);
        EXPECT_FALSE(res.outcomes[0].atRace);
        EXPECT_TRUE(res.outcomes[0].unverified);
        EXPECT_EQ(res.schedulesDegraded, 0u);
        EXPECT_EQ(d.stepsExecuted, 0u);
        EXPECT_EQ(d.timeouts, 1u);
        EXPECT_EQ(d.unverified, 1u);
        EXPECT_EQ(d.recoverySteps, 2 * attempt);
    }
}

TEST(FaultInjection, UnverifiedOutcomesStayJobsInvariant)
{
    std::string error;
    auto m = ir::parseModule("module \"stuckrec\"\n"
                             "func @work() -> i64 {\n"
                             "entry:\n"
                             "    %p = pmmap \"r\", 64\n"
                             "    store 1, %p, 8\n"
                             "    fence sfence\n"
                             "    durpoint \"one\"\n"
                             "    store 2, %p, 8\n"
                             "    fence sfence\n"
                             "    durpoint \"two\"\n"
                             "    ret 2\n"
                             "}\n"
                             "func @stuck() -> i64 {\n"
                             "entry:\n"
                             "    br %loop\n"
                             "loop:\n"
                             "    br %loop\n"
                             "}\n",
                             &error);
    ASSERT_TRUE(m) << error;

    CrashExplorerConfig xc;
    xc.entry = "work";
    xc.recovery = "stuck";
    xc.stepBudget = 20'000;

    xc.jobs = 1;
    auto serial = exploreCrashes(m.get(), xc);
    xc.jobs = 4;
    auto parallel = exploreCrashes(m.get(), xc);
    EXPECT_EQ(serial, parallel);
    EXPECT_EQ(serial.unverifiedCount(), 2u);
}

} // namespace hippo::test
