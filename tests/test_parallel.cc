/**
 * @file
 * The determinism harness for the parallel exploration and
 * fix-verification engine, plus support::parallelFor and the
 * "independent VMs are thread-safe" contract. This binary is the one
 * CI also builds under ThreadSanitizer: every test doubles as a race
 * reproducer, so prefer real concurrency (jobs > 1, raw threads)
 * over mocks here.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "apps/bugsuite.hh"
#include "apps/pclht.hh"
#include "apps/pmlog.hh"
#include "pmcheck/crash_explorer.hh"
#include "pmem/pm_pool.hh"
#include "support/errors.hh"
#include "support/parallel.hh"
#include "test_util.hh"

namespace hippo::test
{

using pmcheck::CrashExplorerConfig;
using pmcheck::ExplorationResult;
using pmcheck::exploreCrashes;

// --------------------------------------------------------------
// parallelFor unit behavior (the suite keeps its historical name).
// --------------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    std::vector<std::atomic<int>> hits(1000);
    support::parallelFor(8, 0, hits.size(), [&](uint64_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < hits.size(); i++)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;

    // An offset range, and the inline path (one job).
    std::atomic<uint64_t> sum{0};
    for (unsigned jobs : {1u, 4u})
        support::parallelFor(jobs, 10, 110, [&](uint64_t i) {
            sum.fetch_add(i, std::memory_order_relaxed);
        });
    EXPECT_EQ(sum.load(), 2u * (109 * 110 / 2 - 9 * 10 / 2));
}

TEST(ThreadPool, PropagatesFirstException)
{
    for (unsigned jobs : {1u, 4u})
        EXPECT_THROW(support::parallelFor(jobs, 0, 64,
                                          [&](uint64_t i) {
                                              if (i == 13)
                                                  throw std::runtime_error(
                                                      "boom");
                                          }),
                     std::runtime_error)
            << "jobs " << jobs;
    // A throwing batch leaves nothing behind for the next one.
    std::atomic<int> ran{0};
    support::parallelFor(4, 0, 8, [&](uint64_t) { ran++; });
    EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, FaultingChaosBatchCancelsCleanly)
{
    // The adversarial-workers contract: replay workers fork pools
    // from one shared snapshot and tear them down mid-batch when a
    // sibling throws. The first exception must surface typed, the
    // remaining replays must stop being claimed, the snapshot's COW
    // pages must survive the wreckage (no leak, no corruption —
    // this binary runs under sanitizers in CI), and a clean batch
    // must run afterwards.
    pmem::PmPool master(1 << 16);
    uint64_t base = master.mapRegion("r", 4096);
    uint64_t v = 0xabcdef0123456789ULL;
    master.store(base, (const uint8_t *)&v, 8);
    master.flush(base, pmem::FlushOp::Clflush);
    master.fence();
    auto snap = master.snapshot();

    std::atomic<int> ran{0};
    try {
        support::parallelFor(4, 0, 256, [&](uint64_t i) {
            ran++;
            pmem::PmPool replica(snap);
            pmem::FaultPlan plan;
            plan.seed = i + 1;
            plan.tornChance = 1.0;
            replica.setFaultPlan(plan);
            uint64_t junk = i;
            replica.store(base + 64, (const uint8_t *)&junk, 8);
            replica.crash();
            if (i == 7)
                support::throwResourceError("replica %llu died",
                                            (unsigned long long)i);
            // Later replays take a while, as real ones do, so the
            // first throw in the process (a cold unwind) is caught
            // long before the siblings could drain the range.
            if (i > 7)
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
        });
        FAIL() << "exception not propagated";
    } catch (const support::HippoError &e) {
        EXPECT_EQ(e.kind(), support::ErrorKind::Resource);
    }
    EXPECT_LT(ran.load(), 256);

    // Shared pages are intact: a fresh fork still reads the
    // fenced value, and the master pool itself is untouched.
    pmem::PmPool after(snap);
    uint64_t got = 0;
    after.loadPersisted(base, (uint8_t *)&got, 8);
    EXPECT_EQ(got, v);
    got = 0;
    master.loadPersisted(base, (uint8_t *)&got, 8);
    EXPECT_EQ(got, v);

    std::atomic<int> clean{0};
    support::parallelFor(4, 0, 16, [&](uint64_t) { clean++; });
    EXPECT_EQ(clean.load(), 16);
}

TEST(ThreadPool, ResolveJobs)
{
    EXPECT_EQ(support::resolveJobs(3), 3u);
    EXPECT_EQ(support::resolveJobs(0),
              support::hardwareConcurrency());
    EXPECT_GE(support::hardwareConcurrency(), 1u);
}

// --------------------------------------------------------------
// Crash-exploration determinism: the parallel engine must be
// byte-identical to the serial one for any jobs setting.
// --------------------------------------------------------------

namespace
{

/** Run the same exploration at jobs=1 and assert every other jobs
 *  setting reproduces it exactly. */
void
expectJobInvariant(ir::Module *m, CrashExplorerConfig cfg)
{
    cfg.jobs = 1;
    ExplorationResult serial = exploreCrashes(m, cfg);
    for (unsigned jobs : {2u, 8u}) {
        cfg.jobs = jobs;
        ExplorationResult parallel = exploreCrashes(m, cfg);
        EXPECT_EQ(serial, parallel) << "jobs=" << jobs;
    }
}

} // namespace

TEST(ParallelExplore, FixedLogDurPointsDeterministic)
{
    apps::PmlogConfig lc;
    lc.seedBugs = false;
    lc.capacity = 64 << 10;
    auto m = apps::buildPmlog(lc);

    CrashExplorerConfig xc;
    xc.entry = "log_example";
    xc.entryArgs = {10};
    xc.recovery = "log_walk";
    expectJobInvariant(m.get(), xc);
}

TEST(ParallelExplore, BuggyLogStepStrideDeterministic)
{
    auto m = apps::buildPmlog({});
    CrashExplorerConfig xc;
    xc.entry = "log_example";
    xc.entryArgs = {6};
    xc.recovery = "log_walk";
    xc.stepStride = 97;
    expectJobInvariant(m.get(), xc);
}

TEST(ParallelExplore, RepairedPclhtDeterministic)
{
    auto m = apps::buildPclht({});
    runPipelineWithArg(m.get(), "clht_example", 10);

    CrashExplorerConfig xc;
    xc.entry = "clht_example";
    xc.entryArgs = {10};
    xc.recovery = "clht_recover";
    expectJobInvariant(m.get(), xc);
}

TEST(ParallelExplore, EvictionSeedingIsJobInvariant)
{
    // Random line eviction draws from the replay pool's RNG; the
    // seed is a function of the crash-plan position, never of the
    // worker that happens to run it.
    apps::PmlogConfig lc;
    lc.seedBugs = false;
    auto m = apps::buildPmlog(lc);

    CrashExplorerConfig xc;
    xc.entry = "log_example";
    xc.entryArgs = {8};
    xc.recovery = "log_walk";
    xc.stepStride = 61;
    xc.evictChance = 0.25;
    xc.seed = 42;
    expectJobInvariant(m.get(), xc);
}

TEST(ParallelExplore, BudgetTruncationMatchesSerial)
{
    // maxCrashes smaller than the crash-point count: the plan is cut
    // before any replay is dispatched, so the budget lands on the
    // same crash points at every jobs setting.
    apps::PmlogConfig lc;
    lc.seedBugs = false;
    auto m = apps::buildPmlog(lc);

    CrashExplorerConfig xc;
    xc.entry = "log_example";
    xc.entryArgs = {20};
    xc.recovery = "log_walk";
    xc.stepStride = 50;
    xc.maxCrashes = 7;

    xc.jobs = 1;
    ExplorationResult serial = exploreCrashes(m.get(), xc);
    ASSERT_EQ(serial.outcomes.size(), 7u);
    // Durpoint crashes are prioritized under budget pressure: with
    // 21 durpoints and a budget of 7, no step crash makes the cut.
    for (const auto &o : serial.outcomes)
        EXPECT_FALSE(o.atStep);

    for (unsigned jobs : {2u, 8u}) {
        xc.jobs = jobs;
        EXPECT_EQ(serial, exploreCrashes(m.get(), xc))
            << "jobs=" << jobs;
    }
}

// --------------------------------------------------------------
// Suite-wide fix -> re-verify pipeline determinism.
// --------------------------------------------------------------

TEST(ParallelFixer, SuiteResultsMatchSerial)
{
    core::FixerConfig serial_cfg;
    serial_cfg.jobs = 1;
    auto serial =
        apps::evaluateCases(apps::pmdkBugCases(), serial_cfg);

    core::FixerConfig par_cfg;
    par_cfg.jobs = 8;
    auto parallel =
        apps::evaluateCases(apps::pmdkBugCases(), par_cfg);

    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); i++) {
        const auto &a = serial[i];
        const auto &b = parallel[i];
        EXPECT_EQ(a.id, b.id);
        EXPECT_EQ(a.detected, b.detected) << a.id;
        EXPECT_EQ(a.foundKind, b.foundKind) << a.id;
        EXPECT_EQ(a.fixedClean, b.fixedClean) << a.id;
        EXPECT_EQ(a.hippoKind, b.hippoKind) << a.id;
        EXPECT_EQ(a.devClean, b.devClean) << a.id;
        EXPECT_EQ(a.persistedStateMatches, b.persistedStateMatches)
            << a.id;
        EXPECT_EQ(a.summary.bugsFixed, b.summary.bugsFixed) << a.id;
        EXPECT_EQ(a.summary.flushesInserted,
                  b.summary.flushesInserted)
            << a.id;
        EXPECT_EQ(a.summary.fencesInserted, b.summary.fencesInserted)
            << a.id;
        ASSERT_EQ(a.summary.fixes.size(), b.summary.fixes.size())
            << a.id;
        for (size_t f = 0; f < a.summary.fixes.size(); f++) {
            const auto &fa = a.summary.fixes[f];
            const auto &fb = b.summary.fixes[f];
            EXPECT_EQ(fa.kind, fb.kind) << a.id;
            EXPECT_EQ(fa.function, fb.function) << a.id;
            EXPECT_EQ(fa.anchorInstrId, fb.anchorInstrId) << a.id;
            EXPECT_EQ(fa.hoistLevels, fb.hoistLevels) << a.id;
        }
    }
}

// --------------------------------------------------------------
// The "independent VMs are thread-safe" contract: two Vm instances
// over distinct pools, sharing one read-only module, driven from raw
// std::threads, must produce exactly their serial traces.
// --------------------------------------------------------------

namespace
{

struct VmRunCapture
{
    uint64_t returnValue = 0;
    uint64_t steps = 0;
    std::string traceText;
    std::vector<vm::ProgramOutput> outputs;

    bool operator==(const VmRunCapture &o) const = default;
};

VmRunCapture
runOnce(ir::Module *m, uint64_t arg)
{
    pmem::PmPool pool(4u << 20);
    vm::VmConfig vc;
    vc.traceEnabled = true;
    vm::Vm machine(m, &pool, vc);
    auto r = machine.run("log_example", {arg});
    VmRunCapture cap;
    cap.returnValue = r.returnValue;
    cap.steps = r.steps;
    cap.traceText = machine.trace().writeText();
    cap.outputs = machine.outputs();
    return cap;
}

} // namespace

TEST(VmThreadSafety, IndependentVmsOnRawThreads)
{
    apps::PmlogConfig lc;
    lc.seedBugs = false;
    auto m = apps::buildPmlog(lc);

    const VmRunCapture serialA = runOnce(m.get(), 6);
    const VmRunCapture serialB = runOnce(m.get(), 11);

    for (int round = 0; round < 4; round++) {
        VmRunCapture a, b;
        std::thread ta([&] { a = runOnce(m.get(), 6); });
        std::thread tb([&] { b = runOnce(m.get(), 11); });
        ta.join();
        tb.join();
        EXPECT_EQ(a, serialA) << "round " << round;
        EXPECT_EQ(b, serialB) << "round " << round;
    }
}

} // namespace hippo::test
