/**
 * @file
 * Thread model & interleaving-bounded exploration tests (DESIGN.md
 * "Thread model & interleaving-bounded exploration"): the racekv
 * publisher/consumer app seeds cross-thread durability bugs; the
 * explorer must find them at preemption bound 2, the fixer must
 * repair them with a CrossPublish fix, re-verification over the same
 * bounded schedule set must come back clean, and the whole
 * exploration must digest byte-identically across jobs settings and
 * VM engines. Schedule plans the watchdog cuts short
 * degrade to unverified outcomes — never a crash. Also the
 * wall-clock determinism contract: a `timeBudgetMs` verdict is
 * always replayed under the deterministic step cap, so recovery
 * digests and comparable explorer aggregates never depend on host
 * speed.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/racekv.hh"
#include "ir/parser.hh"
#include "pmcheck/crash_explorer.hh"
#include "pmcheck/detector.hh"
#include "support/metrics.hh"
#include "test_util.hh"

namespace hippo::test
{

using apps::buildRaceKv;
using apps::RaceKvBuild;
using pmcheck::CrashExplorerConfig;
using pmcheck::exploreCrashes;
using pmcheck::ExplorationResult;
using ir::moduleIsThreaded;
using pmcheck::recoveryDigest;

namespace
{

/** Explorer config the racekv tests share: adversarial faults on,
 *  modest schedule budget, defaults otherwise. */
CrashExplorerConfig
raceKvConfig()
{
    CrashExplorerConfig cc;
    cc.entry = apps::raceKvEntry;
    cc.recovery = apps::raceKvRecovery;
    cc.seed = 11;
    cc.faults.tornChance = 0.5;
    cc.faults.seed = 11;
    cc.schedules = 24;
    cc.preemptBound = 2;
    return cc;
}

/**
 * A module whose baseline schedule is clean but where a forced
 * preemption before main's acquire load makes the producer's
 * publication visible early, steering main into a division by zero:
 * those plans must degrade to unverified outcomes, never crash the
 * exploration.
 */
constexpr const char *kSchedTrap = R"(
module "sched_trap"

func @worker(%flag: ptr) -> i64 {
entry:
    atomic_store release 1, %flag, 8
    ret 0
}

func @main() -> i64 {
entry:
    %p = pmmap "st", 128
    %flag = gep %p, 64
    %t = thread_spawn @worker(%flag)
    %v = atomic_load acquire %flag, 8
    %one = sub 1, %v
    %q = udiv 7, %one
    %r = thread_join %t
    store %q, %p, 8
    flush clwb %p
    fence sfence
    durpoint "end"
    ret %r
}
)";

/** Single-thread module with a deliberately slow recovery loop, for
 *  the wall-clock determinism regression. */
constexpr const char *kSlowRecovery = R"(
module "slow_recovery"

func @main() -> i64 {
entry:
    %p = pmmap "sr", 128
    store 7, %p, 8
    flush clwb %p
    fence sfence
    durpoint "one"
    store 9, %p, 8
    flush clwb %p
    fence sfence
    durpoint "two"
    ret 0
}

func @recover() -> i64 {
entry:
    %p = pmmap "sr", 128
    %iv = alloca 8
    store 0, %iv, 8
    br %h
h:
    %i = load %iv, 8
    %more = cmp ult %i, 300000
    condbr %more, %body, %exit
body:
    %ni = add %i, 1
    store %ni, %iv, 8
    br %h
exit:
    %v = load %p, 8
    ret %v
}
)";

std::unique_ptr<ir::Module>
parse(const char *src)
{
    std::string error;
    auto m = ir::parseModule(src, &error);
    EXPECT_NE(m, nullptr) << error;
    return m;
}

bool
hasBugKind(const pmcheck::Report &r, pmcheck::BugKind k)
{
    for (const auto &b : r.bugs)
        if (b.kind == k)
            return true;
    return false;
}

bool
hasFixKind(const core::FixSummary &s, core::FixKind k)
{
    for (const auto &f : s.fixes)
        if (f.kind == k)
            return true;
    return false;
}

} // namespace

TEST(Threads, ModuleIsThreadedDetection)
{
    auto threaded = buildRaceKv();
    EXPECT_TRUE(moduleIsThreaded(*threaded));
    auto plain = parse(kSlowRecovery);
    ASSERT_NE(plain, nullptr);
    EXPECT_FALSE(moduleIsThreaded(*plain));
}

TEST(Threads, BuggyRaceKvSeedsCrossBugAndCrossPublishFixes)
{
    auto m = buildRaceKv();
    auto res = runPipeline(m.get(), apps::raceKvEntry);

    // The seeded bugs: one cross-thread publication race (one static
    // site — the producer loop) plus the unflushed count bump.
    EXPECT_TRUE(hasBugKind(res.before, pmcheck::BugKind::CrossThread))
        << res.before.writeText();
    EXPECT_TRUE(
        hasBugKind(res.before, pmcheck::BugKind::MissingFlushFence))
        << res.before.writeText();

    // The repair includes a CrossPublish fix, the re-check is clean,
    // and the fix changed neither the program's output.
    EXPECT_TRUE(hasFixKind(res.summary, core::FixKind::CrossPublish));
    EXPECT_TRUE(res.after.clean()) << res.after.writeText();
    EXPECT_EQ(res.outputsBefore, res.outputsAfter);
}

TEST(Threads, ExplorerForksRacesOnBuggyBuildOnly)
{
    auto buggy = buildRaceKv();
    auto buggy_res = exploreCrashes(buggy.get(), raceKvConfig());
    EXPECT_GT(buggy_res.racesObserved, 0u);
    EXPECT_GT(buggy_res.raceCrashCount(), 0u);
    EXPECT_GE(buggy_res.schedulesExecuted, 1u);
    EXPECT_GT(buggy_res.visibleOpsInRun, 0u);

    RaceKvBuild fixed_build;
    fixed_build.flushSlots = true;
    fixed_build.flushCount = true;
    auto fixed = buildRaceKv(fixed_build);
    auto fixed_res = exploreCrashes(fixed.get(), raceKvConfig());
    EXPECT_EQ(fixed_res.racesObserved, 0u);
    EXPECT_EQ(fixed_res.raceCrashCount(), 0u);
    EXPECT_EQ(fixed_res.unverifiedCount(), 0u);
    EXPECT_TRUE(fixed_res.durPointRecoveryNonDecreasing());
}

TEST(Threads, FixThenReVerifyOverSameScheduleSetIsClean)
{
    auto m = buildRaceKv();
    auto res = runPipeline(m.get(), apps::raceKvEntry);
    ASSERT_TRUE(res.after.clean()) << res.after.writeText();

    // Re-verification over the same bounded schedule set: zero
    // surviving cross-thread races, zero unverified, and the
    // single-thread durpoint invariant intact.
    auto explored = exploreCrashes(m.get(), raceKvConfig());
    EXPECT_EQ(explored.racesObserved, 0u);
    EXPECT_EQ(explored.raceCrashCount(), 0u);
    EXPECT_EQ(explored.unverifiedCount(), 0u);
    EXPECT_TRUE(explored.durPointRecoveryNonDecreasing());
}

TEST(Threads, DigestInvariantAcrossJobsEnginesAndShards)
{
    // The acceptance gate: schedule set, CROSS forks, and recovery
    // digests byte-identical across jobs {1,4}, and equal to the
    // tree walker's recorded exploration.
    ExplorationResult ref;
    bool have_ref = false;
    for (unsigned jobs : {1u, 4u}) {
        auto m = buildRaceKv();
        CrashExplorerConfig cc = raceKvConfig();
        cc.jobs = jobs;
        auto res = exploreCrashes(m.get(), cc);
        EXPECT_EQ(explorationVerdict(res),
                  frozenVerdict(
                      "Threads.DigestInvariantAcrossJobsEnginesAndShards"))
            << "jobs=" << jobs;
        if (!have_ref) {
            ref = res;
            have_ref = true;
            EXPECT_FALSE(ref.outcomes.empty());
        } else {
            EXPECT_EQ(res, ref) << "jobs=" << jobs;
        }
    }
}

TEST(Threads, PreemptionExposedTrapDegradesToUnverified)
{
    auto m = parse(kSchedTrap);
    ASSERT_NE(m, nullptr);
    CrashExplorerConfig cc;
    cc.entry = "main";
    cc.recovery = "main";
    cc.schedules = 16;
    cc.preemptBound = 2;
    auto res = exploreCrashes(m.get(), cc);

    // Some plan forces the early publication and traps; those plans
    // must degrade to unverified outcomes, not abort.
    EXPECT_GT(res.schedulesDegraded, 0u);
    EXPECT_GT(res.unverifiedCount(), 0u);
    EXPECT_LT(res.schedulesDegraded, res.schedulesExecuted);
    const char *key = "Threads.PreemptionExposedTrapDegradesToUnverified";

    // Degradation is part of the deterministic result: same census
    // and digest at every jobs setting, equal to the tree walker's
    // recorded exploration.
    for (unsigned jobs : {1u, 4u}) {
        auto m2 = parse(kSchedTrap);
        CrashExplorerConfig c2 = cc;
        c2.jobs = jobs;
        auto r2 = exploreCrashes(m2.get(), c2);
        EXPECT_EQ(r2, res) << "jobs=" << jobs;
        EXPECT_EQ(explorationVerdict(r2), frozenVerdict(key))
            << "jobs=" << jobs;
    }
}

TEST(Threads, WallClockVerdictsNeverReachComparableAggregates)
{
    // Satellite regression: with timeBudgetMs=1 the wall clock fires
    // on a slow recovery, but every timeout is replayed under the
    // deterministic step cap, so the digest and the comparable
    // explorer aggregates match a run with an effectively unlimited
    // clock budget exactly.
    auto &reg = support::MetricsRegistry::global();
    auto explore = [&](uint64_t time_budget_ms, uint64_t &steps) {
        auto m = parse(kSlowRecovery);
        CrashExplorerConfig cc;
        cc.entry = "main";
        cc.recovery = "recover";
        cc.timeBudgetMs = time_budget_ms;
        uint64_t before = reg.counter("explorer.recovery.steps").value();
        auto res = exploreCrashes(m.get(), cc);
        steps = reg.counter("explorer.recovery.steps").value() - before;
        return res;
    };

    uint64_t steps_tight = 0, steps_loose = 0;
    auto tight = explore(1, steps_tight);
    auto loose = explore(1000000, steps_loose);

    EXPECT_EQ(tight, loose);
    EXPECT_EQ(recoveryDigest(tight), recoveryDigest(loose));
    EXPECT_EQ(tight.unverifiedCount(), 0u);
    EXPECT_EQ(steps_tight, steps_loose);
}

TEST(Threads, WallClockBudgetKeepsThreadedDigestInvariant)
{
    // Same contract on the interleaving path.
    auto explore = [&](uint64_t time_budget_ms) {
        auto m = buildRaceKv();
        CrashExplorerConfig cc = raceKvConfig();
        cc.timeBudgetMs = time_budget_ms;
        return exploreCrashes(m.get(), cc);
    };
    auto tight = explore(1);
    auto loose = explore(1000000);
    EXPECT_EQ(tight, loose);
    EXPECT_EQ(recoveryDigest(tight), recoveryDigest(loose));
}

} // namespace hippo::test
