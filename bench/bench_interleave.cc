/**
 * @file
 * Interleaving-bounded exploration bench: explores the racekv
 * publisher/consumer app (one seeded cross-thread durability race,
 * one seeded single-thread missing-flush&fence; 4 published slots)
 * over a bounded set of 24 schedules, under the torn-store fault
 * model, at jobs = 1, 2, 3 and 4.
 *
 * Gates (deterministic, counter-based — wall time is reported but
 * never enforced):
 *   - every jobs setting must return a result byte-identical to the
 *     tree-walking interpreter's recorded jobs=1 exploration
 *     (tests/golden/tree_walker_verdicts.txt; the acceptance gate of
 *     the thread-model milestone);
 *   - the buggy build must actually race: >= 1 cross-thread race
 *     observed and >= 1 race-forked crash image recovered;
 *   - the developer-fixed build must be completely quiet: zero
 *     races, zero unverified crash points, monotone durpoint
 *     recovery;
 *   - no schedule may degrade on either build at the default
 *     budgets.
 *
 * The workload has no size knobs: the frozen verdict fixes it.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "apps/racekv.hh"
#include "bench_util.hh"
#include "pmcheck/crash_explorer.hh"
#include "support/stopwatch.hh"
#include "test_util.hh"

int
main(int argc, char **argv)
{
    using namespace hippo;
    auto opt = bench::parseBenchOptions(argc, argv);
    bench::banner(
        "Interleaving-bounded exploration — racekv schedule space");

    apps::RaceKvBuild buggy;
    buggy.slots = 4;

    pmcheck::CrashExplorerConfig xc;
    xc.entry = apps::raceKvEntry;
    xc.recovery = apps::raceKvRecovery;
    xc.seed = 11;
    xc.faults.seed = 11;
    xc.faults.tornChance = 0.5;
    xc.schedules = 24;
    xc.preemptBound = 2;

    auto &reg = support::MetricsRegistry::global();

    // The tree walker's recorded jobs=1 exploration is the reference
    // every jobs setting must reproduce byte-identically.
    const std::string frozen =
        test::frozenVerdict("bench_interleave/racekv");
    bool identical = true;
    pmcheck::ExplorationResult reference;
    bench::Table table({"jobs", "schedules", "races", "race crashes",
                        "unverified", "wall time", "identical"});
    for (unsigned jobs : {1u, 2u, 3u, 4u}) {
        auto m = apps::buildRaceKv(buggy);
        xc.jobs = jobs;
        Stopwatch watch;
        auto res = pmcheck::exploreCrashes(m.get(), xc);
        double seconds = watch.elapsedSeconds();
        bool same = test::explorationVerdict(res) == frozen;
        if (jobs == 1)
            reference = res;
        identical &= same;
        table.addRow(
            {format("%u", jobs),
             format("%llu/%llu",
                    (unsigned long long)res.schedulesExecuted,
                    (unsigned long long)res.schedulesPlanned),
             format("%llu", (unsigned long long)res.racesObserved),
             format("%llu", (unsigned long long)res.raceCrashCount()),
             format("%llu", (unsigned long long)res.unverifiedCount()),
             format("%.3fs", seconds), same ? "yes" : "NO"});
    }
    table.print();

    // The developer-fixed build under the same schedule set, on the
    // default worker count.
    xc.jobs = 0;
    apps::RaceKvBuild fixed = buggy;
    fixed.flushSlots = true;
    fixed.flushCount = true;
    auto fm = apps::buildRaceKv(fixed);
    auto fixed_res = pmcheck::exploreCrashes(fm.get(), xc);
    std::printf("\nfixed build: schedules=%llu races=%llu "
                "unverified=%llu monotone=%s\n",
                (unsigned long long)fixed_res.schedulesExecuted,
                (unsigned long long)fixed_res.racesObserved,
                (unsigned long long)fixed_res.unverifiedCount(),
                fixed_res.durPointRecoveryNonDecreasing() ? "yes"
                                                          : "NO");

    reg.counter("interleave.identical").inc(identical);
    reg.counter("interleave.schedules")
        .inc(reference.schedulesExecuted);
    reg.counter("interleave.visible_ops")
        .inc(reference.visibleOpsInRun);
    reg.counter("interleave.races").inc(reference.racesObserved);
    reg.counter("interleave.race_crashes")
        .inc(reference.raceCrashCount());
    reg.counter("interleave.degraded")
        .inc(reference.schedulesDegraded +
             fixed_res.schedulesDegraded);
    reg.counter("interleave.fixed.races")
        .inc(fixed_res.racesObserved);
    reg.counter("interleave.fixed.unverified")
        .inc(fixed_res.unverifiedCount());
    bench::finishBench(opt, "bench_interleave");

    if (!identical) {
        std::printf("FAIL: interleaving exploration diverged from "
                    "the recorded reference\n");
        return 1;
    }
    if (reference.racesObserved == 0 ||
        reference.raceCrashCount() == 0) {
        std::printf("FAIL: the seeded cross-thread race never "
                    "forked a crash image\n");
        return 1;
    }
    if (fixed_res.racesObserved != 0 ||
        fixed_res.unverifiedCount() != 0 ||
        !fixed_res.durPointRecoveryNonDecreasing()) {
        std::printf(
            "FAIL: the developer-fixed build is not quiet\n");
        return 1;
    }
    if (reference.schedulesDegraded != 0 ||
        fixed_res.schedulesDegraded != 0) {
        std::printf("FAIL: schedules degraded at default budgets\n");
        return 1;
    }
    return 0;
}
