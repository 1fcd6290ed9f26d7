/**
 * @file
 * Interleaving-bounded exploration bench: explores the racekv
 * publisher/consumer app (one seeded cross-thread durability race,
 * one seeded single-thread missing-flush&fence) over the bounded
 * schedule set, under the torn-store fault model, at jobs = 1, 4, and
 * in both interpreter engines.
 *
 * Gates (deterministic, counter-based — wall time is reported but
 * never enforced):
 *   - every jobs/engine combination must return a result
 *     byte-identical to the jobs=1 Tree reference (the acceptance
 *     gate of the thread-model milestone);
 *   - the buggy build must actually race: >= 1 cross-thread race
 *     observed and >= 1 race-forked crash image recovered;
 *   - the developer-fixed build must be completely quiet: zero
 *     races, zero unverified crash points, monotone durpoint
 *     recovery;
 *   - no schedule may degrade on either build at the default
 *     budgets.
 *
 * Knobs: HIPPO_INTERLEAVE_SLOTS (published slots, default 4),
 *        HIPPO_INTERLEAVE_SCHEDULES (plan budget, default 24).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "apps/racekv.hh"
#include "bench_util.hh"
#include "pmcheck/crash_explorer.hh"
#include "support/stopwatch.hh"

int
main(int argc, char **argv)
{
    using namespace hippo;
    auto opt = bench::parseBenchOptions(argc, argv);
    bench::banner(
        "Interleaving-bounded exploration — racekv schedule space");

    apps::RaceKvBuild buggy;
    buggy.slots =
        (uint32_t)bench::knob(opt, "HIPPO_INTERLEAVE_SLOTS", 4, 4);

    pmcheck::CrashExplorerConfig xc;
    xc.entry = apps::raceKvEntry;
    xc.recovery = apps::raceKvRecovery;
    xc.seed = 11;
    xc.faults.seed = 11;
    xc.faults.tornChance = 0.5;
    xc.schedules =
        bench::knob(opt, "HIPPO_INTERLEAVE_SCHEDULES", 24, 24);
    xc.preemptBound = 2;

    auto &reg = support::MetricsRegistry::global();

    // jobs=1 on the tree interpreter is the reference every other
    // combination must reproduce byte-identically.
    bool identical = true;
    pmcheck::ExplorationResult reference;
    bench::Table table({"engine", "jobs", "schedules", "races",
                        "race crashes", "unverified", "wall time",
                        "identical"});
    bool first = true;
    for (auto engine : {vm::VmEngine::Tree, vm::VmEngine::Bytecode}) {
        for (unsigned jobs : {1u, 4u}) {
            auto m = apps::buildRaceKv(buggy);
            xc.vmEngine = engine;
            xc.jobs = jobs;
            Stopwatch watch;
            auto res = pmcheck::exploreCrashes(m.get(), xc);
            double seconds = watch.elapsedSeconds();
            bool same = first || res == reference;
            if (first) {
                reference = res;
                first = false;
            }
            identical &= same;
            table.addRow(
                {vm::vmEngineName(engine), format("%u", jobs),
                 format("%llu/%llu",
                        (unsigned long long)res.schedulesExecuted,
                        (unsigned long long)res.schedulesPlanned),
                 format("%llu", (unsigned long long)res.racesObserved),
                 format("%llu",
                        (unsigned long long)res.raceCrashCount()),
                 format("%llu",
                        (unsigned long long)res.unverifiedCount()),
                 format("%.3fs", seconds), same ? "yes" : "NO"});
        }
    }
    table.print();

    // The developer-fixed build under the same schedule set, on the
    // default engine and worker count.
    xc.vmEngine = vm::VmEngine::Auto;
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
        std::printf("FAIL: interleaving exploration diverged across "
                    "jobs/engines\n");
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
