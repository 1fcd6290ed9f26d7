/**
 * @file
 * Legacy-vs-snapshot crash exploration: explores one pmlog workload
 * (durpoints + a step stride, >= 64 crash points) with the legacy
 * per-replay engine at jobs = 1, then with the snapshot engine at
 * jobs = 1, 2, 4 and one-per-hardware-thread, in both eviction modes
 * (fork replay at evictChance = 0, op-log replay at 0.01).
 *
 * Gates (deterministic, counter-based — wall time is reported but
 * never enforced, so single-core CI hosts behave):
 *   - every engine/jobs/eviction combination must return a result
 *     byte-identical to the legacy jobs=1 reference;
 *   - the snapshot engine must execute >= 5x fewer total VM steps
 *     than the legacy engine, measured from the explorer.* step
 *     counters (profile + replay + recovery);
 *   - >= 64 crash points must be explored.
 *
 * Knobs: HIPPO_PAR_APPENDS (workload size, default 64),
 *        HIPPO_PAR_STRIDE (step-crash stride, default 64).
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/pmlog.hh"
#include "bench_util.hh"
#include "pmcheck/crash_explorer.hh"
#include "support/stopwatch.hh"
#include "support/parallel.hh"

namespace
{

/** Total VM steps a run executed, from the explorer counters. */
struct StepCensus
{
    uint64_t profile = 0;  ///< master / profiling run steps
    uint64_t replay = 0;   ///< per-crash-point entry re-execution
    uint64_t recovery = 0; ///< recovery program steps
    uint64_t saved = 0;    ///< entry steps the engine did NOT run

    uint64_t executed() const { return profile + replay + recovery; }
};

StepCensus
counterBaseline()
{
    auto &reg = hippo::support::MetricsRegistry::global();
    StepCensus c;
    c.profile = reg.counter("explorer.profile.steps").value();
    c.replay = reg.counter("explorer.replay.steps_executed").value();
    c.recovery = reg.counter("explorer.recovery.steps").value();
    c.saved = reg.counter("explorer.replay.steps_saved").value();
    return c;
}

StepCensus
counterDelta(const StepCensus &before)
{
    StepCensus now = counterBaseline();
    return {now.profile - before.profile, now.replay - before.replay,
            now.recovery - before.recovery, now.saved - before.saved};
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace hippo;
    auto opt = bench::parseBenchOptions(argc, argv);
    bench::banner("Crash exploration — legacy per-replay vs. "
                  "snapshot engine");

    apps::PmlogConfig lc;
    lc.seedBugs = false;
    lc.capacity = 1u << 20;
    auto m = apps::buildPmlog(lc);

    pmcheck::CrashExplorerConfig xc;
    xc.entry = "log_example";
    xc.entryArgs = {bench::knob(opt, "HIPPO_PAR_APPENDS", 64, 64)};
    xc.recovery = "log_walk";
    xc.stepStride = bench::knob(opt, "HIPPO_PAR_STRIDE", 64, 64);
    xc.maxCrashes = 1u << 20;

    // Untimed warm-up so the first timed run doesn't absorb the
    // one-time allocator/page-fault costs.
    {
        auto warm = xc;
        warm.maxCrashes = 16;
        warm.jobs = 1;
        pmcheck::exploreCrashes(m.get(), warm);
    }

    unsigned hw = support::hardwareConcurrency();
    std::vector<unsigned> jobList = {1, 2, 4};
    // In smoke mode the jobs list stays fixed so the exploration
    // counters don't depend on the host's hardware-thread count.
    if (!opt.smoke &&
        std::find(jobList.begin(), jobList.end(), hw) ==
            jobList.end())
        jobList.push_back(hw);

    bool identical = true;
    size_t crashPoints = 0;
    double worstRatio = 1e300;

    bench::Table table({"mode", "engine", "jobs", "crash points",
                        "steps executed", "vs legacy", "wall time",
                        "identical"});

    for (double evict : {0.0, 0.01}) {
        xc.evictChance = evict;
        const char *mode = evict == 0 ? "fork" : "op-log";

        // Legacy reference: every crash point re-executes the entry.
        xc.engine = pmcheck::ExploreEngine::Legacy;
        xc.jobs = 1;
        StepCensus before = counterBaseline();
        Stopwatch legacyWatch;
        pmcheck::ExplorationResult reference =
            pmcheck::exploreCrashes(m.get(), xc);
        double legacySeconds = legacyWatch.elapsedSeconds();
        StepCensus legacySteps = counterDelta(before);
        crashPoints = reference.outcomes.size();
        table.addRow({mode, "legacy", "1",
                      format("%zu", crashPoints),
                      format("%llu", (unsigned long long)
                                         legacySteps.executed()),
                      "1.00x", format("%.3fs", legacySeconds), "-"});

        xc.engine = pmcheck::ExploreEngine::Snapshot;
        for (unsigned jobs : jobList) {
            xc.jobs = jobs;
            before = counterBaseline();
            Stopwatch watch;
            auto res = pmcheck::exploreCrashes(m.get(), xc);
            double seconds = watch.elapsedSeconds();
            StepCensus steps = counterDelta(before);

            bool same = res == reference;
            identical &= same;
            double ratio = (double)legacySteps.executed() /
                           (double)steps.executed();
            worstRatio = std::min(worstRatio, ratio);
            table.addRow(
                {mode, "snapshot", format("%u%s", jobs,
                                          jobs == hw ? " (hw)" : ""),
                 format("%zu", res.outcomes.size()),
                 format("%llu",
                        (unsigned long long)steps.executed()),
                 format("%.2fx", ratio), format("%.3fs", seconds),
                 same ? "yes" : "NO"});
        }
    }
    table.print();

    std::printf("\n%zu crash points over the %llu-append workload; "
                "\"steps executed\" = profiling + entry replay + "
                "recovery VM steps, from the deterministic "
                "explorer.* counters. The snapshot engine runs the "
                "entry once per (mode, jobs) and only recovery per "
                "crash point.\n",
                crashPoints,
                (unsigned long long)xc.entryArgs[0]);

    auto &reg = support::MetricsRegistry::global();
    reg.counter("parallel.crash_points").inc(crashPoints);
    reg.counter("parallel.jobs_settings").inc(jobList.size());
    reg.counter("parallel.identical").inc(identical);
    // Floor of the per-combination step ratios, in hundredths
    // (e.g. 2537 = 25.37x), so regressions show up in --stats.
    reg.counter("parallel.steps_ratio_x100")
        .inc((uint64_t)(worstRatio * 100));
    bench::finishBench(opt, "bench_parallel_explore");

    if (!identical) {
        std::printf("FAIL: snapshot result diverged from the legacy "
                    "reference\n");
        return 1;
    }
    if (crashPoints < 64) {
        std::printf("FAIL: fewer than 64 crash points explored\n");
        return 1;
    }
    if (worstRatio < 5.0) {
        std::printf("FAIL: snapshot engine step reduction %.2fx < "
                    "5x\n",
                    worstRatio);
        return 1;
    }
    return 0;
}
