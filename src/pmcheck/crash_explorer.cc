#include "pmcheck/crash_explorer.hh"

#include <algorithm>
#include <atomic>
#include <map>
#include <set>

#include "ir/basic_block.hh"
#include "ir/function.hh"
#include "ir/instruction.hh"
#include "ir/module.hh"
#include "pmem/pm_pool.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/thread_pool.hh"
#include "vm/vm.hh"

namespace hippo::pmcheck
{

namespace
{

/**
 * Deterministic substitute for a wall-clock recovery budget: when
 * the caller configured only `timeBudgetMs`, every recovery attempt
 * additionally runs under this step cap so the timeout verdict is a
 * pure function of the module, never of host speed (the wall clock
 * is demoted to a hang backstop). Far above any recovery in the
 * suite; a genuinely diverging recovery hits it deterministically.
 */
constexpr uint64_t wallClockRetryStepCap = 1ULL << 26;

/** Generous hang backstop for deterministic (re)tries: hit only by
 *  a pathological host or a genuine hang, never by a healthy run. */
uint64_t
backstopMs(const CrashExplorerConfig &cfg)
{
    return std::max<uint64_t>(cfg.timeBudgetMs * 64, 10000);
}

/** The recovery step cap (see wallClockRetryStepCap). */
uint64_t
effectiveStepBudget(const CrashExplorerConfig &cfg)
{
    if (cfg.stepBudget)
        return cfg.stepBudget;
    return cfg.timeBudgetMs ? wallClockRetryStepCap : 0;
}

/** Fold this run's wall-clock-retry count into the (uncomparable)
 *  explorer.wallclock.retries gauge. */
void
noteWallClockRetries(uint64_t n)
{
    if (!n)
        return;
    auto &g = support::MetricsRegistry::global().gauge(
        "explorer.wallclock.retries");
    g.set(g.value() + (double)n);
}

/** How one planned crash point is materialized into a pool state. */
enum class ReplayMode
{
    Legacy, ///< full entry re-execution with crashAt* knobs
    Fork,   ///< fork the master-run snapshot (evictChance == 0)
    Log,    ///< replay the recorded pool-op log prefix (evict > 0)
};

/** One planned crash: where to pull the plug on the replay. */
struct PlannedCrash
{
    bool atStep = false;
    uint64_t crashPoint = 0;
};

/** splitmix64 finalizer. */
uint64_t
mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Pool RNG seed for the crash point at plan position @p k: a
 *  function of the plan, never of the worker. */
uint64_t
replaySeed(const CrashExplorerConfig &cfg, uint64_t k)
{
    return mix64(cfg.seed + (k + 1) * 0x9e3779b97f4a7c15ULL);
}

/** FaultPlan seed for plan position @p k — a different stream than
 *  the eviction seed so the two injections stay independent. */
uint64_t
faultSeed(const CrashExplorerConfig &cfg, uint64_t k)
{
    return mix64(cfg.faults.seed + (k + 1) * 0xda942042e4dd58b5ULL);
}

/** Everything the master execution captures for the replay phase. */
struct MasterState
{
    /** Pool snapshot per captured durpoint / per step-stride
     *  boundary (Fork mode). Durpoint captures are indexed through
     *  durSlot: within the crash budget every durpoint gets a slot,
     *  and priority-labeled durpoints are captured even beyond it
     *  (the plan moves them ahead of the truncation line). */
    std::vector<pmem::PmPool::Snapshot> durSnaps;
    std::vector<pmem::PmPool::Snapshot> stepSnaps;

    /** Op-log cursors at the same boundaries (Log mode). */
    std::vector<size_t> durLogPos;
    std::vector<size_t> stepLogPos;

    /** In-run step count at captured durpoint slots — what a legacy
     *  replay of that crash would have executed (steps_saved
     *  accounting). */
    std::vector<uint64_t> durSteps;

    /** Durpoint index -> capture slot in the three vectors above.
     *  The identity map when no priority labels are configured. */
    std::map<uint64_t, size_t> durSlot;

    /** Label of every durpoint in the run (no cap; plan input). */
    std::vector<std::string> durLabels;

    uint64_t snapshots = 0;   ///< snapshot() calls on the master pool
    uint64_t pagesCopied = 0; ///< COW clones charged to the master
};

/**
 * The single master execution: runs the entry program while counting
 * durpoints/steps (the profile the crash plan is built from) and
 * capturing per-crash-point pool snapshots or op-log cursors, then
 * crashes the pool and runs recovery once for cleanRunRecovered.
 * With @p mode == Legacy nothing is captured — this is exactly the
 * legacy engine's profile run. Returns the recovery run's steps.
 */
uint64_t
masterRun(ir::Module *m, const CrashExplorerConfig &cfg,
          ReplayMode mode, pmem::PmOpLog *log, ExplorationResult &out,
          MasterState &ms)
{
    pmem::PmPool pool(cfg.poolBytes, cfg.evictChance, cfg.seed);
    if (log)
        pool.setOpLog(log);

    vm::VmConfig vc;
    vc.engine = cfg.vmEngine;
    vc.durPointAtExit = false;
    uint64_t durpoints = 0;
    auto isPriority = [&](const std::string &label) {
        return std::find(cfg.priorityDurLabels.begin(),
                         cfg.priorityDurLabels.end(),
                         label) != cfg.priorityDurLabels.end();
    };
    vc.durPointProbe = [&](uint64_t n, uint64_t in_run,
                           const std::string &label) {
        durpoints++;
        ms.durLabels.push_back(label);
        if (mode == ReplayMode::Legacy || !cfg.exploreDurPoints)
            return;
        // Capture within the budget, plus every priority-labeled
        // durpoint beyond it: the plan pulls those ahead of the
        // truncation line, so their slots must exist (and any
        // non-priority entry surviving truncation provably has
        // index < maxCrashes).
        if (n >= cfg.maxCrashes && !isPriority(label))
            return;
        ms.durSlot[n] = ms.durSteps.size();
        ms.durSteps.push_back(in_run);
        if (mode == ReplayMode::Fork)
            ms.durSnaps.push_back(pool.snapshot());
        else
            ms.durLogPos.push_back(log->position());
    };
    if (cfg.stepStride && mode != ReplayMode::Legacy) {
        vc.stepProbeStride = cfg.stepStride;
        vc.stepProbe = [&](uint64_t) {
            if (mode == ReplayMode::Fork) {
                if (ms.stepSnaps.size() < cfg.maxCrashes)
                    ms.stepSnaps.push_back(pool.snapshot());
            } else {
                if (ms.stepLogPos.size() < cfg.maxCrashes)
                    ms.stepLogPos.push_back(log->position());
            }
        };
    }

    vm::Vm machine(m, &pool, vc);
    auto run = machine.run(cfg.entry, cfg.entryArgs);
    out.stepsInRun = run.steps;
    out.durPointsInRun = durpoints;

    // Recovery ops must not enter the log: replay cursors reference
    // the entry run only.
    pool.setOpLog(nullptr);
    pool.crash();
    // A wall-clock verdict must not leak into cleanRunRecovered, so
    // keep a crash image around for the deterministic retry (only
    // when a clock budget exists; the snapshot itself is config-
    // deterministic).
    pmem::PmPool::Snapshot crash_image;
    if (cfg.timeBudgetMs)
        crash_image = pool.snapshot();
    // The clean run stays fault-free (it is the reference the torn
    // replays are compared against) but the watchdog still applies:
    // a recovery entry that diverges even on a clean crash must not
    // hang the exploration before the first replay.
    auto recover = [&](pmem::PmPool &rpool, bool deterministic) {
        vm::VmConfig rvc;
        rvc.engine = cfg.vmEngine;
        if (cfg.stepBudget || cfg.heapBudget || cfg.timeBudgetMs) {
            rvc.sandbox = true;
            rvc.stepBudget = effectiveStepBudget(cfg);
            rvc.heapBudget = cfg.heapBudget;
            rvc.timeBudgetMs =
                deterministic ? backstopMs(cfg) : cfg.timeBudgetMs;
        }
        vm::Vm recovery(m, &rpool, rvc);
        return recovery.run(cfg.recovery, cfg.recoveryArgs);
    };
    auto rec = recover(pool, false);
    if (!rec.ok() && rec.wallClockTimeout) {
        noteWallClockRetries(1);
        pmem::PmPool rpool(crash_image);
        rec = recover(rpool, true);
    }
    out.cleanRunRecovered = rec.ok() ? rec.returnValue : 0;

    ms.snapshots = pool.stats().snapshots;
    ms.pagesCopied = pool.stats().pagesCopied;
    return rec.steps;
}

/**
 * Enumerate the crash plan: durpoint crashes first — those at
 * priority-labeled durpoints (the static pre-filter) ahead of the
 * rest, each class in durpoint order — then every step-stride crash,
 * truncated to the budget. Serial and parallel execution both run
 * exactly this plan, in this order; with no priority labels the plan
 * is identical to the historical one.
 */
std::vector<PlannedCrash>
planCrashes(const CrashExplorerConfig &cfg,
            const ExplorationResult &profile, const MasterState &ms)
{
    std::vector<PlannedCrash> plan;
    if (cfg.exploreDurPoints) {
        std::set<uint64_t> priority;
        for (uint64_t i = 0;
             !cfg.priorityDurLabels.empty() &&
             i < profile.durPointsInRun && i < ms.durLabels.size();
             i++) {
            if (std::find(cfg.priorityDurLabels.begin(),
                          cfg.priorityDurLabels.end(),
                          ms.durLabels[i]) !=
                cfg.priorityDurLabels.end()) {
                priority.insert(i);
                plan.push_back({false, i});
            }
        }
        for (uint64_t i = 0; i < profile.durPointsInRun; i++)
            if (!priority.count(i))
                plan.push_back({false, i});
    }
    if (cfg.stepStride)
        for (uint64_t s = cfg.stepStride; s < profile.stepsInRun;
             s += cfg.stepStride)
            plan.push_back({true, s});
    if (plan.size() > cfg.maxCrashes)
        plan.resize(cfg.maxCrashes);
    return plan;
}

/** CrashOutcome::crashPoint sentinel for a degraded schedule plan
 *  (the watchdog cut the plan's entry run short; no pool image
 *  exists, so the single outcome is unverified by construction). */
constexpr uint64_t degradedPlanPoint = ~0ULL;

/** Saturating n-choose-k (0 when k > n, ~0 on overflow). */
uint64_t
chooseSat(uint64_t n, uint64_t k)
{
    if (k > n)
        return 0;
    uint64_t r = 1;
    for (uint64_t i = 0; i < k; i++) {
        uint64_t num = n - i;
        if (num && r > ~0ULL / num)
            return ~0ULL;
        r = r * num / (i + 1);
    }
    return r;
}

/** Saturating a + b. */
uint64_t
addSat(uint64_t a, uint64_t b)
{
    return a > ~0ULL - b ? ~0ULL : a + b;
}

/**
 * Bounded schedule enumeration: every preemption set of size 0 ..
 * @p bound over the baseline run's @p visible_ops scheduler-visible
 * ops, ordered by size then lexicographically ({}, {0}, {1}, ...,
 * {0,1}, {0,2}, ...), truncated to @p budget plans. Plan 0 is always
 * the empty (baseline) schedule. @p planned gets the untruncated
 * census (saturating) so callers can report coverage.
 */
std::vector<vm::SchedulePlan>
enumeratePlans(uint64_t visible_ops, uint32_t bound, uint64_t budget,
               uint64_t &planned)
{
    planned = 0;
    for (uint64_t sz = 0; sz <= bound; sz++)
        planned = addSat(planned, chooseSat(visible_ops, sz));

    std::vector<vm::SchedulePlan> plans;
    plans.push_back({0, {}});
    for (uint64_t sz = 1;
         sz <= bound && sz <= visible_ops && plans.size() < budget;
         sz++) {
        std::vector<uint64_t> c(sz);
        for (uint64_t i = 0; i < sz; i++)
            c[i] = i;
        while (plans.size() < budget) {
            plans.push_back({plans.size(), c});
            // Next lexicographic combination of [0, visible_ops).
            int64_t i = (int64_t)sz - 1;
            while (i >= 0 && c[i] == visible_ops - sz + i)
                i--;
            if (i < 0)
                break;
            c[i]++;
            for (uint64_t j = i + 1; j < sz; j++)
                c[j] = c[j - 1] + 1;
        }
    }
    return plans;
}

/** Entry-pool RNG seed for schedule plan @p k (plan 0 = cfg.seed,
 *  matching the single-schedule master run). */
uint64_t
planSeed(const CrashExplorerConfig &cfg, uint64_t k)
{
    return k ? mix64(cfg.seed + k * 0xd1342543de82ef95ULL) : cfg.seed;
}

/** FaultPlan seed for race fork @p r of plan @p k — per (plan, race)
 *  position, never per worker, so torn race states reproduce at
 *  every jobs setting. */
uint64_t
raceFaultSeed(const CrashExplorerConfig &cfg, uint64_t k, uint64_t r)
{
    return mix64(cfg.faults.seed +
                 mix64((k + 1) * 0xda942042e4dd58b5ULL +
                       (r + 1) * 0x9e3779b97f4a7c15ULL));
}

/**
 * Interleaving-bounded exploration for threaded modules (the
 * crash_explorer.hh "Interleaving-bounded exploration" contract):
 * run the baseline schedule once (profiling durpoints and
 * scheduler-visible ops, forking durpoint and race-point snapshots),
 * enumerate preemption plans up to the bound, execute each plan on a
 * private pool forking a snapshot at every cross-thread durability
 * race, and recover every fork through the same deterministic
 * degradation ladder as the single-schedule path. Outcomes merge
 * plan-major (plan 0 durpoints, plan 0 races, plan 1 races, ...), so
 * the result is byte-identical at every jobs setting and on both VM
 * engines.
 */
ExplorationResult
exploreInterleavings(ir::Module *m, const CrashExplorerConfig &cfg)
{
    ExplorationResult out;
    auto &reg = support::MetricsRegistry::global();
    reg.counter("explorer.runs").inc();
    reg.counter("explorer.sched.runs").inc();
    reg.counter("explorer.engine.snapshot_fork").inc();

    const bool faulting = cfg.faults.enabled();
    const bool guarded = faulting || cfg.stepBudget ||
                         cfg.heapBudget || cfg.timeBudgetMs;

    std::atomic<uint64_t> wc_retries{0};

    // Recover one forked crash image into the prefilled outcome
    // @p o, with fault injection seeded by @p fseed and the same
    // wall-clock-immune degradation ladder as the single-schedule
    // replay path (rung two re-forks the snapshot — the fork IS the
    // exact pool state, so no legacy re-execution is needed).
    auto recoverSnap = [&](const pmem::PmPool::Snapshot &snap,
                           CrashOutcome o,
                           uint64_t fseed) -> CrashOutcome {
        support::ScopedTimer t(reg.timer("explorer.replay_ns"));
        pmem::FaultPlan fp = cfg.faults;
        fp.seed = fseed;
        auto attempt = [&](uint64_t tighten, bool deterministic,
                           bool count) {
            pmem::PmPool pool(snap);
            pool.resetStats();
            if (faulting)
                pool.setFaultPlan(fp);
            pool.crash();
            if (faulting && count) {
                const pmem::PmPoolStats &ps = pool.stats();
                reg.counter("explorer.fault.crashes")
                    .inc(ps.faultedCrashes);
                reg.counter("explorer.fault.torn_lines")
                    .inc(ps.tornLines);
                reg.counter("explorer.fault.torn_chunks")
                    .inc(ps.tornChunks);
                reg.counter("explorer.fault.bitrot_flips")
                    .inc(ps.bitRotFlips);
            }
            vm::VmConfig vc;
            vc.engine = cfg.vmEngine;
            if (guarded) {
                vc.sandbox = true;
                vc.stepBudget = effectiveStepBudget(cfg) / tighten;
                vc.heapBudget = cfg.heapBudget / tighten;
                vc.timeBudgetMs = deterministic
                                      ? backstopMs(cfg)
                                      : cfg.timeBudgetMs / tighten;
            }
            vm::Vm recovery(m, &pool, vc);
            auto rec = recovery.run(cfg.recovery, cfg.recoveryArgs);
            if (count)
                reg.counter("explorer.snapshot.pages_copied")
                    .inc(pool.stats().pagesCopied);
            return rec;
        };
        vm::RunResult rec = attempt(1, false, true);
        if (!rec.ok() && rec.wallClockTimeout) {
            wc_retries.fetch_add(1, std::memory_order_relaxed);
            rec = attempt(1, true, false);
        }
        if (!rec.ok()) {
            reg.counter("explorer.degraded.retries").inc();
            rec = attempt(2, true, true);
        }
        if (!rec.ok()) {
            o.unverified = true;
            rec.returnValue = 0;
            reg.counter("explorer.degraded.unverified").inc();
            reg.counter(std::string("explorer.degraded.") +
                        vm::execOutcomeName(rec.outcome))
                .inc();
        }
        o.recovered = rec.returnValue;
        if (rec.ok() || !rec.wallClockTimeout)
            reg.counter("explorer.recovery.steps").inc(rec.steps);
        reg.histogram("explorer.recovered").observe((double)o.recovered);
        return o;
    };

    // ---- Plan 0: the baseline schedule, run like the master run of
    // the single-schedule path — profile durpoints/steps/visible
    // ops, fork a snapshot at every budgeted durpoint and race
    // point, then crash and recover cleanly for cleanRunRecovered.
    std::vector<pmem::PmPool::Snapshot> durSnaps;
    std::vector<pmem::PmPool::Snapshot> raceSnaps0;
    uint64_t races0 = 0;
    vm::RunResult run0;
    uint64_t baseline_snapshots = 0;
    {
        support::ScopedTimer t(reg.timer("explorer.profile_ns"));
        pmem::PmPool pool(cfg.poolBytes, cfg.evictChance,
                          planSeed(cfg, 0));
        vm::SchedulePlan plan0;
        vm::VmConfig vc;
        vc.engine = cfg.vmEngine;
        vc.durPointAtExit = false;
        vc.schedule = &plan0;
        uint64_t durpoints = 0;
        vc.durPointProbe = [&](uint64_t n, uint64_t,
                               const std::string &) {
            durpoints++;
            if (cfg.exploreDurPoints && n < cfg.maxCrashes)
                durSnaps.push_back(pool.snapshot());
        };
        vc.racePointProbe = [&](uint64_t r, uint64_t, uint32_t,
                                uint64_t) {
            races0++;
            if (r < cfg.maxRaceCrashes)
                raceSnaps0.push_back(pool.snapshot());
        };
        vm::Vm machine(m, &pool, vc);
        run0 = machine.run(cfg.entry, cfg.entryArgs);
        out.stepsInRun = run0.steps;
        out.durPointsInRun = durpoints;
        out.visibleOpsInRun = run0.visibleOps;

        pool.crash();
        pmem::PmPool::Snapshot crash_image;
        if (cfg.timeBudgetMs)
            crash_image = pool.snapshot();
        auto recover = [&](pmem::PmPool &rpool, bool deterministic) {
            vm::VmConfig rvc;
            rvc.engine = cfg.vmEngine;
            if (cfg.stepBudget || cfg.heapBudget ||
                cfg.timeBudgetMs) {
                rvc.sandbox = true;
                rvc.stepBudget = effectiveStepBudget(cfg);
                rvc.heapBudget = cfg.heapBudget;
                rvc.timeBudgetMs = deterministic ? backstopMs(cfg)
                                                 : cfg.timeBudgetMs;
            }
            vm::Vm recovery(m, &rpool, rvc);
            return recovery.run(cfg.recovery, cfg.recoveryArgs);
        };
        auto rec = recover(pool, false);
        if (!rec.ok() && rec.wallClockTimeout) {
            wc_retries.fetch_add(1, std::memory_order_relaxed);
            pmem::PmPool rpool(crash_image);
            rec = recover(rpool, true);
        }
        out.cleanRunRecovered = rec.ok() ? rec.returnValue : 0;
        reg.counter("explorer.recovery.steps").inc(rec.steps);
        baseline_snapshots = pool.stats().snapshots;
    }
    reg.counter("explorer.profile.durpoints").inc(out.durPointsInRun);
    reg.counter("explorer.profile.steps").inc(out.stepsInRun);
    reg.counter("explorer.snapshot.count").inc(baseline_snapshots);

    // ---- Enumerate the bounded schedule space from the baseline
    // run's visible-op census; the budget always keeps plan 0.
    uint64_t planned = 0;
    const std::vector<vm::SchedulePlan> plans = enumeratePlans(
        out.visibleOpsInRun, cfg.preemptBound,
        std::max<uint64_t>(cfg.schedules, 1), planned);
    out.schedulesPlanned = planned;
    out.schedulesExecuted = plans.size();
    reg.counter("explorer.sched.planned")
        .inc(std::min<uint64_t>(planned, 1ULL << 32));
    reg.counter("explorer.sched.executed").inc(plans.size());

    // A plan's entry run is sandboxed under a step budget derived
    // from the baseline run (a forced preemption can turn a benign
    // acquire-spin into livelock): generous enough for any fair
    // schedule of the same work, deterministic on every host. The
    // wall clock is backstop-only here for the same reason as in
    // recovery.
    const uint64_t plan_step_budget = run0.steps * 4 + 65536;

    // ---- Execute plans. Each plan runs on a private pool and
    // writes only per_plan[k]; the merge below is plan-major, so
    // order — hence the digest — is independent of jobs.
    std::vector<std::vector<CrashOutcome>> per_plan(plans.size());
    std::atomic<uint64_t> races_total{races0};
    std::atomic<uint64_t> race_crashes{0};
    std::atomic<uint64_t> visible_total{run0.visibleOps};
    std::atomic<uint64_t> degraded{0};

    // Plan 0's outcomes come from the baseline captures.
    {
        std::vector<CrashOutcome> &v = per_plan[0];
        for (uint64_t i = 0; i < durSnaps.size(); i++) {
            CrashOutcome o;
            o.crashPoint = i;
            v.push_back(recoverSnap(durSnaps[i], o,
                                    faultSeed(cfg, i)));
        }
        for (uint64_t r = 0; r < raceSnaps0.size(); r++) {
            CrashOutcome o;
            o.atRace = true;
            o.scheduleId = 0;
            o.crashPoint = r;
            v.push_back(recoverSnap(raceSnaps0[r], o,
                                    raceFaultSeed(cfg, 0, r)));
        }
        race_crashes.fetch_add(raceSnaps0.size(),
                               std::memory_order_relaxed);
    }

    auto runPlan = [&](uint64_t k) {
        pmem::PmPool pool(cfg.poolBytes, cfg.evictChance,
                          planSeed(cfg, k));
        std::vector<pmem::PmPool::Snapshot> raceSnaps;
        uint64_t races = 0;
        vm::VmConfig vc;
        vc.engine = cfg.vmEngine;
        vc.durPointAtExit = false;
        vc.schedule = &plans[k];
        vc.racePointProbe = [&](uint64_t r, uint64_t, uint32_t,
                                uint64_t) {
            races++;
            if (r < cfg.maxRaceCrashes)
                raceSnaps.push_back(pool.snapshot());
        };
        vc.sandbox = true;
        vc.stepBudget = plan_step_budget;
        vc.timeBudgetMs = cfg.timeBudgetMs ? backstopMs(cfg) : 0;
        vm::Vm machine(m, &pool, vc);
        auto run = machine.run(cfg.entry, cfg.entryArgs);
        if (!run.ok()) {
            // Schedule-budget exhaustion (livelock under forced
            // preemption, deadlock the plan provoked, ...) degrades
            // to one unverified outcome — never a crash.
            degraded.fetch_add(1, std::memory_order_relaxed);
            CrashOutcome o;
            o.atRace = true;
            o.scheduleId = k;
            o.crashPoint = degradedPlanPoint;
            o.unverified = true;
            per_plan[k] = {o};
            return;
        }
        races_total.fetch_add(races, std::memory_order_relaxed);
        visible_total.fetch_add(run.visibleOps,
                                std::memory_order_relaxed);
        race_crashes.fetch_add(raceSnaps.size(),
                               std::memory_order_relaxed);
        std::vector<CrashOutcome> v;
        for (uint64_t r = 0; r < raceSnaps.size(); r++) {
            CrashOutcome o;
            o.atRace = true;
            o.scheduleId = k;
            o.crashPoint = r;
            v.push_back(recoverSnap(raceSnaps[r], o,
                                    raceFaultSeed(cfg, k, r)));
        }
        per_plan[k] = std::move(v);
    };

    unsigned jobs = support::resolveJobs(cfg.jobs);
    jobs = (unsigned)std::min<uint64_t>(jobs, plans.size());
    if (jobs <= 1 || plans.size() <= 1) {
        for (uint64_t k = 1; k < plans.size(); k++)
            runPlan(k);
    } else {
        support::ThreadPool pool(jobs);
        pool.parallelForEach(1, plans.size(), runPlan);
    }

    out.schedulesDegraded = degraded.load(std::memory_order_relaxed);
    out.racesObserved = races_total.load(std::memory_order_relaxed);
    reg.counter("explorer.sched.degraded").inc(out.schedulesDegraded);
    reg.counter("explorer.sched.races").inc(out.racesObserved);
    reg.counter("explorer.sched.race_crashes")
        .inc(race_crashes.load(std::memory_order_relaxed));
    reg.counter("explorer.sched.visible_ops")
        .inc(visible_total.load(std::memory_order_relaxed));

    for (auto &v : per_plan)
        for (CrashOutcome &o : v)
            out.outcomes.push_back(o);
    reg.counter("explorer.crash_points.total").inc(out.outcomes.size());
    reg.counter("explorer.crash_points.durpoint").inc(durSnaps.size());

    noteWallClockRetries(wc_retries.load(std::memory_order_relaxed));
    return out;
}

} // namespace

bool
moduleIsThreaded(const ir::Module &m)
{
    for (const auto &f : m.functions())
        for (const auto &bb : f->blocks())
            for (const auto &in : *bb)
                switch (in->op()) {
                  case ir::Opcode::ThreadSpawn:
                  case ir::Opcode::ThreadJoin:
                  case ir::Opcode::AtomicLoad:
                  case ir::Opcode::AtomicStore:
                  case ir::Opcode::AtomicRmw:
                    return true;
                  default:
                    break;
                }
    return false;
}

uint64_t
ExplorationResult::raceCrashCount() const
{
    uint64_t n = 0;
    for (const CrashOutcome &o : outcomes)
        n += o.atRace && o.crashPoint != degradedPlanPoint;
    return n;
}

bool
ExplorationResult::durPointRecoveryNonDecreasing() const
{
    uint64_t prev = 0;
    for (const CrashOutcome &o : outcomes) {
        if (o.atStep || o.atRace || o.unverified)
            continue;
        if (o.recovered < prev)
            return false;
        prev = o.recovered;
    }
    return true;
}

uint64_t
ExplorationResult::minRecovered() const
{
    uint64_t v = ~0ULL;
    bool any = false;
    for (const CrashOutcome &o : outcomes) {
        if (o.unverified)
            continue;
        v = std::min(v, o.recovered);
        any = true;
    }
    return any ? v : 0;
}

uint64_t
ExplorationResult::maxRecovered() const
{
    uint64_t v = 0;
    for (const CrashOutcome &o : outcomes)
        if (!o.unverified)
            v = std::max(v, o.recovered);
    return v;
}

uint64_t
ExplorationResult::unverifiedCount() const
{
    uint64_t n = 0;
    for (const CrashOutcome &o : outcomes)
        n += o.unverified;
    return n;
}

ExplorationResult
exploreCrashes(ir::Module *m, const CrashExplorerConfig &cfg)
{
    hippo_assert(!cfg.entry.empty() && !cfg.recovery.empty(),
                 "explorer needs entry and recovery");
    if (moduleIsThreaded(*m))
        return exploreInterleavings(m, cfg);
    ExplorationResult out;
    auto &reg = support::MetricsRegistry::global();
    reg.counter("explorer.runs").inc();

    ReplayMode mode = ReplayMode::Fork;
    if (cfg.engine == ExploreEngine::Legacy)
        mode = ReplayMode::Legacy;
    else if (cfg.evictChance > 0)
        mode = ReplayMode::Log;

    pmem::PmOpLog log(cfg.opLogMaxBytes);
    MasterState ms;
    uint64_t master_recovery_steps = 0;
    {
        support::ScopedTimer t(reg.timer("explorer.profile_ns"));
        master_recovery_steps =
            masterRun(m, cfg, mode,
                      mode == ReplayMode::Log ? &log : nullptr, out,
                      ms);
    }
    reg.counter("explorer.profile.durpoints").inc(out.durPointsInRun);
    reg.counter("explorer.profile.steps").inc(out.stepsInRun);
    reg.counter("explorer.recovery.steps").inc(master_recovery_steps);

    if (mode == ReplayMode::Log && log.overflowed()) {
        // The op log blew its byte budget: the recorded cursors are
        // unusable, so every crash point replays the legacy way.
        // Same result, just slower.
        reg.counter("explorer.oplog.overflows").inc();
        mode = ReplayMode::Legacy;
    }
    switch (mode) {
      case ReplayMode::Fork:
        reg.counter("explorer.engine.snapshot_fork").inc();
        break;
      case ReplayMode::Log:
        reg.counter("explorer.engine.oplog").inc();
        reg.counter("explorer.oplog.ops").inc(log.position());
        break;
      case ReplayMode::Legacy:
        reg.counter("explorer.engine.legacy").inc();
        break;
    }
    reg.counter("explorer.snapshot.count").inc(ms.snapshots);
    reg.counter("explorer.snapshot.pages_copied").inc(ms.pagesCopied);

    const std::vector<PlannedCrash> plan = planCrashes(cfg, out, ms);
    out.outcomes.resize(plan.size());

    uint64_t step_crashes = 0;
    for (const PlannedCrash &p : plan)
        step_crashes += p.atStep;
    reg.counter("explorer.crash_points.total").inc(plan.size());
    reg.counter("explorer.crash_points.durpoint")
        .inc(plan.size() - step_crashes);
    reg.counter("explorer.crash_points.step").inc(step_crashes);

    // Each plan entry recovers on a private Vm + PmPool and writes
    // only outcomes[k], so the merge is the plan order itself and
    // the result is byte-identical at every jobs setting and in
    // every replay mode. The metric instruments are shared but
    // order-independent, so the exported counts are deterministic
    // too; only the wall-clock timers (and the wallclock.retries
    // gauge) vary run to run: attempts triggered by the wall clock
    // never touch a comparable counter.
    std::atomic<uint64_t> wc_retries{0};
    auto replay = [&](uint64_t k) {
        support::ScopedTimer t(reg.timer("explorer.replay_ns"));
        const PlannedCrash &p = plan[k];
        CrashOutcome o;
        o.atStep = p.atStep;
        o.crashPoint = p.crashPoint;

        // The entry-run steps a legacy replay of this point executes
        // (a step crash stops at exactly crashPoint steps; a durpoint
        // crash stops inside the durpoint instruction, whose in-run
        // step the master recorded — in the fast modes only).
        uint64_t legacy_steps = 0;
        if (mode != ReplayMode::Legacy)
            legacy_steps = p.atStep
                               ? p.crashPoint
                               : ms.durSteps[ms.durSlot.at(
                                     p.crashPoint)];

        const bool faulting = cfg.faults.enabled();
        const bool guarded = faulting || cfg.stepBudget ||
                             cfg.heapBudget || cfg.timeBudgetMs;

        // The effective fault plan for this crash point: the
        // configured odds, reseeded by plan position (never by
        // worker), so torn states reproduce at every jobs setting.
        pmem::FaultPlan fp = cfg.faults;
        fp.seed = faultSeed(cfg, k);

        // Crash the materialized pool (tearing in-flight lines when
        // a fault plan is active) and run recovery, sandboxed under
        // the configured budgets divided by @p tighten. With
        // @p deterministic the wall-clock budget is swapped for the
        // hang backstop (the step cap decides); with !count no
        // comparable counter is touched (wall-clock retries).
        auto crashAndRecover = [&](pmem::PmPool &pool,
                                   uint64_t tighten,
                                   bool deterministic, bool count) {
            if (faulting)
                pool.setFaultPlan(fp);
            pool.crash();
            if (faulting && count) {
                const pmem::PmPoolStats &ps = pool.stats();
                reg.counter("explorer.fault.crashes")
                    .inc(ps.faultedCrashes);
                reg.counter("explorer.fault.torn_lines")
                    .inc(ps.tornLines);
                reg.counter("explorer.fault.torn_chunks")
                    .inc(ps.tornChunks);
                reg.counter("explorer.fault.bitrot_flips")
                    .inc(ps.bitRotFlips);
            }
            vm::VmConfig vc;
            vc.engine = cfg.vmEngine;
            if (guarded) {
                vc.sandbox = true;
                vc.stepBudget = effectiveStepBudget(cfg) / tighten;
                vc.heapBudget = cfg.heapBudget / tighten;
                vc.timeBudgetMs = deterministic
                                      ? backstopMs(cfg)
                                      : cfg.timeBudgetMs / tighten;
            }
            vm::Vm recovery(m, &pool, vc);
            return recovery.run(cfg.recovery, cfg.recoveryArgs);
        };

        /** Legacy materialization: full entry re-execution with the
         *  crash knobs — rung two of the degradation ladder, and the
         *  Legacy engine's only rung. */
        auto legacyAttempt = [&](uint64_t tighten,
                                 bool deterministic, bool count) {
            pmem::PmPool pool(cfg.poolBytes, cfg.evictChance,
                              replaySeed(cfg, k));
            {
                vm::VmConfig vc;
                vc.engine = cfg.vmEngine;
                vc.crashAtDurPoint =
                    p.atStep ? -1 : (int64_t)p.crashPoint;
                vc.crashAtStep = p.atStep ? p.crashPoint : 0;
                vm::Vm machine(m, &pool, vc);
                uint64_t steps =
                    machine.run(cfg.entry, cfg.entryArgs).steps;
                if (count)
                    reg.counter("explorer.replay.steps_executed")
                        .inc(steps);
            }
            return crashAndRecover(pool, tighten, deterministic,
                                   count);
        };

        /** Materialize this crash point's pool the mode's way and
         *  run one recovery attempt. */
        auto attempt = [&](uint64_t tighten, bool deterministic,
                           bool count) -> vm::RunResult {
            switch (mode) {
              case ReplayMode::Legacy:
                return legacyAttempt(tighten, deterministic, count);
              case ReplayMode::Fork: {
                const pmem::PmPool::Snapshot &snap =
                    p.atStep ? ms.stepSnaps[p.crashPoint /
                                                cfg.stepStride -
                                            1]
                             : ms.durSnaps[ms.durSlot.at(
                                   p.crashPoint)];
                pmem::PmPool pool(snap);
                pool.resetStats();
                auto rec = crashAndRecover(pool, tighten,
                                           deterministic, count);
                if (count) {
                    reg.counter("explorer.snapshot.pages_copied")
                        .inc(pool.stats().pagesCopied);
                    reg.counter("explorer.replay.steps_saved")
                        .inc(legacy_steps);
                }
                return rec;
              }
              case ReplayMode::Log: {
                pmem::PmPool pool(cfg.poolBytes, cfg.evictChance,
                                  replaySeed(cfg, k));
                size_t pos =
                    p.atStep ? ms.stepLogPos[p.crashPoint /
                                                 cfg.stepStride -
                                             1]
                             : ms.durLogPos[ms.durSlot.at(
                                   p.crashPoint)];
                log.replayTo(pool, pos);
                auto rec = crashAndRecover(pool, tighten,
                                           deterministic, count);
                if (count)
                    reg.counter("explorer.replay.steps_saved")
                        .inc(legacy_steps);
                return rec;
              }
            }
            __builtin_unreachable();
        };

        vm::RunResult rec = attempt(1, false, true);

        // A wall-clock timeout is a host verdict, not a module
        // verdict: replay the same crash point under the
        // deterministic step cap before letting the ladder see it.
        if (!rec.ok() && rec.wallClockTimeout) {
            wc_retries.fetch_add(1, std::memory_order_relaxed);
            rec = attempt(1, true, false);
        }

        // Degradation ladder: a recovery the watchdog cut short gets
        // one retry on the legacy engine with budgets tightened to
        // half (a genuinely diverging recovery fails it faster);
        // still no verdict -> the crash point is recorded as
        // unverified rather than aborting the exploration. Both
        // rungs are now deterministic, so the comparable degraded
        // counters are too.
        if (!rec.ok()) {
            reg.counter("explorer.degraded.retries").inc();
            rec = legacyAttempt(2, true, true);
        }
        if (!rec.ok()) {
            o.unverified = true;
            rec.returnValue = 0;
            reg.counter("explorer.degraded.unverified").inc();
            reg.counter(std::string("explorer.degraded.") +
                        vm::execOutcomeName(rec.outcome))
                .inc();
        }

        o.recovered = rec.returnValue;
        // Steps from a backstop-cut run (pathological host) stay out
        // of the comparable aggregate.
        if (rec.ok() || !rec.wallClockTimeout)
            reg.counter("explorer.recovery.steps").inc(rec.steps);
        reg.histogram("explorer.recovered").observe((double)o.recovered);
        out.outcomes[k] = o;
    };

    unsigned jobs = support::resolveJobs(cfg.jobs);
    jobs = (unsigned)std::min<uint64_t>(jobs, plan.size());
    if (jobs <= 1) {
        for (uint64_t k = 0; k < plan.size(); k++)
            replay(k);
    } else {
        support::ThreadPool pool(jobs);
        pool.parallelForEach(0, plan.size(), replay);
    }
    noteWallClockRetries(
        wc_retries.load(std::memory_order_relaxed));
    return out;
}

uint64_t
recoveryDigest(const ExplorationResult &res)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&](uint64_t v) {
        for (int i = 0; i < 8; i++) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    mix(res.cleanRunRecovered);
    for (const auto &o : res.outcomes) {
        mix(o.atStep);
        mix(o.crashPoint);
        mix(o.atRace);
        mix(o.scheduleId);
        mix(o.recovered);
        mix(o.unverified);
    }
    return h;
}

} // namespace hippo::pmcheck
