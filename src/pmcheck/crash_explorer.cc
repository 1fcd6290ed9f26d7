#include "pmcheck/crash_explorer.hh"

#include <algorithm>
#include <atomic>
#include <map>
#include <set>

#include "ir/module.hh"
#include "pmem/pm_pool.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/parallel.hh"
#include "vm/bytecode.hh"
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

/** Generous hang backstop for deterministic retries: hit only by a
 *  pathological host or a genuine hang, never by a healthy run. */
uint64_t
backstopMs(const CrashExplorerConfig &cfg)
{
    return std::max<uint64_t>(cfg.timeBudgetMs * 64, 10000);
}

/**
 * The recovery half of every replay, shared by the single-schedule
 * and the interleaving path: the exploration's one compiled program,
 * one recovery run, one crash step, the clean-run recovery, and the
 * degradation ladder. Safe to use from parallelFor workers; the
 * wall-clock retries they count are folded into the (uncomparable)
 * explorer.wallclock.retries gauge when the exploration ends.
 *
 * Attempts triggered by the wall clock never touch a comparable
 * counter, so every exported count stays a pure function of the
 * module and the config.
 */
class Recovery
{
  public:
    Recovery(ir::Module *m, const CrashExplorerConfig &cfg)
        : m_(m), cfg_(cfg), reg_(support::MetricsRegistry::global()),
          faulting_(cfg.faults.enabled())
    {
        // Every Vm of the exploration runs the module untraced, so
        // one fused program serves them all, read-only.
        program_ = std::make_shared<const vm::BcProgram>(
            vm::compileModule(*m));
    }

    ~Recovery()
    {
        uint64_t n = wcRetries_.load(std::memory_order_relaxed);
        if (!n)
            return;
        auto &g = reg_.gauge("explorer.wallclock.retries");
        g.set(g.value() + (double)n);
    }

    /** The base config of every Vm the exploration builds: the
     *  shared program. */
    vm::VmConfig
    vmConfig() const
    {
        vm::VmConfig vc;
        vc.program = program_;
        return vc;
    }

    /**
     * Run the recovery entry once against the crashed @p pool. It is
     * sandboxed under the configured budgets whenever one is set or
     * the image is @p torn (a torn image may drive recovery
     * anywhere). On a @p retry the wall-clock budget is swapped for
     * the hang backstop, so the step cap decides.
     */
    vm::RunResult
    recover(pmem::PmPool &pool, bool torn, bool retry) const
    {
        vm::VmConfig vc = vmConfig();
        if (torn || cfg_.stepBudget || cfg_.heapBudget ||
            cfg_.timeBudgetMs) {
            vc.sandbox = true;
            // A clock-only budget still gets a deterministic step cap.
            vc.stepBudget = cfg_.stepBudget ? cfg_.stepBudget
                            : cfg_.timeBudgetMs ? wallClockRetryStepCap
                                                : 0;
            vc.heapBudget = cfg_.heapBudget;
            vc.timeBudgetMs = retry ? backstopMs(cfg_) : cfg_.timeBudgetMs;
        }
        vm::Vm recovery(m_, &pool, vc);
        return recovery.run(cfg_.recovery, cfg_.recoveryArgs);
    }

    /**
     * Crash a materialized replay pool — tearing in-flight lines
     * under the configured fault plan reseeded by @p fseed, a
     * function of the plan position (never of the worker), so torn
     * states reproduce at every jobs setting — and recover it once.
     */
    vm::RunResult
    crashAndRecover(pmem::PmPool &pool, uint64_t fseed, bool retry)
    {
        if (faulting_) {
            pmem::FaultPlan fp = cfg_.faults;
            fp.seed = fseed;
            pool.setFaultPlan(fp);
        }
        pool.crash();
        if (faulting_ && !retry) {
            const pmem::PmPoolStats &ps = pool.stats();
            reg_.counter("explorer.fault.crashes").inc(ps.faultedCrashes);
            reg_.counter("explorer.fault.torn_lines").inc(ps.tornLines);
            reg_.counter("explorer.fault.torn_chunks").inc(ps.tornChunks);
            reg_.counter("explorer.fault.bitrot_flips")
                .inc(ps.bitRotFlips);
        }
        return recover(pool, faulting_, retry);
    }

    /** Fork @p snap into a private pool, then crashAndRecover it. */
    vm::RunResult
    fromSnapshot(const pmem::PmPool::Snapshot &snap, uint64_t fseed,
                 bool retry)
    {
        pmem::PmPool pool(snap);
        pool.resetStats();
        vm::RunResult rec = crashAndRecover(pool, fseed, retry);
        if (!retry)
            reg_.counter("explorer.snapshot.pages_copied")
                .inc(pool.stats().pagesCopied);
        return rec;
    }

    /**
     * The clean run: crash the entry run's @p pool without faults (it
     * is the reference the torn replays are compared against) and
     * recover it, still under the watchdog, so a recovery that
     * diverges even on a clean crash cannot hang the exploration
     * before the first replay. Returns the recovered value (0 when
     * recovery failed).
     */
    uint64_t
    clean(pmem::PmPool &pool)
    {
        pool.crash();
        // A wall-clock verdict must not leak into cleanRunRecovered,
        // so keep the crash image for the deterministic retry.
        pmem::PmPool::Snapshot crash_image;
        if (cfg_.timeBudgetMs)
            crash_image = pool.snapshot();
        vm::RunResult rec = retrying([&](bool retry) {
            if (!retry)
                return recover(pool, false, false);
            pmem::PmPool rpool(crash_image);
            return recover(rpool, false, true);
        });
        reg_.counter("explorer.recovery.steps").inc(rec.steps);
        return rec.ok() ? rec.returnValue : 0;
    }

    /**
     * The degradation ladder for one crash image. @p attempt(retry)
     * materializes the image's pool and recovers it (through
     * crashAndRecover). A wall-clock timeout is a host verdict, not a
     * module verdict, so it is retried once under the deterministic
     * step cap. Any other failure is final: the replay is
     * deterministic, so a second attempt would fail the same way.
     */
    template <class Attempt>
    vm::RunResult
    recoverImage(Attempt &&attempt)
    {
        support::ScopedTimer t(reg_.timer("explorer.replay_ns"));
        return retrying(attempt);
    }

    /**
     * Give the crash point @p o the verdict of its image's recovery
     * @p rec and charge it to the per-point counters. A failed
     * recovery records the point as unverified instead of aborting
     * the exploration. Every point that shares an image is charged
     * the image's result, so the counters do not depend on how many
     * recoveries actually ran.
     */
    CrashOutcome
    charge(CrashOutcome o, vm::RunResult rec)
    {
        if (!rec.ok()) {
            o.unverified = true;
            rec.returnValue = 0;
            reg_.counter("explorer.degraded.unverified").inc();
            reg_.counter(std::string("explorer.degraded.") +
                         vm::execOutcomeName(rec.outcome))
                .inc();
        }
        o.recovered = rec.returnValue;
        // Steps from a backstop-cut run (pathological host) stay out
        // of the comparable aggregate.
        if (rec.ok() || !rec.wallClockTimeout)
            reg_.counter("explorer.recovery.steps").inc(rec.steps);
        reg_.histogram("explorer.recovered").observe((double)o.recovered);
        return o;
    }

  private:
    /** @p attempt(false), repeated as @p attempt(true) when the wall
     *  clock cut it short. */
    template <class Attempt>
    vm::RunResult
    retrying(Attempt &&attempt)
    {
        vm::RunResult rec = attempt(false);
        if (!rec.ok() && rec.wallClockTimeout) {
            wcRetries_.fetch_add(1, std::memory_order_relaxed);
            rec = attempt(true);
        }
        return rec;
    }

    ir::Module *m_;
    const CrashExplorerConfig &cfg_;
    support::MetricsRegistry &reg_;
    const bool faulting_;
    std::shared_ptr<const vm::BcProgram> program_;
    std::atomic<uint64_t> wcRetries_{0};
};

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
    /** Fork mode: the captured pool snapshots, and the index of the
     *  one that serves each captured durpoint / step-stride boundary.
     *  Durpoint captures are indexed through durSlot: within the
     *  crash budget every durpoint gets a slot, and priority-labeled
     *  durpoints are captured even beyond it (the plan moves them
     *  ahead of the truncation line). Without fault injection, a
     *  boundary at the persist epoch of the last snapshot shares it:
     *  both would crash to the same image. */
    std::vector<pmem::PmPool::Snapshot> images;
    std::vector<size_t> durImage;
    std::vector<size_t> stepImage;

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
 * capturing pool snapshots (one per persist epoch when the crash
 * image is a function of the persistent image alone) or op-log
 * cursors, then crashes the pool and runs recovery once for
 * cleanRunRecovered. With @p mode == Legacy nothing is captured —
 * this is exactly the legacy engine's profile run.
 */
void
masterRun(ir::Module *m, const CrashExplorerConfig &cfg,
          ReplayMode mode, pmem::PmOpLog *log, Recovery &rc,
          ExplorationResult &out, MasterState &ms)
{
    pmem::PmPool pool(cfg.poolBytes, cfg.evictChance, cfg.seed);
    if (log)
        pool.setOpLog(log);

    // Without evictions (Fork mode) or faults, crash() keeps exactly
    // the persistent image and the region table, so an unchanged
    // persist epoch means an unchanged crash image.
    const bool share = mode == ReplayMode::Fork && !cfg.faults.enabled();
    auto capture = [&]() -> size_t {
        if (!share || ms.images.empty() ||
            ms.images.back().persistEpoch != pool.persistEpoch())
            ms.images.push_back(pool.snapshot());
        return ms.images.size() - 1;
    };

    vm::VmConfig vc = rc.vmConfig();
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
            ms.durImage.push_back(capture());
        else
            ms.durLogPos.push_back(log->position());
    };
    if (cfg.stepStride && mode != ReplayMode::Legacy) {
        vc.stepProbeStride = cfg.stepStride;
        vc.stepProbe = [&](uint64_t) {
            if (mode == ReplayMode::Fork) {
                if (ms.stepImage.size() < cfg.maxCrashes)
                    ms.stepImage.push_back(capture());
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
    out.cleanRunRecovered = rc.clean(pool);

    ms.snapshots = pool.stats().snapshots;
    ms.pagesCopied = pool.stats().pagesCopied;
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

    Recovery rc(m, cfg);
    // Recover one forked crash image into the prefilled outcome
    // @p o, with fault injection seeded by @p fseed, through the same
    // ladder as the single-schedule replay path.
    auto recoverSnap = [&](const pmem::PmPool::Snapshot &snap,
                           CrashOutcome o, uint64_t fseed) {
        return rc.charge(o, rc.recoverImage([&](bool retry) {
            return rc.fromSnapshot(snap, fseed, retry);
        }));
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
        vm::VmConfig vc = rc.vmConfig();
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

        out.cleanRunRecovered = rc.clean(pool);
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
        vm::VmConfig vc = rc.vmConfig();
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

    support::parallelFor(cfg.jobs, 1, plans.size(), runPlan);

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
    return out;
}

} // namespace

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
    if (ir::moduleIsThreaded(*m))
        return exploreInterleavings(m, cfg);
    ExplorationResult out;
    auto &reg = support::MetricsRegistry::global();
    reg.counter("explorer.runs").inc();

    ReplayMode mode = ReplayMode::Fork;
    if (cfg.engine == ExploreEngine::Legacy)
        mode = ReplayMode::Legacy;
    else if (cfg.evictChance > 0)
        mode = ReplayMode::Log;

    Recovery rc(m, cfg);
    pmem::PmOpLog log(cfg.opLogMaxBytes);
    MasterState ms;
    {
        support::ScopedTimer t(reg.timer("explorer.profile_ns"));
        masterRun(m, cfg, mode, mode == ReplayMode::Log ? &log : nullptr,
                  rc, out, ms);
    }
    reg.counter("explorer.profile.durpoints").inc(out.durPointsInRun);
    reg.counter("explorer.profile.steps").inc(out.stepsInRun);

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

    // A crash point's capture slot in the master state (none in
    // Legacy mode), and its Fork-mode snapshot.
    auto slotOf = [&](const PlannedCrash &p) -> size_t {
        return p.atStep ? p.crashPoint / cfg.stepStride - 1
                        : ms.durSlot.at(p.crashPoint);
    };
    auto snapOf = [&](const PlannedCrash &p) {
        size_t slot = slotOf(p);
        return p.atStep ? ms.stepImage[slot] : ms.durImage[slot];
    };

    // Group the plan by crash image, in first-appearance plan order.
    // In Fork mode the points that share a master snapshot share one
    // recovery (masterRun shares a snapshot only between boundaries
    // that crash to the same image); every other point is its own
    // image. The grouping comes from the master run alone, so
    // results and counters are the same at every jobs setting.
    std::vector<size_t> imageOf(plan.size());
    std::vector<uint64_t> firstPoint; ///< plan entry recovering image i
    std::vector<size_t> imageOfSnap(ms.images.size(), SIZE_MAX);
    for (uint64_t k = 0; k < plan.size(); k++) {
        if (mode == ReplayMode::Fork) {
            size_t &image = imageOfSnap[snapOf(plan[k])];
            if (image == SIZE_MAX) {
                image = firstPoint.size();
                firstPoint.push_back(k);
            }
            imageOf[k] = image;
        } else {
            imageOf[k] = firstPoint.size();
            firstPoint.push_back(k);
        }
    }
    if (mode == ReplayMode::Fork) {
        reg.counter("explorer.memo.images").inc(firstPoint.size());
        reg.counter("explorer.memo.hits")
            .inc(plan.size() - firstPoint.size());
    }

    // Each image recovers on a private Vm + PmPool and writes only
    // results[i]. The metric instruments are shared but
    // order-independent, so the exported counts are deterministic;
    // only the wall-clock timers (and the wallclock.retries gauge)
    // vary run to run.
    std::vector<vm::RunResult> results(firstPoint.size());
    auto replay = [&](uint64_t i) {
        const uint64_t k = firstPoint[i];
        const PlannedCrash &p = plan[k];
        const uint64_t fseed = faultSeed(cfg, k);

        // Materialize the image's pool the mode's way and recover it.
        results[i] = rc.recoverImage([&](bool retry) -> vm::RunResult {
            if (mode == ReplayMode::Fork)
                return rc.fromSnapshot(ms.images[snapOf(p)], fseed,
                                       retry);
            pmem::PmPool pool(cfg.poolBytes, cfg.evictChance,
                              replaySeed(cfg, k));
            if (mode == ReplayMode::Log) {
                log.replayTo(pool, p.atStep ? ms.stepLogPos[slotOf(p)]
                                            : ms.durLogPos[slotOf(p)]);
                return rc.crashAndRecover(pool, fseed, retry);
            }
            // Legacy: full entry re-execution with the crash knobs.
            {
                vm::VmConfig vc = rc.vmConfig();
                vc.crashAtDurPoint =
                    p.atStep ? -1 : (int64_t)p.crashPoint;
                vc.crashAtStep = p.atStep ? p.crashPoint : 0;
                vm::Vm machine(m, &pool, vc);
                uint64_t steps =
                    machine.run(cfg.entry, cfg.entryArgs).steps;
                if (!retry)
                    reg.counter("explorer.replay.steps_executed")
                        .inc(steps);
            }
            return rc.crashAndRecover(pool, fseed, retry);
        });
    };
    support::parallelFor(cfg.jobs, 0, firstPoint.size(), replay);

    // Every point gets its image's verdict, in plan order. Outside
    // Legacy mode it also saves the entry-run steps a legacy replay
    // of it executes: a step crash stops at exactly crashPoint steps;
    // a durpoint crash stops inside the durpoint instruction, whose
    // in-run step the master recorded.
    uint64_t steps_saved = 0;
    for (uint64_t k = 0; k < plan.size(); k++) {
        const PlannedCrash &p = plan[k];
        CrashOutcome o;
        o.atStep = p.atStep;
        o.crashPoint = p.crashPoint;
        out.outcomes[k] = rc.charge(o, results[imageOf[k]]);
        if (mode != ReplayMode::Legacy)
            steps_saved += p.atStep ? p.crashPoint
                                    : ms.durSteps[slotOf(p)];
    }
    if (mode != ReplayMode::Legacy && !plan.empty())
        reg.counter("explorer.replay.steps_saved").inc(steps_saved);
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
