/**
 * @file
 * Systematic crash-state exploration, in the spirit of the
 * validation tools the paper builds on (Yat's systematic crash
 * enumeration, Agamotto's thorough exploration; §2.2/§8): execute a
 * workload, then re-execute it once per crash point — every
 * durability point, and optionally every Nth instruction — simulate
 * the power failure, run the application's recovery entry point
 * against the surviving pool, and collect the recovered state.
 *
 * This is how the repo validates that repaired applications are
 * actually crash consistent, beyond the detector's trace-order
 * checking: the detector proves orderings exist, the explorer
 * demonstrates recovery works from real torn states.
 *
 * Two engines produce byte-identical ExplorationResults (DESIGN.md
 * "Snapshot replay engine"):
 *  - the *snapshot* engine (default) runs the entry program once,
 *    forking a copy-on-write pool snapshot at every planned crash
 *    point (or, under eviction injection, replaying a recorded
 *    pool-op log prefix per point), so only recovery executes per
 *    crash — O(S + C·R) VM steps instead of O(C·S);
 *  - the *legacy* engine re-executes the entry run once per crash
 *    point, kept for differential testing.
 */

#ifndef HIPPO_PMCHECK_CRASH_EXPLORER_HH
#define HIPPO_PMCHECK_CRASH_EXPLORER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "pmem/pm_pool.hh"
#include "vm/vm.hh"

namespace hippo::ir
{
class Module;
} // namespace hippo::ir

namespace hippo::pmcheck
{

/** How exploreCrashes replays the planned crash points. */
enum class ExploreEngine : uint8_t
{
    /** Pick automatically (currently always Snapshot). */
    Auto,
    /** One full entry re-execution per crash point. */
    Legacy,
    /**
     * One master entry execution; per crash point, fork a pool
     * snapshot (evictChance == 0) or replay the recorded pool-op
     * log prefix against a per-point-seeded pool (evictChance > 0,
     * falling back to Legacy replays if the log overflows its byte
     * budget). Results are byte-identical to Legacy in both modes.
     */
    Snapshot,
};

/** What to run and where to crash. */
struct CrashExplorerConfig
{
    std::string entry;                ///< workload entry point
    std::vector<uint64_t> entryArgs;
    std::string recovery;             ///< recovery entry point
    std::vector<uint64_t> recoveryArgs;

    bool exploreDurPoints = true; ///< crash at every durpoint

    uint64_t stepStride = 0;      ///< also crash every N instrs

    /**
     * Exploration budget. The crash plan enumerates every durpoint
     * crash first, then every step-stride crash, and is truncated to
     * this many entries *before* any replay runs: under budget
     * pressure durpoint crashes are prioritized over step-stride
     * crashes, and the surviving plan — hence the result — is
     * identical at every `jobs` setting.
     */
    uint64_t maxCrashes = 512;

    /**
     * Static pre-filter: durpoint labels to explore *first*. Crashes
     * at durpoints whose label is listed here (typically
     * analysis::StaticReport::durLabels() — the durability points the
     * static checker flagged as suspicious) move to the front of the
     * crash plan, ahead of the remaining durpoint crashes, so a tight
     * maxCrashes budget is spent where bugs statically can be. Within
     * each class the original durpoint order is kept; when empty, the
     * plan — and so the whole ExplorationResult — is unchanged.
     */
    std::vector<std::string> priorityDurLabels;

    uint64_t poolBytes = 16u << 20;

    /**
     * Replay workers. 0 = one per hardware thread; 1 = fully serial
     * (no pool). Each crash point replays on its own Vm + PmPool and
     * outcomes merge back in crash-plan order, so every value of
     * `jobs` yields a byte-identical ExplorationResult.
     */
    unsigned jobs = 0;

    /**
     * Random-eviction injection for replay pools (see PmPool). The
     * RNG for crash point k is seeded from (seed, k) — by plan
     * position, not by worker — so eviction timing is reproducible
     * and independent of `jobs`.
     */
    double evictChance = 0.0;
    uint64_t seed = 1;

    /** Replay engine (see ExploreEngine). */
    ExploreEngine engine = ExploreEngine::Auto;

    /**
     * Interpreter engine for every VM the exploration runs (master,
     * entry replays, recoveries). Orthogonal to `engine`, which
     * picks the *replay strategy*; this picks how each individual
     * run executes. Results are byte-identical either way
     * (tests/test_fast_interp.cc).
     */
    vm::VmEngine vmEngine = vm::VmEngine::Auto;

    /**
     * Byte budget for the checkpointed-replay op log (the
     * evictChance > 0 snapshot mode). Overflow falls back to
     * per-point legacy replays; the result is unchanged either way.
     */
    uint64_t opLogMaxBytes = 64u << 20;

    /**
     * Adversarial torn-store fault model applied to every *replay*
     * pool at its crash boundary (the master/clean run stays
     * fault-free, so cleanRunRecovered remains the fault-free
     * reference). The effective plan for crash point k reseeds
     * faults.seed by plan position — like the eviction RNG, never by
     * worker — so exploration stays byte-identical at every `jobs`
     * setting and in every replay mode.
     */
    pmem::FaultPlan faults;

    /**
     * Watchdog budgets for recovery replays (see vm::VmConfig).
     * Recovery from an adversarial (torn) state may diverge or trap;
     * when faults are enabled or any budget is nonzero, recovery
     * runs sandboxed and a non-Ok outcome enters the degradation
     * ladder: one legacy-engine retry with budgets tightened to
     * half, then the crash point is recorded as unverified instead
     * of aborting the exploration.
     *
     * Wall-clock timeouts never decide an outcome: a run cut short
     * by `timeBudgetMs` is retried under a deterministic step cap
     * (with only a generous hang backstop on the clock), so every
     * comparable `explorer.*` aggregate — and the recovery digest —
     * is a pure function of the module and this config, identical
     * on any host. Only the uncomparable
     * `explorer.wallclock.retries` gauge records how often the
     * clock fired.
     */
    uint64_t stepBudget = 0;   ///< recovery instruction cap (0 = off)
    uint64_t heapBudget = 0;   ///< recovery volatile-heap cap (0 = off)
    uint64_t timeBudgetMs = 0; ///< recovery wall-clock cap (0 = off)

    /**
     * @name Interleaving-bounded exploration (threaded modules)
     *
     * When the module contains thread/atomic instructions
     * (moduleIsThreaded) the explorer explores the schedule space
     * instead of the single-schedule crash plan: enumerate
     * vm::SchedulePlans with up to `preemptBound` forced
     * preemptions (Chess-style), in lexicographic order over the
     * baseline run's visible-op indices, truncated to the
     * `schedules` budget; execute each plan on a private pool; fork
     * a COW pool snapshot at every cross-thread durability race the
     * scheduler reports (a release-ordered atomic PM publication
     * with unpersisted payload lines — capped at `maxRaceCrashes`
     * per schedule) and run recovery against the forked pre-
     * publication image. Durpoint crashes are explored under the
     * baseline (empty) plan only. The plan set, the race forks, and
     * the outcome order are pure functions of this config, so the
     * result is byte-identical across `jobs` and both VM engines. A
     * plan whose entry run the watchdog cuts short degrades to a
     * single unverified outcome (never a crash), counted in
     * `explorer.sched.degraded`.
     */
    /// @{
    uint64_t schedules = 64;      ///< schedule-plan budget (>= 1)
    uint32_t preemptBound = 2;    ///< max forced preemptions per plan
    uint64_t maxRaceCrashes = 16; ///< race forks per schedule
    /// @}
};

/** One explored crash. */
struct CrashOutcome
{
    bool atStep = false;      ///< step-based (vs durpoint-based)
    uint64_t crashPoint = 0;  ///< durpoint index or step count

    /** Interleaving exploration: the crash image was forked at a
     *  cross-thread race point (crashPoint is then the race ordinal
     *  within the schedule's run). */
    bool atRace = false;
    uint64_t scheduleId = 0;  ///< plan index (0 = baseline schedule)

    uint64_t recovered = 0;   ///< recovery entry's return value

    /** Recovery exhausted its watchdog budgets (or trapped) on both
     *  rungs of the degradation ladder; `recovered` is 0 and means
     *  "unknown", not "recovered nothing". */
    bool unverified = false;

    bool operator==(const CrashOutcome &o) const = default;
};

/** Aggregate exploration result. */
struct ExplorationResult
{
    std::vector<CrashOutcome> outcomes;
    uint64_t durPointsInRun = 0;
    uint64_t stepsInRun = 0;
    uint64_t cleanRunRecovered = 0; ///< recovery after no crash

    /** @name Interleaving exploration census (threaded modules) */
    /// @{
    uint64_t visibleOpsInRun = 0;   ///< baseline scheduler-visible ops
    uint64_t schedulesPlanned = 0;  ///< bounded-enumeration size
    uint64_t schedulesExecuted = 0; ///< plans run (post-budget)
    uint64_t schedulesDegraded = 0; ///< plans the watchdog cut short
    uint64_t racesObserved = 0;     ///< race points across all plans
    /// @}

    bool operator==(const ExplorationResult &o) const = default;

    /** Outcomes forked at cross-thread race points. */
    uint64_t raceCrashCount() const;

    /** Recovered values at successive durpoints never decrease
     *  (the natural invariant of append/insert workloads). */
    bool durPointRecoveryNonDecreasing() const;

    /** Smallest / largest recovered value over all crashes. */
    uint64_t minRecovered() const;
    uint64_t maxRecovered() const;

    /** Crash points the degradation ladder gave up on. */
    uint64_t unverifiedCount() const;
};

/** True when @p m contains thread or atomic instructions — the
 *  explorer then runs interleaving-bounded exploration. */
bool moduleIsThreaded(const ir::Module &m);

/**
 * Run the exploration. The module is not modified; with `jobs > 1`
 * it is shared read-only across the replay workers (see the
 * "Threading model" section of DESIGN.md). Threaded modules take
 * the interleaving-bounded path (see the schedules knobs above);
 * everything else runs the single-schedule crash plan.
 */
ExplorationResult exploreCrashes(ir::Module *m,
                                 const CrashExplorerConfig &cfg);

/**
 * FNV-1a over the exploration outcomes: a compact digest callers can
 * compare across `jobs` settings, engines, and (for the flush
 * optimizer's differential harness) across semantics-preserving
 * module transformations. Mixes cleanRunRecovered and every
 * outcome's (atStep, crashPoint, atRace, scheduleId, recovered,
 * unverified); does NOT mix durPointsInRun or stepsInRun, so two
 * modules that differ only in instruction count but reach the same
 * durability points with the same recovery behavior digest
 * identically.
 */
uint64_t recoveryDigest(const ExplorationResult &res);

} // namespace hippo::pmcheck

#endif // HIPPO_PMCHECK_CRASH_EXPLORER_HH
