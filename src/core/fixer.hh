/**
 * @file
 * Hippocrates: the automated PM durability-bug fixer (paper §4).
 *
 * Pipeline (Fig. 2):
 *   Step 1 — ingest the bug finder's trace + bug report;
 *   Step 2 — locate each buggy store in the PMIR module;
 *   Step 3 — compute fixes in three phases:
 *              (1) simplest intraprocedural flush/fence fixes,
 *              (2) fix reduction (merge redundant flushes/fences),
 *              (3) hoisting: convert intraprocedural fixes into
 *                  interprocedural persistent subprogram
 *                  transformations where the alias-score heuristic
 *                  says the fix would otherwise hit volatile data;
 *   Step 4 — apply the fixes and re-verify the module.
 *
 * Every transformation only *adds* flushes, fences, and function
 * clones, the operations proven safe by Theorems 1–4 ("do no harm").
 */

#ifndef HIPPO_CORE_FIXER_HH
#define HIPPO_CORE_FIXER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/alias_scorer.hh"
#include "analysis/durability_checker.hh"
#include "ir/module.hh"
#include "pmcheck/crash_explorer.hh"
#include "pmcheck/detector.hh"
#include "trace/trace.hh"
#include "vm/vm.hh"

namespace hippo::core
{

/** Name of the synthesized ranged-flush helper (pmem_flush analog). */
constexpr const char *flushRangeHelperName = "__hippo_flush_range";

/** Suffix appended to persistent subprogram clones. */
constexpr const char *persistentCloneSuffix = "_PM";

/** Fixer configuration. */
struct FixerConfig
{
    /** Phase 3 on/off: off yields intraprocedural-only fixes (the
     *  RedisH-intra configuration of §6.3). */
    bool enableHoisting = true;

    /** Phase 2 on/off (ablation only; always safe to disable). */
    bool enableReduction = true;

    /** Which alias information drives the heuristic (§6.1). */
    analysis::AaMode aaMode = analysis::AaMode::FullAA;

    ir::FlushKind flushKind = ir::FlushKind::Clwb;
    ir::FenceKind fenceKind = ir::FenceKind::Sfence;

    /**
     * Suite-level fan-out: how many independent bug programs the
     * batch drivers (apps::evaluateCases, the effectiveness benches,
     * `hippoc --jobs`) detect/fix/re-verify concurrently. The Fixer
     * itself stays single-threaded per module — it mutates it.
     * 0 = one worker per hardware thread.
     */
    unsigned jobs = 0;

    /**
     * Static pre-filter (not owned; may be null): when set,
     * verifyFixed() aims crash exploration at the durability points
     * the static checker flagged, by seeding
     * CrashExplorerConfig::priorityDurLabels from the report's
     * candidate labels when the caller left that list empty.
     */
    const analysis::StaticReport *staticReport = nullptr;

    /**
     * Adversarial verification (hippoc --chaos): a torn-store fault
     * plan and watchdog budgets forwarded into verifyFixed()'s crash
     * exploration whenever the caller's explorer config leaves them
     * unset. Crash points whose recovery the explorer's degradation
     * ladder gives up on surface as `unverified` outcomes and count
     * under "fixer.degraded.*".
     */
    pmem::FaultPlan faults;
    uint64_t stepBudget = 0;   ///< recovery instruction cap (0 = off)
    uint64_t heapBudget = 0;   ///< recovery volatile-heap cap (0 = off)
    uint64_t timeBudgetMs = 0; ///< recovery wall-clock cap (0 = off)

    bool verbose = false;
};

/** How a fix was realized. */
enum class FixKind : uint8_t
{
    IntraFlush,
    IntraFence,
    IntraFlushFence,
    Interprocedural,
    /** Cross-thread repair: flush of the published payload plus a
     *  fence inserted immediately *before* the release-ordered
     *  atomic publication (add-only, so still do-no-harm). */
    CrossPublish,
};

const char *fixKindName(FixKind k);

/** One applied fix (after reduction and hoisting). */
struct AppliedFix
{
    FixKind kind = FixKind::IntraFlush;
    std::string function;     ///< function holding the anchor
    uint32_t anchorInstrId = 0;
    int hoistLevels = 0;      ///< 0 = intra; N = call-site N frames up
    std::string clonedSubprogram; ///< top clone name (interprocedural)
    std::vector<size_t> bugIndexes; ///< report bugs covered
    uint32_t flushesInserted = 0;
    uint32_t fencesInserted = 0;

    std::string str() const;
};

/** Aggregate result of a Fixer::fix run. */
struct FixSummary
{
    std::vector<AppliedFix> fixes;
    size_t bugsFixed = 0;
    size_t fixesPlanned = 0;        ///< after phase 1
    size_t fixesAfterReduction = 0; ///< after phase 2
    uint32_t flushesInserted = 0;
    uint32_t fencesInserted = 0;
    uint32_t functionsCloned = 0;
    size_t irInstrsBefore = 0;
    size_t irInstrsAfter = 0;
    double elapsedSeconds = 0;
    uint64_t peakRssBytes = 0;
    std::vector<std::string> verifierProblems;

    /**
     * Accumulate the fix census (bugs, fixes planned / after
     * reduction / applied, intra vs. interprocedural split, inserted
     * flushes and fences, clones, IR growth) into @p reg under
     * "<prefix>.", plus the wall-clock run timer and peak-RSS gauge.
     */
    void exportMetrics(support::MetricsRegistry &reg,
                       const std::string &prefix = "fixer") const;

    size_t
    interproceduralCount() const
    {
        size_t n = 0;
        for (const auto &f : fixes)
            n += f.kind == FixKind::Interprocedural;
        return n;
    }

    size_t
    intraproceduralCount() const
    {
        return fixes.size() - interproceduralCount();
    }

    /** Fixes hoisted exactly @p levels call frames up. */
    size_t hoistedAtLevel(int levels) const;

    std::string str() const;
};

/**
 * The Hippocrates fixer. Mutates the module it is given; run the
 * bug finder again on the result to confirm all bugs are gone (§6.1).
 */
class Fixer
{
  public:
    Fixer(ir::Module *module, FixerConfig cfg = {});

    /**
     * Fix every bug in @p report.
     *
     * @param report Bug report from pmcheck::analyze.
     * @param trace The trace the report was produced from.
     * @param dyn Dynamic points-to table (required for Trace-AA).
     */
    FixSummary fix(const pmcheck::Report &report,
                   const trace::Trace &trace,
                   const vm::DynPointsTo *dyn = nullptr);

    /**
     * Step 4's "re-verify" half (paper §6.1), as crash exploration:
     * run the crash explorer over the (repaired) module — one master
     * execution, recovery per crash point via the snapshot engine.
     * A zero @p vc.jobs inherits the fixer's jobs setting. Counters
     * land under "fixer.verify.*" on top of the explorer's own.
     */
    pmcheck::ExplorationResult
    verifyFixed(pmcheck::CrashExplorerConfig vc) const;

  private:
    struct PlannedFix;
    class Impl;

    ir::Module *module_;
    FixerConfig cfg_;
};

} // namespace hippo::core

#endif // HIPPO_CORE_FIXER_HH
