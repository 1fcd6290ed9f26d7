/**
 * @file
 * Global flush/fence optimizer — the inverse transformation of the
 * fixer. Hippocrates (§7) restricts itself to removing redundant
 * flushes "in the same basic block"; Bentō-style dominance reasoning
 * shows the global version is safe too, provided every removal is
 * justified against the machine model and every optimized module is
 * mechanically re-verified (the "do no harm" differential harness in
 * optimizeAndVerify).
 *
 * Four transformations, applied in a deterministic order (see
 * DESIGN.md "Flush/fence optimizer" for the per-pass legality
 * arguments against the PmPool x86 persistency model):
 *
 *  1. same-line dedup (pass B): remove an earlier CLWB/CLFLUSHOPT
 *     flush when a provably-same-cache-line flush is reached on
 *     every forward path before any fence, durability point, call,
 *     other flush, or non-temporal store;
 *  2. dominated-flush elision (pass A): remove a flush when the line
 *     it flushes is provably clean — a same-line flush covers every
 *     backward path with no intervening may-write (a clean-line
 *     flush is a complete no-op in PmPool, so this removal is exact
 *     under every crash point, engine, and fault plan);
 *  3. partial-redundancy hoisting (pass C): replace sibling flushes
 *     of the same pointer on divergent paths with one flush at the
 *     end of their nearest common dominator, when every window from
 *     the hoist point to a sibling is free of pool-visible
 *     operations and every path from the hoist point reaches a
 *     sibling;
 *  4. fence coalescing: remove a fence whose write-back queue is
 *     provably empty (a dominating fence with no enqueuing op in
 *     between — exact, a no-op fence), then remove a fence that is
 *     re-fenced on every forward path before any durability point,
 *     call, or return (queue drains later, same drain order);
 *  5. sink-and-merge (pass D): a same-base chain of paired
 *     (store offset o_i; flush offset o_i) with strictly increasing
 *     offsets and no observer in between is rewritten so all the
 *     flushes sit after the last store, and interior flushes whose
 *     neighbors are less than a cache line apart are dropped — the
 *     line of an interior offset must coincide with the line of one
 *     of its kept neighbors, for every base alignment;
 *  6. loop-range promotion (pass E): the canonical per-word loop
 *     flush the fixer emits (flush of gep(base, iv) in a two-block
 *     while loop guarded by iv <u len) is replaced by one
 *     __hippo_flush_range(base, len) call after the loop, turning
 *     one flush per 8-byte word into one per 64-byte line. Applied
 *     only when the module already carries the fixer's helper.
 *
 * Must-alias line facts come from folding gep chains to
 * (base value, constant offset) — PmPool region bases are 64-byte
 * aligned, so PmMap-based offsets bucket into lines exactly — with
 * the Andersen points-to results (analysis/points_to.hh) as the
 * conservative may-alias fallback.
 */

#ifndef HIPPO_CORE_FLUSH_OPTIMIZER_HH
#define HIPPO_CORE_FLUSH_OPTIMIZER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pmem/pm_pool.hh"
#include "vm/vm.hh"

namespace hippo::ir
{
class Function;
class Module;
} // namespace hippo::ir

namespace hippo::support
{
class MetricsRegistry;
} // namespace hippo::support

namespace hippo::core
{

/** Per-pass enable switches (all on by default). */
struct FlushOptConfig
{
    bool dedupSameLine = true;  ///< pass B: forward same-line dedup
    bool elideDominated = true; ///< pass A: clean-line elision
    bool hoistPartial = true;   ///< pass C: PRE hoist to dominator
    bool coalesceFences = true; ///< fence coalescing (both directions)
    bool sinkAndMerge = true;   ///< pass D: chain sink + interior merge
    bool loopRange = true;      ///< pass E: loop flush -> range call
};

/** One applied transformation, in application order. */
struct FlushOptRecord
{
    enum class Kind : uint8_t
    {
        Dedup,        ///< pass B removed a flush
        Elide,        ///< pass A removed a flush
        Hoist,        ///< pass C inserted one flush, removed siblings
        FenceForward, ///< removed a provably-no-op fence
        FenceBackward,///< removed a fence re-fenced downstream
        Sink,         ///< pass D sank a chain, dropped interior flushes
        LoopRange     ///< pass E promoted a loop flush to a range call
    };

    Kind kind;
    std::string function;
    uint32_t instrId = 0; ///< removed flush/fence (Hoist: inserted)
    uint32_t coverId = 0; ///< covering flush/fence (Hoist: unused)
    std::string block;    ///< Hoist: destination block name
    std::vector<uint32_t> siblingIds; ///< Hoist: removed siblings

    std::string str() const;
};

/** Result counters + records of one optimizeFlushes run. */
struct FlushOptStats
{
    size_t flushesBefore = 0, flushesAfter = 0;
    size_t fencesBefore = 0, fencesAfter = 0;
    size_t flushesDeduped = 0;  ///< pass B removals
    size_t flushesElided = 0;   ///< pass A removals
    size_t flushesHoisted = 0;  ///< pass C inserted flushes
    size_t hoistSitesRemoved = 0; ///< pass C removed siblings
    size_t fencesForward = 0;   ///< no-op fence removals
    size_t fencesBackward = 0;  ///< re-fenced fence removals
    size_t flushesSunk = 0;     ///< pass D chain members re-seated
    size_t flushesMerged = 0;   ///< pass D interior flushes dropped
    size_t loopRanges = 0;      ///< pass E loop flush promotions

    std::vector<FlushOptRecord> records; ///< application order

    size_t flushesRemoved() const
    {
        return flushesAfter < flushesBefore
                   ? flushesBefore - flushesAfter
                   : 0;
    }
    size_t fencesRemoved() const
    {
        return fencesAfter < fencesBefore ? fencesBefore - fencesAfter
                                          : 0;
    }

    /** One-line human summary. */
    std::string str() const;

    /**
     * Line-oriented report (OPT-SUMMARY + one OPT line per applied
     * transformation, application order). Deterministic: the same
     * module and config produce the same bytes on every run — the
     * passes iterate functions, blocks, and instructions in module
     * order only.
     */
    std::string writeText() const;

    /** Accumulate counters into @p reg under "<prefix>." (see
     *  docs/FORMATS.md §5). */
    void exportMetrics(support::MetricsRegistry &reg,
                       const std::string &prefix = "fixer.opt") const;

    void merge(const FlushOptStats &o);
};

/**
 * Run the optimizer over @p m in place. Purely analysis-guided — no
 * execution; use optimizeAndVerify for the checked pipeline stage.
 */
FlushOptStats optimizeFlushes(ir::Module *m,
                              const FlushOptConfig &cfg = {});

/** What optimizeAndVerify must hold equal across the optimization. */
struct FlushOptVerifyConfig
{
    FlushOptConfig opt;

    std::string entry = "main";
    std::vector<uint64_t> entryArgs;
    /** Recovery entry for crash exploration; empty = the entry. */
    std::string recovery;
    std::vector<uint64_t> recoveryArgs;

    unsigned jobs = 1; ///< exploration workers

    /** When tornChance > 0, a second exploration leg runs under this
     *  adversarial fault plan and its digest must match too. */
    pmem::FaultPlan faults;

    /** Watchdog budgets forwarded to every execution (see
     *  vm::VmConfig); 0 = unlimited. */
    uint64_t stepBudget = 0;
    uint64_t heapBudget = 0;
    uint64_t timeBudgetMs = 0;

    bool checkDetector = true; ///< pmcheck must find no new bugs
    bool checkStatic = true;   ///< static checker: no new candidates
};

/** Result of the optimize-then-reverify pipeline stage. */
struct FlushOptOutcome
{
    FlushOptStats stats;
    bool changed = false;  ///< the optimizer removed/moved anything
    bool verified = false; ///< differential checks all passed
    bool reverted = false; ///< verification failed; module restored
    std::string failReason; ///< empty unless reverted

    uint64_t digestBefore = 0; ///< recoveryDigest, fault-free leg
    uint64_t digestAfter = 0;
    uint64_t chaosDigestBefore = 0; ///< fault-plan leg (when enabled)
    uint64_t chaosDigestAfter = 0;

    void exportMetrics(support::MetricsRegistry &reg,
                       const std::string &prefix = "fixer.opt") const;
};

/**
 * The checked optimizer stage: snapshot @p m (print/parse round
 * trip), capture its behavior — pmcheck report, static-checker
 * candidates, and crash-exploration recovery digests — optimize,
 * re-capture, and compare. Any new pmcheck bug, new static
 * candidate, changed recovery digest, or execution failure reverts
 * @p m to the snapshot and reports why; the optimized module is kept
 * only when it is observably equivalent ("do no harm",
 * mechanically).
 */
FlushOptOutcome optimizeAndVerify(std::unique_ptr<ir::Module> &m,
                                  const FlushOptVerifyConfig &cfg);

} // namespace hippo::core

#endif // HIPPO_CORE_FLUSH_OPTIMIZER_HH
