/**
 * @file
 * The PMIR interpreter. Executes a Module against a PmPool, emitting
 * the PM-operation trace that bug finders consume and charging a
 * deterministic simulated-time cost model so the Redis-style
 * performance experiments (Fig. 4) measure the relative cost of fix
 * strategies rather than host noise.
 */

#ifndef HIPPO_VM_VM_HH
#define HIPPO_VM_VM_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ir/module.hh"
#include "pmem/pm_pool.hh"
#include "support/zero_array.hh"
#include "trace/trace.hh"

namespace hippo::support
{
class MetricsRegistry;
} // namespace hippo::support

namespace hippo::vm
{

class FastInterp;
struct BcProgram;

/** Base virtual address of the volatile heap/stack arena. */
constexpr uint64_t volatileBaseAddr = 0x10000000ULL;

/**
 * Simulated-time costs in nanoseconds. Defaults approximate published
 * Optane DC measurements: PM load latency 2-3x DRAM, CLWB cheap to
 * issue, fences expensive because they drain pending write-backs.
 */
struct CostModel
{
    double aluNs = 0.3;        ///< arithmetic / compare / branch
    double loadNs = 1.0;       ///< DRAM load
    double storeNs = 1.0;      ///< store into cache
    double pmLoadNs = 2.5;     ///< PM load (2-3x DRAM per paper §1)
    double flushNs = 2.0;      ///< CLWB/CLFLUSHOPT issue cost
    double clflushNs = 60.0;   ///< CLFLUSH: serializing write-back
    double fenceBaseNs = 15.0; ///< fence with nothing pending
    double fenceDrainNs = 30.0;   ///< fence with >=1 pending line
    double fencePerLineNs = 15.0; ///< extra per pending line beyond 1
    double callNs = 1.5;       ///< call/ret overhead
    double perByteCopyNs = 0.12; ///< memcpy/memset per byte
};

/**
 * How a Vm::run ended under the watchdog sandbox. Anything but Ok
 * means the run was cut short without producing a usable final state;
 * callers (the crash explorer's degradation ladder, hippoc) decide
 * whether to retry, degrade, or surface an error.
 */
enum class ExecOutcome : uint8_t
{
    Ok,             ///< ran to completion (or to an injected crash)
    Timeout,        ///< step or wall-clock budget exhausted
    BudgetExceeded, ///< volatile heap budget exhausted
    Trap,           ///< sandboxed error (OOB, div0, depth, bad entry)
};

const char *execOutcomeName(ExecOutcome o);

/**
 * A deterministic thread schedule for one run (DESIGN.md "Thread
 * model & interleaving-bounded exploration"). The scheduler is
 * cooperative round-robin: a switch happens when a thread blocks on a
 * join or finishes, plus a forced preemption before the visible op
 * (thread_spawn / thread_join / atomic_*) whose global index appears
 * in preemptAt. A plan is pure data, so the same plan replays the
 * same interleaving at any host parallelism — the schedule is a pure
 * function of the plan, never of wall clock.
 */
struct SchedulePlan
{
    uint64_t id = 0;                 ///< plan index within a bound
    std::vector<uint64_t> preemptAt; ///< sorted visible-op indices
};

/** VM configuration. */
struct VmConfig
{
    bool traceEnabled = false;  ///< record trace events
    /**
     * When set (and traceEnabled), events stream to this sink
     * instead of accumulating in the in-memory trace — e.g. an
     * pmcheck::OnlineDetector. Object interning still happens in the
     * Vm's trace (it stays small).
     */
    trace::EventSink *eventSink = nullptr;
    bool traceOutputs = true;   ///< include Output events in trace
    bool durPointAtExit = true; ///< synthesize a durpoint at exit
    int64_t crashAtDurPoint = -1; ///< stop at the Nth durpoint (0-based)
    /** Crash after executing this many instructions of the run
     *  (0 = disabled). Unlike crashAtDurPoint this can land in the
     *  middle of an update sequence, producing torn states for
     *  recovery testing. */
    uint64_t crashAtStep = 0;

    /**
     * Exploration probes (the crash explorer's snapshot engine).
     * Each fires at exactly the boundary where the corresponding
     * crash knob would raise its CrashSignal, so an observer sees
     * the pool in the same state a crashing replay would leave
     * behind: durPointProbe fires inside the Nth durpoint (after
     * the trace event, before the crash check) with the durpoint
     * index, the in-run step count, and the durpoint's label (used
     * by the static pre-filter to prioritize suspicious durability
     * points); stepProbe fires before executing the instruction
     * whose in-run step is a multiple of stepProbeStride
     * (0 disables). Null = disabled.
     */
    std::function<void(uint64_t dur_index, uint64_t in_run_step,
                       const std::string &label)>
        durPointProbe;
    uint64_t stepProbeStride = 0;
    std::function<void(uint64_t in_run_step)> stepProbe;

    /**
     * Deterministic thread schedule for this run. Null runs without
     * forced preemptions (switches still happen at joins and thread
     * exits). See SchedulePlan.
     */
    const SchedulePlan *schedule = nullptr;

    /** Volatile-stack slice per spawned thread, carved from the top
     *  of the arena (the main thread keeps the rest). */
    uint64_t threadStackBytes = 1ULL << 20;
    uint32_t maxThreads = 8; ///< spawned threads per run (cap)

    /**
     * Fires at each cross-thread durability race: a release-ordered
     * atomic PM store that publishes while the storing thread still
     * has earlier PM stores on unpersisted cache lines. The probe
     * observes the pool at exactly the pre-publication boundary, so
     * the interleaving explorer can fork a crash image in which the
     * publication became durable before its payload. race_index is
     * the 0-based race ordinal within the run.
     */
    std::function<void(uint64_t race_index, uint64_t in_run_step,
                       uint32_t tid, uint64_t addr)>
        racePointProbe;

    uint64_t maxSteps = 1ULL << 33; ///< runaway guard
    uint64_t volatileBytes = 16ULL << 20;
    CostModel costs;

    /**
     * A compiled program of the module, shared read-only between
     * every Vm that runs it (the crash explorer compiles once per
     * exploration). The Vm compiles for itself instead when this is
     * null or its superinstruction setting does not match the run's
     * (fusion is off when tracing).
     */
    std::shared_ptr<const BcProgram> program;

    /**
     * @name Watchdog sandbox (DESIGN.md "Fault model & graceful
     * degradation")
     *
     * Budgets are per run() call and active whenever nonzero: a run
     * that exhausts its step or wall-clock budget stops with
     * ExecOutcome::Timeout, one that exhausts its volatile-heap
     * budget stops with ExecOutcome::BudgetExceeded. The step budget
     * is deterministic; the wall-clock budget (checked every 4096
     * steps) is a hang-protection backstop only — determinism-
     * sensitive callers gate on steps and keep the time budget as a
     * last resort.
     *
     * `sandbox` additionally converts the interpreter's fatal error
     * traps (volatile OOB access, division by zero, call-depth and
     * arena exhaustion, missing entry function) into
     * ExecOutcome::Trap instead of killing the process, so one
     * hostile replay cannot take down a parallelFor worker.
     */
    /// @{
    uint64_t stepBudget = 0;   ///< per-run instruction cap (0 = off)
    uint64_t heapBudget = 0;   ///< volatile arena byte cap (0 = off)
    uint64_t timeBudgetMs = 0; ///< per-run wall-clock cap (0 = off)
    bool sandbox = false;      ///< structured traps instead of fatal
    /// @}
};

/** One (label, value) pair produced by a print instruction. */
struct ProgramOutput
{
    std::string label;
    uint64_t value = 0;

    bool operator==(const ProgramOutput &o) const = default;
};

/** Result of one Vm::run call. */
struct RunResult
{
    bool crashed = false;  ///< stopped at an injected crash point
    uint64_t returnValue = 0;
    uint64_t steps = 0;
    double simNanos = 0;

    /** Scheduler-visible ops executed (spawn/join/atomic_*); the
     *  interleaving explorer sizes its preemption space from this. */
    uint64_t visibleOps = 0;

    /** Watchdog verdict; anything but Ok voids returnValue. */
    ExecOutcome outcome = ExecOutcome::Ok;
    std::string diag; ///< human-readable reason when outcome != Ok

    /** The Timeout came from the wall-clock budget. Wall-clock
     *  verdicts are host-dependent; determinism-sensitive callers
     *  (the crash explorer) retry such runs under step budgets so
     *  comparable aggregates never depend on host speed. */
    bool wallClockTimeout = false;

    bool ok() const { return outcome == ExecOutcome::Ok; }
};

/**
 * Dynamic points-to side table (for the Trace-AA heuristic variant):
 * maps (function, value) keys to the set of trace-object ids that the
 * value was observed holding a pointer into.
 */
class DynPointsTo
{
  public:
    /** Key for an Argument (by index) or Instruction (by id). */
    static uint64_t argKey(uint32_t index)
    {
        return 0x8000000000000000ULL | index;
    }
    static uint64_t instrKey(uint32_t id) { return id; }

    void
    record(const std::string &func, uint64_t key, uint32_t object)
    {
        table_[func][key].insert(object);
    }

    /** Observed object set; empty set when never observed. */
    const std::set<uint32_t> &
    lookup(const std::string &func, uint64_t key) const
    {
        static const std::set<uint32_t> empty;
        auto fit = table_.find(func);
        if (fit == table_.end())
            return empty;
        auto vit = fit->second.find(key);
        return vit == fit->second.end() ? empty : vit->second;
    }

  private:
    std::map<std::string, std::map<uint64_t, std::set<uint32_t>>>
        table_;
};

/**
 * The interpreter. Each run compiles the module to bytecode once
 * (or takes VmConfig::program) and executes it with a FastInterp
 * (DESIGN.md "Bytecode fast path"). The PmPool is owned by the
 * caller so its persistent image can survive across runs
 * (crash-recovery tests construct one pool and run the program,
 * crash it, then run a recovery entry point against the same pool).
 *
 * Threading contract (DESIGN.md "Threading model"): a Vm never
 * mutates the Module it executes, so independent Vm instances over
 * distinct pools may run concurrently against one shared module.
 * The Vm itself (and its pool, trace, and points-to table) is
 * single-threaded — one Vm per worker.
 */
class Vm
{
  public:
    Vm(ir::Module *module, pmem::PmPool *pool, VmConfig cfg = {});
    ~Vm();

    /** Execute @p function (by name) with integer/pointer args. */
    RunResult run(const std::string &function,
                  std::vector<uint64_t> args = {});

    /** Compiled bytecode (compiling now if needed). */
    const BcProgram &bytecode();

    ir::Module *module() const { return module_; }
    pmem::PmPool &pool() { return *pool_; }

    trace::Trace &trace() { return trace_; }
    const trace::Trace &trace() const { return trace_; }

    const std::vector<ProgramOutput> &outputs() const
    {
        return outputs_;
    }

    const DynPointsTo &dynPointsTo() const { return dynPts_; }

    /** Simulated nanoseconds accumulated across all runs. */
    double simNanos() const { return simNanos_; }

    /** Instructions executed across all runs. */
    uint64_t steps() const { return steps_; }

    /** Executions per opcode across all runs (gem5-style stats). */
    const std::map<ir::Opcode, uint64_t> &opcodeCounts() const
    {
        return opcodeCounts_;
    }

    /** Flush instructions executed across all runs (all kinds). The
     *  flush-optimizer benches compare this probe between a naive-fix
     *  and an optimized-fix module on the same workload. */
    uint64_t flushesExecuted() const;

    /** Fence instructions executed across all runs (all kinds). */
    uint64_t fencesExecuted() const;

    /**
     * @name Deterministic dispatch-cost probes
     *
     * One handler dispatch per bytecode record (superinstructions
     * count once); the perf gate (bench_vm_dispatch) reads these
     * instead of wall clock.
     */
    /// @{
    uint64_t fastDispatches() const { return fastDispatches_; }
    uint64_t fastSuperExecuted() const { return fastSuper_; }
    /// @}

    /** Render the execution statistics as a small table. */
    std::string statsString() const;

    /**
     * Accumulate this Vm's execution census (runs, instructions,
     * simulated ns, per-opcode counts, flushes/fences by kind, NT
     * stores, injected crashes) and its pool's line-state counters
     * into @p reg under "<prefix>." / "<prefix>.pool.". Safe to
     * call concurrently from many workers: every count lands in an
     * order-independent counter, so the totals are deterministic
     * at any `jobs` setting.
     */
    void exportMetrics(support::MetricsRegistry &reg,
                       const std::string &prefix = "vm") const;

  private:
    struct ThreadCtx;
    struct SchedState;

    /** The fast interpreter shares all execution state. */
    friend class FastInterp;

    /// @name Thread/atomic bodies
    ///
    /// The interpreter funnels the five scheduler-visible opcodes
    /// through these, which count visible ops, place preemptions and
    /// detect races.
    /// @{
    using StackCapture =
        std::function<std::vector<trace::StackFrame>()>;

    uint64_t threadSpawnBody(const ir::Instruction &instr,
                             std::vector<uint64_t> args);
    uint64_t threadJoinBody(uint64_t tid);
    uint64_t atomicLoadBody(const ir::Instruction &instr,
                            uint64_t addr);
    void atomicStoreBody(const ir::Instruction &instr, uint64_t value,
                         uint64_t addr, const StackCapture &capture);
    uint64_t atomicRmwBody(const ir::Instruction &instr,
                           uint64_t addr, uint64_t operand,
                           const StackCapture &capture);
    /// @}

    /// @name Deterministic scheduler internals (defined in vm.cc)
    /// @{
    /** How a yielding thread parks. */
    enum class Park : uint8_t { Ready, Blocked, Finished };

    /** Thrown into parked threads during teardown to unwind them. */
    struct ThreadAbort {};

    void schedPoint();
    void schedYield(Park park);
    void saveCurrentCtx(ThreadCtx &t);
    void loadCtx(ThreadCtx &t);
    void threadEntry(uint32_t tid);
    void waitThreadFinished(uint32_t target);
    void joinAllSpawned();
    void teardownThreads();
    void checkPublishRace(uint64_t addr);
    void noteStoreLines(uint64_t addr, uint64_t size);
    void noteFlushLine(uint64_t addr);
    void noteFenceDrain();
    /// @}

    bool isPmAddr(uint64_t addr) const;

    /** Deliver a trace event to the sink or the in-memory trace. */
    void emit(trace::Event ev);

    void rawStore(uint64_t addr, const uint8_t *data, uint64_t size,
                  bool non_temporal);
    void rawLoad(uint64_t addr, uint8_t *out, uint64_t size) const;

    /** Trace-object id owning @p addr; ~0u when unknown. */
    uint32_t objectAt(uint64_t addr) const;

    /** Note that @p ptr_value in @p func pointed at @p addr's trace
     *  object (tracing only). */
    void recordDynPts(const std::string &func,
                      const ir::Value *ptr_value, uint64_t addr);

    /** Compile the module to bytecode if not already done. */
    void ensureProgram();

    /** Raised internally when an injected crash point is reached. */
    struct CrashSignal {};

    /** Raised internally when a watchdog budget trips or a sandboxed
     *  trap fires; caught (only) in run(). */
    struct WatchdogSignal
    {
        ExecOutcome outcome;
        std::string diag;
        bool wallClock = false; ///< wall-clock (not step) timeout
    };

    /** Throw a sandboxed Trap, or hippo_fatal without the sandbox. */
    [[noreturn]] void trapOrFatal(const std::string &diag) const;

    /** Budget checks for the hot loop; @p in_run_step is 1-based. */
    void checkWatchdog(uint64_t in_run_step);

    ir::Module *module_;
    pmem::PmPool *pool_;
    VmConfig cfg_;

    /** The volatile arena; pages are zero-filled on first touch, so
     *  a Vm costs O(pages used), not O(volatileBytes), to build. */
    support::ZeroArray<uint8_t> volatileMem_;
    uint64_t volatileSp_ = 0; ///< bump allocator offset
    /** Current thread's arena slice [base, limit). The main thread
     *  owns [0, limit) with limit lowered as spawns carve slices
     *  from the top; spawned threads get fixed slices. */
    uint64_t volatileSpBase_ = 0;
    uint64_t volatileLimit_ = 0;

    /** Live allocation ranges (LIFO, for addr -> object lookup). */
    struct LiveAlloc
    {
        uint64_t start;
        uint64_t end;
        uint32_t object;
    };
    std::vector<LiveAlloc> liveAllocs_;

    /** Mapped PM regions' object ids by region base. */
    std::map<uint64_t, std::pair<uint64_t, uint32_t>> pmObjects_;

    trace::Trace trace_;
    std::vector<ProgramOutput> outputs_;
    DynPointsTo dynPts_;

    double simNanos_ = 0;
    uint64_t steps_ = 0;
    uint64_t runs_ = 0;
    uint64_t crashesInjected_ = 0;
    uint64_t watchdogTimeouts_ = 0;
    uint64_t watchdogBudgetExceeded_ = 0;
    uint64_t watchdogTraps_ = 0;
    std::chrono::steady_clock::time_point runStartTime_{};
    uint64_t ntStores_ = 0;
    uint64_t runStartSteps_ = 0;
    uint64_t sinkSeq_ = 0; ///< event numbering in streaming mode
    std::map<ir::Opcode, uint64_t> opcodeCounts_;
    std::map<ir::FlushKind, uint64_t> flushCounts_;
    std::map<ir::FenceKind, uint64_t> fenceCounts_;
    int64_t durPointsSeen_ = 0;

    /** Bytecode: VmConfig::program, or compiled lazily by this Vm. */
    std::shared_ptr<const BcProgram> program_;

    /// @name Interpreter census (vm.fast.* counters)
    /// @{
    uint64_t fastRuns_ = 0;
    uint64_t fastSteps_ = 0;
    uint64_t fastDispatches_ = 0;
    uint64_t fastSuper_ = 0;
    uint64_t fastCompiles_ = 0;
    /// @}

    /// @name Scheduler state (vm.sched.* counters)
    /// @{
    std::unique_ptr<SchedState> sched_; ///< null until first spawn
    uint32_t curTid_ = 0;     ///< running VM thread (0 = main)
    bool lineTrackingEnabled_ = false; ///< module is threaded
    /** Current thread's PM lines with a store not yet flushed /
     *  flushed but not yet fenced (swapped at context switches). */
    std::set<uint64_t> curDirtyLines_;
    std::set<uint64_t> curFlushedLines_;
    uint64_t runVisibleOps_ = 0; ///< visible ops this run
    size_t planCursor_ = 0;      ///< next preemptAt entry this run
    uint64_t raceSeq_ = 0;       ///< race ordinal this run
    uint64_t schedSpawns_ = 0;
    uint64_t schedJoins_ = 0;
    uint64_t schedSwitches_ = 0;
    uint64_t schedPreemptions_ = 0;
    uint64_t schedVisibleOps_ = 0;
    uint64_t schedRaces_ = 0;
    uint64_t schedDeadlocks_ = 0;
    /// @}
};

} // namespace hippo::vm

#endif // HIPPO_VM_VM_HH
