#include "vm/vm.hh"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>

#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/strings.hh"
#include "vm/bytecode.hh"
#include "vm/fast_interp.hh"

namespace hippo::vm
{

const char *
execOutcomeName(ExecOutcome o)
{
    switch (o) {
      case ExecOutcome::Ok: return "ok";
      case ExecOutcome::Timeout: return "timeout";
      case ExecOutcome::BudgetExceeded: return "budget-exceeded";
      case ExecOutcome::Trap: return "trap";
    }
    return "?";
}

/**
 * One VM thread. Execution is strictly serialized: exactly one VM
 * thread holds the scheduler token at any time, so every field here
 * (and all of the Vm) is only ever touched under that token or under
 * SchedState::mu. Each VM thread runs on its own host thread purely
 * so that its interpreter recursion has somewhere to park; the host
 * threads never run concurrently.
 */
struct Vm::ThreadCtx
{
    enum class State : uint8_t
    {
        Ready,    ///< runnable, waiting for the token
        Running,  ///< holds the token
        Blocked,  ///< waiting on joinedOn
        Finished, ///< returned (or unwound during teardown)
    };

    uint32_t tid = 0;
    ir::Function *func = nullptr; ///< spawn entry (null for main)
    std::vector<uint64_t> args;
    std::thread host;             ///< unset for main
    State state = State::Ready;
    uint32_t joinedOn = ~0u; ///< tid this thread blocks on
    uint64_t retVal = 0;

    /// @name Parked interpreter state
    /// Swapped with the Vm's current-thread fields at switches.
    /// @{
    uint64_t sp = 0;
    uint64_t spBase = 0;
    uint64_t spLimit = 0;
    std::vector<LiveAlloc> liveAllocs;
    std::set<uint64_t> dirtyLines;
    std::set<uint64_t> flushedLines;
    /// @}
};

/**
 * The token passer. `running` names the one thread allowed to
 * execute; everyone else waits on `cv`. A crash or watchdog signal
 * raised on a spawned thread is recorded here and re-thrown by the
 * main thread, which is the only one run() can catch from.
 */
struct Vm::SchedState
{
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::unique_ptr<ThreadCtx>> threads; ///< [0] = main
    uint32_t running = 0;
    bool aborting = false; ///< teardown: parked threads must unwind
    bool pendingCrash = false;
    bool pendingWatchdog = false;
    ExecOutcome pendingOutcome = ExecOutcome::Ok;
    std::string pendingDiag;
    bool pendingWallClock = false;
};

Vm::Vm(ir::Module *module, pmem::PmPool *pool, VmConfig cfg)
    : module_(module), pool_(pool), cfg_(std::move(cfg)),
      volatileMem_(cfg_.volatileBytes),
      volatileLimit_(cfg_.volatileBytes)
{
    if (cfg_.program &&
        cfg_.program->options.enableSuper == !cfg_.traceEnabled)
        program_ = cfg_.program;
}

Vm::~Vm()
{
    // Normally a no-op: run() tears the scheduler down on every exit
    // path. Kept as a backstop so a Vm abandoned mid-run cannot leak
    // parked host threads.
    teardownThreads();
}

void
Vm::ensureProgram()
{
    bool want_super = !cfg_.traceEnabled;
    if (program_ && program_->options.enableSuper == want_super)
        return;
    BcOptions opts;
    opts.enableSuper = want_super;
    program_ = std::make_shared<const BcProgram>(
        compileModule(*module_, opts));
    fastCompiles_++;
}

const BcProgram &
Vm::bytecode()
{
    ensureProgram();
    return *program_;
}

bool
Vm::isPmAddr(uint64_t addr) const
{
    return addr >= pmem::pmBaseAddr;
}

void
Vm::trapOrFatal(const std::string &diag) const
{
    if (cfg_.sandbox)
        throw WatchdogSignal{ExecOutcome::Trap, diag};
    hippo_fatal("%s", diag.c_str());
}

void
Vm::checkWatchdog(uint64_t in_run_step)
{
    if (cfg_.stepBudget && in_run_step > cfg_.stepBudget) {
        throw WatchdogSignal{
            ExecOutcome::Timeout,
            format("step budget exceeded (%llu instructions)",
                   (unsigned long long)cfg_.stepBudget)};
    }
    // The wall-clock backstop is checked only every 4096 steps: a
    // steady_clock read per instruction would dominate the
    // interpreter, and hang protection does not need the precision.
    if (cfg_.timeBudgetMs && (in_run_step & 4095) == 0) {
        auto elapsed = std::chrono::steady_clock::now() - runStartTime_;
        auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      elapsed)
                      .count();
        if ((uint64_t)ms > cfg_.timeBudgetMs) {
            throw WatchdogSignal{
                ExecOutcome::Timeout,
                format("wall-clock budget exceeded (%llu ms)",
                       (unsigned long long)cfg_.timeBudgetMs),
                true};
        }
    }
}

void
Vm::emit(trace::Event ev)
{
    ev.tid = curTid_;
    if (cfg_.eventSink) {
        ev.seq = sinkSeq_++;
        cfg_.eventSink->onEvent(ev);
        return;
    }
    trace_.append(std::move(ev));
}

void
Vm::rawStore(uint64_t addr, const uint8_t *data, uint64_t size,
             bool non_temporal)
{
    if (isPmAddr(addr)) {
        pool_->store(addr, data, size, non_temporal);
        noteStoreLines(addr, size);
        return;
    }
    uint64_t off = addr - volatileBaseAddr;
    if (addr < volatileBaseAddr || off + size > volatileMem_.size())
        trapOrFatal(format("volatile store out of bounds: 0x%llx",
                           (unsigned long long)addr));
    std::memcpy(&volatileMem_[off], data, size);
}

void
Vm::rawLoad(uint64_t addr, uint8_t *out, uint64_t size) const
{
    if (isPmAddr(addr)) {
        pool_->load(addr, out, size);
        return;
    }
    uint64_t off = addr - volatileBaseAddr;
    if (addr < volatileBaseAddr || off + size > volatileMem_.size())
        trapOrFatal(format("volatile load out of bounds: 0x%llx",
                           (unsigned long long)addr));
    std::memcpy(out, &volatileMem_[off], size);
}

uint32_t
Vm::objectAt(uint64_t addr) const
{
    if (isPmAddr(addr)) {
        auto it = pmObjects_.upper_bound(addr);
        if (it == pmObjects_.begin())
            return ~0u;
        --it;
        auto [size, obj] = it->second;
        return addr < it->first + size ? obj : ~0u;
    }
    for (auto it = liveAllocs_.rbegin(); it != liveAllocs_.rend();
         ++it) {
        if (addr >= it->start && addr < it->end)
            return it->object;
    }
    return ~0u;
}

void
Vm::recordDynPts(const std::string &func,
                 const ir::Value *ptr_value, uint64_t addr)
{
    if (!cfg_.traceEnabled)
        return;
    uint32_t obj = objectAt(addr);
    if (obj == ~0u)
        return;
    uint64_t key;
    switch (ptr_value->kind()) {
      case ir::ValueKind::Argument:
        key = DynPointsTo::argKey(
            static_cast<const ir::Argument *>(ptr_value)->index());
        break;
      case ir::ValueKind::Instruction:
        key = DynPointsTo::instrKey(
            static_cast<const ir::Instruction *>(ptr_value)->id());
        break;
      default:
        return;
    }
    dynPts_.record(func, key, obj);
}

/// @name Deterministic scheduler
///
/// Exactly one VM thread executes at any time; the rest park on the
/// SchedState condvar. Every schedule decision is a pure function of
/// the SchedulePlan and the (deterministic) visible-op stream, so a
/// plan replays byte-identically at any host parallelism — which is
/// also what makes the whole construction TSAN-clean: Vm state is
/// only touched by the token holder.
/// @{

void
Vm::noteStoreLines(uint64_t addr, uint64_t size)
{
    if (!lineTrackingEnabled_)
        return;
    uint64_t first = addr / pmem::cacheLineSize;
    uint64_t last = (addr + (size ? size - 1 : 0)) / pmem::cacheLineSize;
    for (uint64_t line = first; line <= last; line++) {
        curDirtyLines_.insert(line);
        curFlushedLines_.erase(line);
    }
}

void
Vm::noteFlushLine(uint64_t addr)
{
    if (!lineTrackingEnabled_)
        return;
    uint64_t line = addr / pmem::cacheLineSize;
    // The line moves from "dirty" to "flushed, awaiting a fence" in
    // whichever thread stored it; any thread may issue the flush.
    if (curDirtyLines_.erase(line)) {
        curFlushedLines_.insert(line);
        return;
    }
    if (!sched_)
        return;
    for (auto &t : sched_->threads) {
        if (t->dirtyLines.erase(line)) {
            t->flushedLines.insert(line);
            return;
        }
    }
}

void
Vm::noteFenceDrain()
{
    if (!lineTrackingEnabled_)
        return;
    // The pool's write-back queue drains globally, so a fence by any
    // thread makes every flushed line durable.
    curFlushedLines_.clear();
    if (sched_) {
        for (auto &t : sched_->threads)
            t->flushedLines.clear();
    }
}

void
Vm::checkPublishRace(uint64_t addr)
{
    if (!lineTrackingEnabled_)
        return;
    // A release-ordered publication races iff the publishing thread
    // still has an unpersisted earlier store on some OTHER line: a
    // crash may persist the publication (line eviction) before its
    // payload. The publication's own line is exempt — a line
    // persists atomically, payload included.
    uint64_t own = addr / pmem::cacheLineSize;
    bool pending = false;
    for (uint64_t line : curDirtyLines_) {
        if (line != own) {
            pending = true;
            break;
        }
    }
    if (!pending) {
        for (uint64_t line : curFlushedLines_) {
            if (line != own) {
                pending = true;
                break;
            }
        }
    }
    if (!pending)
        return;
    schedRaces_++;
    uint64_t index = raceSeq_++;
    if (cfg_.racePointProbe)
        cfg_.racePointProbe(index, steps_ - runStartSteps_, curTid_,
                            addr);
}

void
Vm::saveCurrentCtx(ThreadCtx &t)
{
    t.sp = volatileSp_;
    t.spBase = volatileSpBase_;
    t.spLimit = volatileLimit_;
    t.liveAllocs = std::move(liveAllocs_);
    liveAllocs_.clear();
    t.dirtyLines = std::move(curDirtyLines_);
    curDirtyLines_.clear();
    t.flushedLines = std::move(curFlushedLines_);
    curFlushedLines_.clear();
}

void
Vm::loadCtx(ThreadCtx &t)
{
    volatileSp_ = t.sp;
    volatileSpBase_ = t.spBase;
    volatileLimit_ = t.spLimit;
    liveAllocs_ = std::move(t.liveAllocs);
    t.liveAllocs.clear();
    curDirtyLines_ = std::move(t.dirtyLines);
    t.dirtyLines.clear();
    curFlushedLines_ = std::move(t.flushedLines);
    t.flushedLines.clear();
    curTid_ = t.tid;
}

void
Vm::schedPoint()
{
    uint64_t index = runVisibleOps_++;
    schedVisibleOps_++;
    const SchedulePlan *plan = cfg_.schedule;
    if (!plan)
        return;
    const auto &at = plan->preemptAt;
    if (planCursor_ < at.size() && at[planCursor_] == index) {
        planCursor_++;
        schedPreemptions_++;
        if (sched_ && sched_->threads.size() > 1)
            schedYield(Park::Ready);
    }
}

/**
 * Hand the token to the next Ready thread (round-robin after the
 * yielder) and park as @p park. Called by the token holder, without
 * SchedState::mu held. A Finished yielder does not wait; a Blocked
 * yielder with no runnable successor raises the deadlock trap.
 */
void
Vm::schedYield(Park park)
{
    SchedState &S = *sched_;
    std::unique_lock<std::mutex> lk(S.mu);
    ThreadCtx &me = *S.threads[S.running];
    me.state = park == Park::Ready      ? ThreadCtx::State::Ready
               : park == Park::Blocked  ? ThreadCtx::State::Blocked
                                        : ThreadCtx::State::Finished;

    if (park == Park::Finished) {
        for (auto &t : S.threads) {
            if (t->state == ThreadCtx::State::Blocked &&
                t->joinedOn == me.tid) {
                t->state = ThreadCtx::State::Ready;
                t->joinedOn = ~0u;
            }
        }
    }

    uint32_t n = (uint32_t)S.threads.size();
    uint32_t next = ~0u;
    for (uint32_t i = 1; i <= n; i++) {
        uint32_t c = (me.tid + i) % n;
        if (S.threads[c]->state == ThreadCtx::State::Ready) {
            next = c;
            break;
        }
    }

    if (next == me.tid) {
        // Preempted with nobody else runnable: keep running.
        me.state = ThreadCtx::State::Running;
        return;
    }

    if (next == ~0u) {
        // Nobody is runnable. A blocked yielder means a join cycle;
        // a finishing one means everyone left is blocked on a cycle
        // that excludes it. Either way: deterministic deadlock.
        schedDeadlocks_++;
        if (park == Park::Finished) {
            // Surface the trap through the main thread, the only one
            // run() can catch from.
            S.pendingWatchdog = true;
            S.pendingOutcome = ExecOutcome::Trap;
            S.pendingDiag = "thread join deadlock";
            S.running = 0;
            S.cv.notify_all();
            return;
        }
        me.state = ThreadCtx::State::Running;
        lk.unlock();
        trapOrFatal("thread join deadlock");
    }

    saveCurrentCtx(me);
    S.running = next;
    schedSwitches_++;
    S.cv.notify_all();
    if (park == Park::Finished)
        return; // host thread exits via threadEntry

    S.cv.wait(lk, [&] {
        return S.running == me.tid ||
               (me.tid == 0 &&
                (S.pendingCrash || S.pendingWatchdog));
    });

    if (me.tid == 0 && (S.pendingCrash || S.pendingWatchdog)) {
        // A spawned thread crashed or tripped the watchdog and has
        // already unwound; re-raise on main so run() catches it.
        loadCtx(me);
        me.state = ThreadCtx::State::Running;
        S.running = 0;
        if (S.pendingCrash) {
            S.pendingCrash = false;
            lk.unlock();
            throw CrashSignal{};
        }
        S.pendingWatchdog = false;
        WatchdogSignal w{S.pendingOutcome, std::move(S.pendingDiag),
                         S.pendingWallClock};
        lk.unlock();
        throw w;
    }

    if (S.aborting && me.tid != 0)
        throw ThreadAbort{};

    loadCtx(me);
    me.state = ThreadCtx::State::Running;
}

/** Host-thread body for a spawned VM thread. */
void
Vm::threadEntry(uint32_t tid)
{
    SchedState &S = *sched_;
    ThreadCtx &me = *S.threads[tid];
    {
        std::unique_lock<std::mutex> lk(S.mu);
        S.cv.wait(lk, [&] { return S.running == tid; });
        if (S.aborting) {
            me.state = ThreadCtx::State::Finished;
            S.cv.notify_all();
            return;
        }
        loadCtx(me);
        me.state = ThreadCtx::State::Running;
    }
    try {
        // Per-thread interpreter: its register arena is private, and
        // its counter merge in ~FastInterp happens while this thread
        // still holds the token (or, on teardown, while the token
        // passes strictly sequentially).
        {
            FastInterp fi(*this, *program_);
            me.retVal = fi.call(me.func, me.args);
        }
        schedYield(Park::Finished);
    } catch (ThreadAbort &) {
        std::lock_guard<std::mutex> lk(S.mu);
        me.state = ThreadCtx::State::Finished;
        S.cv.notify_all();
    } catch (CrashSignal &) {
        std::lock_guard<std::mutex> lk(S.mu);
        me.state = ThreadCtx::State::Finished;
        S.pendingCrash = true;
        S.running = 0;
        S.cv.notify_all();
    } catch (WatchdogSignal &w) {
        std::lock_guard<std::mutex> lk(S.mu);
        me.state = ThreadCtx::State::Finished;
        S.pendingWatchdog = true;
        S.pendingOutcome = w.outcome;
        S.pendingDiag = std::move(w.diag);
        S.pendingWallClock = w.wallClock;
        S.running = 0;
        S.cv.notify_all();
    }
}

/** Block the running thread until @p target finishes. */
void
Vm::waitThreadFinished(uint32_t target)
{
    SchedState &S = *sched_;
    {
        std::lock_guard<std::mutex> lk(S.mu);
        if (S.threads[target]->state == ThreadCtx::State::Finished)
            return;
        S.threads[S.running]->joinedOn = target;
    }
    schedYield(Park::Blocked);
}

/** Implicit join-all at the end of a run: a run only completes when
 *  every spawned thread has. */
void
Vm::joinAllSpawned()
{
    if (!sched_)
        return;
    SchedState &S = *sched_;
    while (true) {
        uint32_t target = ~0u;
        {
            std::lock_guard<std::mutex> lk(S.mu);
            for (auto &t : S.threads) {
                if (t->tid != 0 &&
                    t->state != ThreadCtx::State::Finished) {
                    target = t->tid;
                    break;
                }
            }
        }
        if (target == ~0u)
            return;
        waitThreadFinished(target);
    }
}

/**
 * Unwind and join every host thread. Token passing stays strictly
 * sequential even here, so parked interpreters (and their FastInterp
 * counter merges) never unwind concurrently.
 */
void
Vm::teardownThreads()
{
    if (!sched_)
        return;
    SchedState &S = *sched_;
    {
        std::unique_lock<std::mutex> lk(S.mu);
        S.aborting = true;
        for (auto &t : S.threads) {
            if (t->tid == 0)
                continue;
            if (t->state != ThreadCtx::State::Finished) {
                S.running = t->tid;
                S.cv.notify_all();
                ThreadCtx *tc = t.get();
                S.cv.wait(lk, [&] {
                    return tc->state == ThreadCtx::State::Finished;
                });
            }
        }
        S.running = 0;
    }
    for (auto &t : S.threads) {
        if (t->host.joinable())
            t->host.join();
    }
    sched_.reset();
    curTid_ = 0;
}

uint64_t
Vm::threadSpawnBody(const ir::Instruction &instr,
                    std::vector<uint64_t> args)
{
    schedPoint();
    schedSpawns_++;
    if (!sched_) {
        sched_ = std::make_unique<SchedState>();
        auto main_ctx = std::make_unique<ThreadCtx>();
        main_ctx->tid = 0;
        main_ctx->state = ThreadCtx::State::Running;
        sched_->threads.push_back(std::move(main_ctx));
    }
    SchedState &S = *sched_;
    uint32_t tid = (uint32_t)S.threads.size();
    if (tid > cfg_.maxThreads)
        trapOrFatal(format("thread limit exceeded (%u threads)",
                           cfg_.maxThreads));

    // Carve the new thread's stack slice from the top of the arena;
    // the main thread's slice shrinks to make room.
    uint64_t sb = cfg_.threadStackBytes;
    uint64_t top = volatileMem_.size();
    if ((uint64_t)tid * sb > top)
        trapOrFatal("volatile arena exhausted by thread stacks");
    uint64_t new_main_limit = top - (uint64_t)tid * sb;
    uint64_t main_sp =
        S.running == 0 ? volatileSp_ : S.threads[0]->sp;
    if (main_sp > new_main_limit)
        trapOrFatal("volatile arena exhausted by thread stacks");
    if (S.running == 0)
        volatileLimit_ = new_main_limit;
    else
        S.threads[0]->spLimit = new_main_limit;

    auto ctx = std::make_unique<ThreadCtx>();
    ctx->tid = tid;
    ctx->func = instr.callee();
    ctx->args = std::move(args);
    ctx->state = ThreadCtx::State::Ready;
    // Offsets into the arena, same convention as volatileSp_.
    ctx->sp = new_main_limit;
    ctx->spBase = new_main_limit;
    ctx->spLimit = top - (uint64_t)(tid - 1) * sb;
    ThreadCtx *raw = ctx.get();
    {
        std::lock_guard<std::mutex> lk(S.mu);
        S.threads.push_back(std::move(ctx));
    }
    raw->host = std::thread(&Vm::threadEntry, this, tid);
    return tid;
}

uint64_t
Vm::threadJoinBody(uint64_t tid)
{
    schedPoint();
    schedJoins_++;
    uint32_t self = sched_ ? sched_->running : 0;
    if (!sched_ || tid == 0 || tid >= sched_->threads.size() ||
        tid == self) {
        trapOrFatal(format("thread_join of invalid thread id %llu",
                           (unsigned long long)tid));
    }
    waitThreadFinished((uint32_t)tid);
    return sched_->threads[tid]->retVal;
}

namespace
{

uint64_t
rmwCompute(ir::BinOp op, uint64_t old_value, uint64_t operand)
{
    switch (op) {
      case ir::BinOp::Add: return old_value + operand;
      case ir::BinOp::Sub: return old_value - operand;
      case ir::BinOp::And: return old_value & operand;
      case ir::BinOp::Or: return old_value | operand;
      case ir::BinOp::Xor: return old_value ^ operand;
      default: break;
    }
    hippo_panic("atomic_rmw with non-rmw operation");
}

} // namespace

uint64_t
Vm::atomicLoadBody(const ir::Instruction &instr, uint64_t addr)
{
    schedPoint();
    uint64_t v = 0;
    rawLoad(addr, reinterpret_cast<uint8_t *>(&v),
            instr.accessSize());
    simNanos_ +=
        isPmAddr(addr) ? cfg_.costs.pmLoadNs : cfg_.costs.loadNs;
    return v;
}

void
Vm::atomicStoreBody(const ir::Instruction &instr, uint64_t value,
                    uint64_t addr, const StackCapture &capture)
{
    schedPoint();
    uint64_t size = instr.accessSize();
    bool pm = isPmAddr(addr);
    if (pm && ir::isReleaseOrder(instr.memOrder()))
        checkPublishRace(addr);
    uint8_t bytes[8];
    std::memcpy(bytes, &value, 8);
    rawStore(addr, bytes, size, false);
    simNanos_ += cfg_.costs.storeNs;
    if (cfg_.traceEnabled && pm) {
        trace::Event ev;
        ev.kind = trace::EventKind::Store;
        ev.addr = addr;
        ev.size = size;
        ev.isPm = true;
        ev.atomic = true;
        ev.sub = (uint8_t)instr.memOrder();
        ev.objectId = objectAt(addr);
        ev.stack = capture();
        emit(std::move(ev));
    }
}

uint64_t
Vm::atomicRmwBody(const ir::Instruction &instr, uint64_t addr,
                  uint64_t operand, const StackCapture &capture)
{
    schedPoint();
    uint64_t size = instr.accessSize();
    bool pm = isPmAddr(addr);
    if (pm && ir::isReleaseOrder(instr.memOrder()))
        checkPublishRace(addr);
    uint64_t old_value = 0;
    rawLoad(addr, reinterpret_cast<uint8_t *>(&old_value), size);
    uint64_t new_value = rmwCompute(instr.binOp(), old_value, operand);
    uint8_t bytes[8];
    std::memcpy(bytes, &new_value, 8);
    rawStore(addr, bytes, size, false);
    simNanos_ += (pm ? cfg_.costs.pmLoadNs : cfg_.costs.loadNs) +
                 cfg_.costs.storeNs;
    if (cfg_.traceEnabled && pm) {
        trace::Event ev;
        ev.kind = trace::EventKind::Store;
        ev.addr = addr;
        ev.size = size;
        ev.isPm = true;
        ev.atomic = true;
        ev.sub = (uint8_t)instr.memOrder();
        ev.objectId = objectAt(addr);
        ev.stack = capture();
        emit(std::move(ev));
    }
    return old_value;
}

/// @}

std::string
Vm::statsString() const
{
    std::string out =
        format("executed %llu instruction(s), %.0f simulated ns\n",
               (unsigned long long)steps_, simNanos_);
    for (const auto &[op, count] : opcodeCounts_) {
        out += format("  %-10s %12llu\n", ir::opcodeName(op),
                      (unsigned long long)count);
    }
    const pmem::PmPoolStats &ps = pool_->stats();
    out += format("  PM: %llu store(s), %llu flush(es) "
                  "(%llu redundant), %llu fence(s), "
                  "%llu eviction(s)\n",
                  (unsigned long long)ps.stores,
                  (unsigned long long)ps.flushes,
                  (unsigned long long)ps.redundantFlushes,
                  (unsigned long long)ps.fences,
                  (unsigned long long)ps.evictions);
    return out;
}

uint64_t
Vm::flushesExecuted() const
{
    uint64_t n = 0;
    for (const auto &[kind, count] : flushCounts_)
        n += count;
    return n;
}

uint64_t
Vm::fencesExecuted() const
{
    uint64_t n = 0;
    for (const auto &[kind, count] : fenceCounts_)
        n += count;
    return n;
}

void
Vm::exportMetrics(support::MetricsRegistry &reg,
                  const std::string &prefix) const
{
    reg.counter(prefix + ".runs").inc(runs_);
    reg.counter(prefix + ".instructions").inc(steps_);
    reg.doubleSum(prefix + ".sim_ns").add(simNanos_);
    reg.counter(prefix + ".crashes_injected").inc(crashesInjected_);
    reg.counter(prefix + ".nt_stores").inc(ntStores_);
    reg.counter(prefix + ".watchdog.timeouts").inc(watchdogTimeouts_);
    reg.counter(prefix + ".watchdog.budget_exceeded")
        .inc(watchdogBudgetExceeded_);
    reg.counter(prefix + ".watchdog.traps").inc(watchdogTraps_);
    for (const auto &[op, count] : opcodeCounts_)
        reg.counter(prefix + ".opcode." + ir::opcodeName(op))
            .inc(count);
    for (const auto &[kind, count] : flushCounts_)
        reg.counter(prefix + ".flush." + ir::flushKindName(kind))
            .inc(count);
    for (const auto &[kind, count] : fenceCounts_)
        reg.counter(prefix + ".fence." + ir::fenceKindName(kind))
            .inc(count);
    if (schedVisibleOps_ || schedSpawns_) {
        reg.counter(prefix + ".sched.spawns").inc(schedSpawns_);
        reg.counter(prefix + ".sched.joins").inc(schedJoins_);
        reg.counter(prefix + ".sched.switches").inc(schedSwitches_);
        reg.counter(prefix + ".sched.preemptions")
            .inc(schedPreemptions_);
        reg.counter(prefix + ".sched.visible_ops")
            .inc(schedVisibleOps_);
        reg.counter(prefix + ".sched.races").inc(schedRaces_);
        reg.counter(prefix + ".sched.deadlocks")
            .inc(schedDeadlocks_);
    }
    reg.counter(prefix + ".fast.runs").inc(fastRuns_);
    reg.counter(prefix + ".fast.steps").inc(fastSteps_);
    reg.counter(prefix + ".fast.dispatches").inc(fastDispatches_);
    reg.counter(prefix + ".fast.superinstructions").inc(fastSuper_);
    reg.counter(prefix + ".fast.compiles").inc(fastCompiles_);
    // A shared program's compile belongs to whoever compiled it.
    if (program_ && program_ != cfg_.program) {
        reg.counter(prefix + ".fast.compiled.instrs")
            .inc(program_->totalInstrs);
        reg.counter(prefix + ".fast.compiled.bytecode")
            .inc(program_->totalCode);
        reg.counter(prefix + ".fast.compiled.superinstructions")
            .inc(program_->totalFused);
    }
    pool_->exportMetrics(reg, prefix + ".pool");
}

RunResult
Vm::run(const std::string &function, std::vector<uint64_t> args)
{
    durPointsSeen_ = 0;
    curTid_ = 0;
    volatileSpBase_ = 0;
    volatileLimit_ = volatileMem_.size();
    runVisibleOps_ = 0;
    planCursor_ = 0;
    raceSeq_ = 0;
    curDirtyLines_.clear();
    curFlushedLines_.clear();
    ensureProgram();
    // Line tracking costs a set insert per PM store, so it is only
    // armed for modules that can exhibit cross-thread durability
    // races at all; the compiled program records that once.
    lineTrackingEnabled_ = program_->threaded;
    double nanos_before = simNanos_;
    uint64_t steps_before = steps_;
    runStartSteps_ = steps_;
    runStartTime_ = std::chrono::steady_clock::now();

    runs_++;
    RunResult res;
    try {
        ir::Function *f = module_->findFunction(function);
        if (!f)
            trapOrFatal(format("no such function: @%s",
                               function.c_str()));
        hippo_assert(args.size() == f->numParams(),
                     "run() arity mismatch");
        fastRuns_++;
        {
            // Destroyed (merging its flat counters into the maps)
            // during unwinding, before the handlers below run.
            FastInterp fi(*this, *program_);
            res.returnValue = fi.call(f, args);
        }
        joinAllSpawned();
    } catch (CrashSignal &) {
        res.crashed = true;
        crashesInjected_++;
        volatileSp_ = 0;
        liveAllocs_.clear();
    } catch (WatchdogSignal &w) {
        res.outcome = w.outcome;
        res.diag = std::move(w.diag);
        res.wallClockTimeout = w.wallClock;
        volatileSp_ = 0;
        liveAllocs_.clear();
        switch (res.outcome) {
          case ExecOutcome::Timeout: watchdogTimeouts_++; break;
          case ExecOutcome::BudgetExceeded:
            watchdogBudgetExceeded_++;
            break;
          default: watchdogTraps_++; break;
        }
    }
    teardownThreads();
    volatileSpBase_ = 0;
    volatileLimit_ = volatileMem_.size();
    res.steps = steps_ - steps_before;
    res.visibleOps = runVisibleOps_;
    res.simNanos = simNanos_ - nanos_before;

    if (!res.crashed && res.ok() && cfg_.traceEnabled &&
        cfg_.durPointAtExit) {
        trace::Event ev;
        ev.kind = trace::EventKind::DurPoint;
        ev.symbol = "exit";
        ev.stack = {{function, 0xFFFFFFFEu, "", 0}};
        emit(std::move(ev));
    }
    return res;
}

} // namespace hippo::vm
