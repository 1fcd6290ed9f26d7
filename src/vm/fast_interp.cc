#include "vm/fast_interp.hh"

#include <algorithm>
#include <cstring>

#include "ir/basic_block.hh"
#include "ir/function.hh"
#include "ir/module.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "vm/vm.hh"

/**
 * Computed-goto dispatch needs the GNU labels-as-values extension;
 * the build opts in via HIPPO_COMPUTED_GOTO (top-level CMake option,
 * default ON). Anything else falls back to the portable switch loop
 * — same handlers, same semantics, measurably slower dispatch.
 */
#if defined(HIPPO_COMPUTED_GOTO) && \
    (defined(__GNUC__) || defined(__clang__))
#define HIPPO_DIRECT_THREADED 1
#else
#define HIPPO_DIRECT_THREADED 0
#endif

namespace hippo::vm
{

using ir::Opcode;

FastInterp::FastInterp(Vm &vm, const BcProgram &prog)
    : vm_(vm), prog_(prog), stepsAtCtor_(vm.steps_)
{
    const VmConfig &cfg = vm_.cfg_;
    slowStep_ = cfg.stepBudget || cfg.timeBudgetMs ||
                cfg.crashAtStep || cfg.stepProbeStride;
    regArena_.reserve(4096);
}

FastInterp::~FastInterp()
{
    // Merge the flat hot-path counters into the Vm's maps. Runs
    // during unwinding too, so crash/watchdog runs keep an exact
    // census — Vm::run catches the signals after this.
    for (unsigned i = 0; i < numIrOpcodes; i++)
        if (opCounts_[i])
            vm_.opcodeCounts_[(Opcode)i] += opCounts_[i];
    for (unsigned i = 0; i < 3; i++)
        if (flushCounts_[i])
            vm_.flushCounts_[(ir::FlushKind)i] += flushCounts_[i];
    for (unsigned i = 0; i < 2; i++)
        if (fenceCounts_[i])
            vm_.fenceCounts_[(ir::FenceKind)i] += fenceCounts_[i];
    vm_.fastDispatches_ += dispatches_;
    vm_.fastSuper_ += superExec_;
    vm_.fastSteps_ += vm_.steps_ - stepsAtCtor_;
}

uint64_t
FastInterp::call(const ir::Function *f,
                 const std::vector<uint64_t> &args)
{
    auto it = prog_.indexOf.find(f);
    hippo_assert(it != prog_.indexOf.end(),
                 "function not in the compiled module");
    return execFunc(prog_.funcs[it->second], args.data(),
                    args.size(), nullptr, nullptr, 0);
}

[[noreturn]] void
FastInterp::stepLimitExceeded()
{
    if (vm_.cfg_.sandbox)
        throw Vm::WatchdogSignal{ExecOutcome::Timeout,
                                 "global step limit exceeded"};
    hippo_fatal("step limit exceeded (infinite loop?)");
}

void
FastInterp::slowStepChecks()
{
    const VmConfig &cfg = vm_.cfg_;
    uint64_t in_run = vm_.steps_ - vm_.runStartSteps_;
    if (cfg.stepBudget || cfg.timeBudgetMs)
        vm_.checkWatchdog(in_run);
    if (cfg.crashAtStep && in_run >= cfg.crashAtStep)
        throw Vm::CrashSignal{};
    if (cfg.stepProbeStride && in_run % cfg.stepProbeStride == 0)
        cfg.stepProbe(in_run);
}

inline void
FastInterp::stepPre(Opcode op)
{
    if (++vm_.steps_ > vm_.cfg_.maxSteps)
        stepLimitExceeded();
    if (slowStep_)
        slowStepChecks();
    opCounts_[(unsigned)op]++;
}

std::vector<trace::StackFrame>
FastInterp::captureStack(const Frame &frame,
                         const ir::Instruction &instr) const
{
    std::vector<trace::StackFrame> stack;
    stack.push_back({frame.func->name(), instr.id(),
                     instr.loc().file, instr.loc().line});
    for (const Frame *fr = &frame; fr->parent; fr = fr->parent) {
        const ir::Instruction *cs = fr->callSite;
        stack.push_back({fr->parent->func->name(), cs->id(),
                         cs->loc().file, cs->loc().line});
    }
    return stack;
}

void
FastInterp::storeBody(const Frame &frame, const ir::Instruction &in,
                      uint64_t value, uint64_t addr, uint64_t size,
                      bool non_temporal)
{
    Vm &vm = vm_;
    uint8_t bytes[8];
    std::memcpy(bytes, &value, 8);
    bool pm = vm.isPmAddr(addr);
    vm.rawStore(addr, bytes, size, non_temporal);
    vm.simNanos_ += vm.cfg_.costs.storeNs;
    vm.ntStores_ += pm && non_temporal;

    if (vm.cfg_.traceEnabled) {
        vm.recordDynPts(frame.func->name(), in.operand(1),
                             addr);
        if (pm) {
            trace::Event ev;
            ev.kind = trace::EventKind::Store;
            ev.addr = addr;
            ev.size = size;
            ev.isPm = true;
            ev.nonTemporal = non_temporal;
            ev.objectId = vm.objectAt(addr);
            ev.stack = captureStack(frame, in);
            vm.emit(std::move(ev));
        }
    }
}

void
FastInterp::flushBody(const Frame &frame, const ir::Instruction &in,
                      uint64_t addr, ir::FlushKind kind)
{
    Vm &vm = vm_;
    bool pm = vm.isPmAddr(addr);
    flushCounts_[(unsigned)kind]++;
    vm.simNanos_ += kind == ir::FlushKind::Clflush
                        ? vm.cfg_.costs.clflushNs
                        : vm.cfg_.costs.flushNs;
    if (pm) {
        vm.pool_->flush(addr, (pmem::FlushOp)kind);
        vm.noteFlushLine(addr);
    }
    if (vm.cfg_.traceEnabled) {
        trace::Event ev;
        ev.kind = trace::EventKind::Flush;
        ev.addr = addr;
        ev.size = pmem::cacheLineSize;
        ev.isPm = pm;
        ev.sub = (uint8_t)kind;
        ev.objectId = vm.objectAt(addr);
        ev.stack = captureStack(frame, in);
        vm.emit(std::move(ev));
    }
}

void
FastInterp::fenceBody(const Frame &frame, const ir::Instruction &in,
                      ir::FenceKind kind)
{
    Vm &vm = vm_;
    uint64_t pending = vm.pool_->pendingWritebacks();
    fenceCounts_[(unsigned)kind]++;
    vm.simNanos_ += vm.cfg_.costs.fenceBaseNs;
    if (pending > 0) {
        vm.simNanos_ += vm.cfg_.costs.fenceDrainNs +
                        vm.cfg_.costs.fencePerLineNs * (pending - 1);
    }
    vm.pool_->fence();
    vm.noteFenceDrain();
    if (vm.cfg_.traceEnabled) {
        trace::Event ev;
        ev.kind = trace::EventKind::Fence;
        ev.sub = (uint8_t)kind;
        ev.stack = captureStack(frame, in);
        vm.emit(std::move(ev));
    }
}

uint64_t
FastInterp::pmMapBody(const Frame &frame, const ir::Instruction &in)
{
    Vm &vm = vm_;
    uint64_t base = vm.pool_->mapRegion(in.symbol(), in.regionSize());
    if (vm.cfg_.traceEnabled) {
        uint32_t obj =
            vm.trace_.internObject("pm:" + in.symbol(), true);
        vm.pmObjects_[base] = {in.regionSize(), obj};
        trace::Event ev;
        ev.kind = trace::EventKind::PmMap;
        ev.addr = base;
        ev.size = in.regionSize();
        ev.isPm = true;
        ev.objectId = obj;
        ev.symbol = in.symbol();
        ev.stack = captureStack(frame, in);
        vm.emit(std::move(ev));
    }
    return base;
}

namespace
{

inline bool
cmpCompute(ir::CmpPred pred, uint64_t l, uint64_t r)
{
    int64_t sl = (int64_t)l, sr = (int64_t)r;
    switch (pred) {
      case ir::CmpPred::Eq: return l == r;
      case ir::CmpPred::Ne: return l != r;
      case ir::CmpPred::Ult: return l < r;
      case ir::CmpPred::Ule: return l <= r;
      case ir::CmpPred::Ugt: return l > r;
      case ir::CmpPred::Uge: return l >= r;
      case ir::CmpPred::Slt: return sl < sr;
      case ir::CmpPred::Sle: return sl <= sr;
      case ir::CmpPred::Sgt: return sl > sr;
      case ir::CmpPred::Sge: return sl >= sr;
    }
    return false;
}

} // namespace

uint64_t
FastInterp::execFunc(const BcFunction &bf, const uint64_t *args,
                     size_t nargs, const Frame *parent,
                     const ir::Instruction *call_site, int depth)
{
    Vm &vm = vm_;
    const VmConfig &cfg = vm.cfg_;
    const CostModel &costs = cfg.costs;
    const ir::Function *f = bf.irFunc;

    hippo_assert(f->entry(), "calling empty function");
    if (depth > 512)
        vm.trapOrFatal(format("call depth limit exceeded in @%s",
                              f->name().c_str()));

    Frame frame{f, parent, call_site};

    // Bump-allocate this activation's register file. resize() both
    // zero-fills the fresh slots and reuses capacity across calls.
    const size_t base = regArena_.size();
    regArena_.resize(base + bf.frameSlots, 0);
    uint64_t *regs = regArena_.data() + base;
    std::copy(args, args + nargs, regs + bf.argBase);
    std::copy(bf.constPool.begin(), bf.constPool.end(),
              regs + bf.constBase);

    uint64_t saved_sp = vm.volatileSp_;
    size_t saved_allocs = vm.liveAllocs_.size();

    const BcInstr *code = bf.code.data();
    const BcInstr *pc = code;

#if HIPPO_DIRECT_THREADED
    static const void *labels[] = {
        &&lbl_Alloca, &&lbl_Load, &&lbl_Store, &&lbl_Flush,
        &&lbl_Fence, &&lbl_Gep, &&lbl_Bin, &&lbl_Cmp, &&lbl_Select,
        &&lbl_Br, &&lbl_CondBr, &&lbl_Call, &&lbl_Ret, &&lbl_PmMap,
        &&lbl_Memcpy, &&lbl_Memset, &&lbl_DurPoint, &&lbl_Print,
        &&lbl_ThreadSpawn, &&lbl_ThreadJoin, &&lbl_AtomicLoad,
        &&lbl_AtomicStore, &&lbl_AtomicRmw,
        &&lbl_StoreFlush, &&lbl_StoreFlushFence, &&lbl_GepLoad,
        &&lbl_GepStore, &&lbl_CmpBr, &&lbl_FallOff,
    };
    static_assert(sizeof(labels) / sizeof(labels[0]) == numBcOps,
                  "label table out of sync with BcOp");
#define CASE(name) lbl_##name:
#define DISPATCH()                                                   \
    do {                                                             \
        dispatches_++;                                               \
        goto *labels[(unsigned)pc->op];                              \
    } while (0)
#else
#define CASE(name) case BcOp::name:
#define DISPATCH() goto dispatch_loop
#endif
#define NEXT()                                                       \
    do {                                                             \
        ++pc;                                                        \
        DISPATCH();                                                  \
    } while (0)

#if HIPPO_DIRECT_THREADED
    DISPATCH();
#else
  dispatch_loop:
    dispatches_++;
    switch (pc->op) {
#endif

    CASE(Alloca)
    {
        stepPre(Opcode::Alloca);
        uint64_t bytes = (pc->imm + 15) & ~15ULL;
        if (cfg.heapBudget &&
            vm.volatileSp_ - vm.volatileSpBase_ + bytes >
                cfg.heapBudget) {
            throw Vm::WatchdogSignal{
                ExecOutcome::BudgetExceeded,
                format("volatile heap budget exceeded (%llu bytes)",
                       (unsigned long long)cfg.heapBudget)};
        }
        if (vm.volatileSp_ + bytes > vm.volatileLimit_)
            vm.trapOrFatal("volatile arena exhausted");
        uint64_t addr = volatileBaseAddr + vm.volatileSp_;
        vm.volatileSp_ += bytes;
        std::memset(&vm.volatileMem_[addr - volatileBaseAddr], 0,
                    bytes);
        if (cfg.traceEnabled) {
            uint32_t obj = vm.trace_.internObject(
                format("%s#%u", f->name().c_str(), pc->src->id()),
                false);
            vm.liveAllocs_.push_back({addr, addr + pc->imm, obj});
        }
        regs[pc->dst] = addr;
        vm.simNanos_ += costs.aluNs;
        NEXT();
    }

    CASE(Load)
    {
        stepPre(Opcode::Load);
        uint64_t addr = regs[pc->a];
        uint64_t v = 0;
        vm.rawLoad(addr, reinterpret_cast<uint8_t *>(&v), pc->imm);
        regs[pc->dst] = v;
        vm.simNanos_ +=
            vm.isPmAddr(addr) ? costs.pmLoadNs : costs.loadNs;
        NEXT();
    }

    CASE(Store)
    {
        stepPre(Opcode::Store);
        storeBody(frame, *pc->src, regs[pc->a], regs[pc->b],
                  pc->imm, pc->flags & 1);
        NEXT();
    }

    CASE(Flush)
    {
        stepPre(Opcode::Flush);
        flushBody(frame, *pc->src, regs[pc->a],
                  (ir::FlushKind)pc->sub);
        NEXT();
    }

    CASE(Fence)
    {
        stepPre(Opcode::Fence);
        fenceBody(frame, *pc->src, (ir::FenceKind)pc->sub);
        NEXT();
    }

    CASE(Gep)
    {
        stepPre(Opcode::Gep);
        regs[pc->dst] = regs[pc->a] + regs[pc->b];
        vm.simNanos_ += costs.aluNs;
        NEXT();
    }

    CASE(Bin)
    {
        stepPre(Opcode::Bin);
        uint64_t l = regs[pc->a];
        uint64_t r = regs[pc->b];
        uint64_t v = 0;
        switch ((ir::BinOp)pc->sub) {
          case ir::BinOp::Add: v = l + r; break;
          case ir::BinOp::Sub: v = l - r; break;
          case ir::BinOp::Mul: v = l * r; break;
          case ir::BinOp::UDiv:
            if (!r)
                vm.trapOrFatal("division by zero");
            v = l / r;
            break;
          case ir::BinOp::URem:
            if (!r)
                vm.trapOrFatal("remainder by zero");
            v = l % r;
            break;
          case ir::BinOp::And: v = l & r; break;
          case ir::BinOp::Or: v = l | r; break;
          case ir::BinOp::Xor: v = l ^ r; break;
          case ir::BinOp::Shl: v = l << (r & 63); break;
          case ir::BinOp::LShr: v = l >> (r & 63); break;
        }
        regs[pc->dst] = v;
        vm.simNanos_ += costs.aluNs;
        NEXT();
    }

    CASE(Cmp)
    {
        stepPre(Opcode::Cmp);
        regs[pc->dst] =
            cmpCompute((ir::CmpPred)pc->sub, regs[pc->a],
                       regs[pc->b])
                ? 1
                : 0;
        vm.simNanos_ += costs.aluNs;
        NEXT();
    }

    CASE(Select)
    {
        stepPre(Opcode::Select);
        regs[pc->dst] = regs[regs[pc->a] ? pc->b : pc->c];
        vm.simNanos_ += costs.aluNs;
        NEXT();
    }

    CASE(Br)
    {
        stepPre(Opcode::Br);
        vm.simNanos_ += costs.aluNs;
        pc = code + pc->a;
        DISPATCH();
    }

    CASE(CondBr)
    {
        stepPre(Opcode::CondBr);
        uint64_t c = regs[pc->a];
        vm.simNanos_ += costs.aluNs;
        pc = code + (c ? pc->b : pc->c);
        DISPATCH();
    }

    CASE(Call)
    {
        stepPre(Opcode::Call);
        const ir::Instruction &in = *pc->src;
        size_t n = (size_t)pc->imm;
        argScratch_.resize(n);
        for (size_t i = 0; i < n; i++) {
            argScratch_[i] = regs[bf.callArgs[pc->b + i]];
            if (cfg.traceEnabled &&
                in.operand(i)->type() == ir::Type::Ptr)
                vm.recordDynPts(f->name(), in.operand(i),
                                     argScratch_[i]);
        }
        vm.simNanos_ += costs.callNs;
        uint64_t rv = execFunc(prog_.funcs[pc->a],
                               argScratch_.data(), n, &frame, &in,
                               depth + 1);
        // The callee may have grown (and reallocated) the arena.
        regs = regArena_.data() + base;
        if (pc->dst != bcNoSlot)
            regs[pc->dst] = rv;
        NEXT();
    }

    CASE(Ret)
    {
        stepPre(Opcode::Ret);
        uint64_t rv = pc->a == bcNoSlot ? 0 : regs[pc->a];
        vm.volatileSp_ = saved_sp;
        vm.liveAllocs_.resize(saved_allocs);
        vm.simNanos_ += costs.callNs;
        regArena_.resize(base);
        return rv;
    }

    CASE(PmMap)
    {
        stepPre(Opcode::PmMap);
        regs[pc->dst] = pmMapBody(frame, *pc->src);
        vm.simNanos_ += costs.aluNs;
        NEXT();
    }

    CASE(Memcpy)
    {
        stepPre(Opcode::Memcpy);
        const ir::Instruction &in = *pc->src;
        uint64_t dst = regs[pc->a];
        uint64_t src = regs[pc->b];
        uint64_t len = regs[pc->c];
        if (len != 0) {
            std::vector<uint8_t> buf(len);
            vm.rawLoad(src, buf.data(), len);
            vm.rawStore(dst, buf.data(), len, false);
            vm.simNanos_ += costs.perByteCopyNs * len;
            if (cfg.traceEnabled) {
                vm.recordDynPts(f->name(), in.operand(0), dst);
                vm.recordDynPts(f->name(), in.operand(1), src);
                if (vm.isPmAddr(dst)) {
                    trace::Event ev;
                    ev.kind = trace::EventKind::Store;
                    ev.addr = dst;
                    ev.size = len;
                    ev.isPm = true;
                    ev.objectId = vm.objectAt(dst);
                    ev.stack = captureStack(frame, in);
                    vm.emit(std::move(ev));
                }
            }
        }
        NEXT();
    }

    CASE(Memset)
    {
        stepPre(Opcode::Memset);
        const ir::Instruction &in = *pc->src;
        uint64_t dst = regs[pc->a];
        uint64_t byte = regs[pc->b];
        uint64_t len = regs[pc->c];
        if (len != 0) {
            std::vector<uint8_t> buf(len, (uint8_t)byte);
            vm.rawStore(dst, buf.data(), len, false);
            vm.simNanos_ += costs.perByteCopyNs * len;
            if (cfg.traceEnabled) {
                vm.recordDynPts(f->name(), in.operand(0), dst);
                if (vm.isPmAddr(dst)) {
                    trace::Event ev;
                    ev.kind = trace::EventKind::Store;
                    ev.addr = dst;
                    ev.size = len;
                    ev.isPm = true;
                    ev.objectId = vm.objectAt(dst);
                    ev.stack = captureStack(frame, in);
                    vm.emit(std::move(ev));
                }
            }
        }
        NEXT();
    }

    CASE(DurPoint)
    {
        stepPre(Opcode::DurPoint);
        const ir::Instruction &in = *pc->src;
        if (cfg.traceEnabled) {
            trace::Event ev;
            ev.kind = trace::EventKind::DurPoint;
            ev.symbol = in.symbol();
            ev.stack = captureStack(frame, in);
            vm.emit(std::move(ev));
        }
        int64_t n = vm.durPointsSeen_++;
        if (cfg.durPointProbe)
            cfg.durPointProbe((uint64_t)n,
                              vm.steps_ - vm.runStartSteps_,
                              in.symbol());
        if (cfg.crashAtDurPoint >= 0 && n == cfg.crashAtDurPoint) {
            vm.volatileSp_ = saved_sp;
            vm.liveAllocs_.resize(saved_allocs);
            throw Vm::CrashSignal{};
        }
        NEXT();
    }

    CASE(Print)
    {
        stepPre(Opcode::Print);
        const ir::Instruction &in = *pc->src;
        uint64_t v = regs[pc->a];
        vm.outputs_.push_back({in.symbol(), v});
        if (cfg.traceEnabled && cfg.traceOutputs) {
            trace::Event ev;
            ev.kind = trace::EventKind::Output;
            ev.symbol = in.symbol();
            ev.value = v;
            ev.stack = captureStack(frame, in);
            vm.emit(std::move(ev));
        }
        NEXT();
    }

    CASE(ThreadSpawn)
    {
        stepPre(Opcode::ThreadSpawn);
        size_t n = (size_t)pc->imm;
        std::vector<uint64_t> spawn_args(n);
        for (size_t i = 0; i < n; i++)
            spawn_args[i] = regs[bf.callArgs[pc->b + i]];
        vm.simNanos_ += costs.callNs;
        // The spawned thread runs its own FastInterp; this one's
        // register arena stays private, so `regs` remains valid
        // across the context switches inside the body.
        regs[pc->dst] =
            vm.threadSpawnBody(*pc->src, std::move(spawn_args));
        NEXT();
    }

    CASE(ThreadJoin)
    {
        stepPre(Opcode::ThreadJoin);
        uint64_t tid = regs[pc->a];
        vm.simNanos_ += costs.callNs;
        regs[pc->dst] = vm.threadJoinBody(tid);
        NEXT();
    }

    CASE(AtomicLoad)
    {
        stepPre(Opcode::AtomicLoad);
        regs[pc->dst] = vm.atomicLoadBody(*pc->src, regs[pc->a]);
        NEXT();
    }

    CASE(AtomicStore)
    {
        stepPre(Opcode::AtomicStore);
        vm.atomicStoreBody(*pc->src, regs[pc->a], regs[pc->b], [&] {
            return captureStack(frame, *pc->src);
        });
        NEXT();
    }

    CASE(AtomicRmw)
    {
        stepPre(Opcode::AtomicRmw);
        regs[pc->dst] =
            vm.atomicRmwBody(*pc->src, regs[pc->a], regs[pc->b], [&] {
                return captureStack(frame, *pc->src);
            });
        NEXT();
    }

    CASE(StoreFlush)
    {
        superExec_++;
        stepPre(Opcode::Store);
        storeBody(frame, *pc->src, regs[pc->a], regs[pc->b],
                  pc->imm, pc->flags & 1);
        stepPre(Opcode::Flush);
        flushBody(frame, *pc->src2, regs[pc->b],
                  (ir::FlushKind)pc->sub);
        NEXT();
    }

    CASE(StoreFlushFence)
    {
        superExec_++;
        stepPre(Opcode::Store);
        storeBody(frame, *pc->src, regs[pc->a], regs[pc->b],
                  pc->imm, pc->flags & 1);
        stepPre(Opcode::Flush);
        flushBody(frame, *pc->src2, regs[pc->b],
                  (ir::FlushKind)pc->sub);
        stepPre(Opcode::Fence);
        fenceBody(frame, *pc->src3, (ir::FenceKind)pc->sub2);
        NEXT();
    }

    CASE(GepLoad)
    {
        superExec_++;
        stepPre(Opcode::Gep);
        uint64_t addr = regs[pc->a] + regs[pc->b];
        regs[pc->dst] = addr;
        vm.simNanos_ += costs.aluNs;
        stepPre(Opcode::Load);
        uint64_t v = 0;
        vm.rawLoad(addr, reinterpret_cast<uint8_t *>(&v), pc->imm);
        regs[pc->dst2] = v;
        vm.simNanos_ +=
            vm.isPmAddr(addr) ? costs.pmLoadNs : costs.loadNs;
        NEXT();
    }

    CASE(GepStore)
    {
        superExec_++;
        stepPre(Opcode::Gep);
        uint64_t addr = regs[pc->a] + regs[pc->b];
        regs[pc->dst] = addr;
        vm.simNanos_ += costs.aluNs;
        stepPre(Opcode::Store);
        storeBody(frame, *pc->src2, regs[pc->c], addr, pc->imm,
                  pc->flags & 1);
        NEXT();
    }

    CASE(CmpBr)
    {
        superExec_++;
        stepPre(Opcode::Cmp);
        bool v = cmpCompute((ir::CmpPred)pc->sub, regs[pc->a],
                            regs[pc->b]);
        regs[pc->dst] = v ? 1 : 0;
        vm.simNanos_ += costs.aluNs;
        stepPre(Opcode::CondBr);
        vm.simNanos_ += costs.aluNs;
        pc = code + (v ? pc->c : (uint32_t)pc->imm);
        DISPATCH();
    }

    CASE(FallOff)
    {
        hippo_panic("fell off block %s in @%s",
                    bf.fallOffBlocks[pc->imm].c_str(),
                    f->name().c_str());
    }

#if !HIPPO_DIRECT_THREADED
    }
    hippo_panic("fast-interp: bad opcode");
#endif

#undef CASE
#undef DISPATCH
#undef NEXT
}

} // namespace hippo::vm
