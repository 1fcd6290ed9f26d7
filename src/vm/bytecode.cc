#include "vm/bytecode.hh"

#include <atomic>

#include "ir/basic_block.hh"
#include "ir/function.hh"
#include "ir/module.hh"
#include "support/logging.hh"
#include "support/strings.hh"

namespace hippo::vm
{

using ir::Opcode;

const char *
bcOpName(BcOp op)
{
    switch (op) {
      case BcOp::Alloca: return "alloca";
      case BcOp::Load: return "load";
      case BcOp::Store: return "store";
      case BcOp::Flush: return "flush";
      case BcOp::Fence: return "fence";
      case BcOp::Gep: return "gep";
      case BcOp::Bin: return "bin";
      case BcOp::Cmp: return "cmp";
      case BcOp::Select: return "select";
      case BcOp::Br: return "br";
      case BcOp::CondBr: return "condbr";
      case BcOp::Call: return "call";
      case BcOp::Ret: return "ret";
      case BcOp::PmMap: return "pmmap";
      case BcOp::Memcpy: return "memcpy";
      case BcOp::Memset: return "memset";
      case BcOp::DurPoint: return "durpoint";
      case BcOp::Print: return "print";
      case BcOp::ThreadSpawn: return "thread.spawn";
      case BcOp::ThreadJoin: return "thread.join";
      case BcOp::AtomicLoad: return "atomic.load";
      case BcOp::AtomicStore: return "atomic.store";
      case BcOp::AtomicRmw: return "atomic.rmw";
      case BcOp::StoreFlush: return "store.flush";
      case BcOp::StoreFlushFence: return "store.flush.fence";
      case BcOp::GepLoad: return "gep.load";
      case BcOp::GepStore: return "gep.store";
      case BcOp::CmpBr: return "cmp.br";
      case BcOp::FallOff: return "falloff";
    }
    return "?";
}

namespace
{

/** Per-function compiler state. */
class FunctionCompiler
{
  public:
    FunctionCompiler(const ir::Function &f, const BcProgram &prog,
                     const BcOptions &opts)
        : func_(f), prog_(prog), opts_(opts)
    {}

    BcFunction compile();

  private:
    /** Pending branch-target patch: which field of which record. */
    enum class Field : uint8_t { A, B, C, Imm };
    struct Fixup
    {
        size_t index;
        Field field;
        const ir::BasicBlock *target;
    };

    uint32_t slotOf(const ir::Value *v);
    void emitBlock(const ir::BasicBlock &bb);
    BcInstr lower(const ir::Instruction &instr);

    /** Would @p store fuse with its successor flush (same address
     *  value)? Used both to fuse and to keep a preceding gep from
     *  stealing the store into a GepStore. */
    bool storeStartsFlushChain(ir::BasicBlock::const_iterator it,
                               const ir::BasicBlock &bb) const;

    const ir::Function &func_;
    const BcProgram &prog_;
    const BcOptions &opts_;
    BcFunction out_;
    std::map<const ir::Value *, uint32_t> constSlot_;
    std::map<const ir::BasicBlock *, uint32_t> blockPc_;
    std::vector<Fixup> fixups_;
};

uint32_t
FunctionCompiler::slotOf(const ir::Value *v)
{
    switch (v->kind()) {
      case ir::ValueKind::Instruction:
        return static_cast<const ir::Instruction *>(v)->id();
      case ir::ValueKind::Argument:
        return out_.argBase +
               static_cast<const ir::Argument *>(v)->index();
      case ir::ValueKind::Constant: {
        auto it = constSlot_.find(v);
        if (it != constSlot_.end())
            return it->second;
        uint32_t slot =
            out_.constBase + (uint32_t)out_.constPool.size();
        out_.constPool.push_back(
            static_cast<const ir::Constant *>(v)->value());
        constSlot_.emplace(v, slot);
        return slot;
      }
    }
    hippo_panic("bad value kind");
}

BcInstr
FunctionCompiler::lower(const ir::Instruction &instr)
{
    BcInstr bc;
    bc.op = (BcOp)instr.op();
    bc.src = &instr;
    switch (instr.op()) {
      case Opcode::Alloca:
        bc.dst = instr.id();
        bc.imm = instr.accessSize();
        break;
      case Opcode::Load:
        bc.a = slotOf(instr.operand(0));
        bc.dst = instr.id();
        bc.imm = instr.accessSize();
        break;
      case Opcode::Store:
        bc.a = slotOf(instr.operand(0));
        bc.b = slotOf(instr.operand(1));
        bc.imm = instr.accessSize();
        bc.flags = instr.nonTemporal() ? 1 : 0;
        break;
      case Opcode::Flush:
        bc.a = slotOf(instr.operand(0));
        bc.sub = (uint8_t)instr.flushKind();
        break;
      case Opcode::Fence:
        bc.sub = (uint8_t)instr.fenceKind();
        break;
      case Opcode::Gep:
        bc.a = slotOf(instr.operand(0));
        bc.b = slotOf(instr.operand(1));
        bc.dst = instr.id();
        break;
      case Opcode::Bin:
        bc.a = slotOf(instr.operand(0));
        bc.b = slotOf(instr.operand(1));
        bc.dst = instr.id();
        bc.sub = (uint8_t)instr.binOp();
        break;
      case Opcode::Cmp:
        bc.a = slotOf(instr.operand(0));
        bc.b = slotOf(instr.operand(1));
        bc.dst = instr.id();
        bc.sub = (uint8_t)instr.cmpPred();
        break;
      case Opcode::Select:
        bc.a = slotOf(instr.operand(0));
        bc.b = slotOf(instr.operand(1));
        bc.c = slotOf(instr.operand(2));
        bc.dst = instr.id();
        break;
      case Opcode::Br:
        fixups_.push_back({0, Field::A, instr.target(0)});
        break;
      case Opcode::CondBr:
        bc.a = slotOf(instr.operand(0));
        fixups_.push_back({0, Field::B, instr.target(0)});
        fixups_.push_back({0, Field::C, instr.target(1)});
        break;
      case Opcode::Call: {
        auto cit = prog_.indexOf.find(instr.callee());
        hippo_assert(cit != prog_.indexOf.end(),
                     "call to a function outside the module");
        bc.a = cit->second;
        bc.b = (uint32_t)out_.callArgs.size();
        bc.imm = instr.numOperands();
        for (size_t i = 0; i < instr.numOperands(); i++)
            out_.callArgs.push_back(slotOf(instr.operand(i)));
        if (instr.hasResult())
            bc.dst = instr.id();
        break;
      }
      case Opcode::Ret:
        if (instr.numOperands())
            bc.a = slotOf(instr.operand(0));
        break;
      case Opcode::PmMap:
        bc.dst = instr.id();
        bc.imm = instr.regionSize();
        break;
      case Opcode::Memcpy:
      case Opcode::Memset:
        bc.a = slotOf(instr.operand(0));
        bc.b = slotOf(instr.operand(1));
        bc.c = slotOf(instr.operand(2));
        break;
      case Opcode::DurPoint:
        break;
      case Opcode::Print:
        bc.a = slotOf(instr.operand(0));
        break;
      case Opcode::ThreadSpawn: {
        auto cit = prog_.indexOf.find(instr.callee());
        hippo_assert(cit != prog_.indexOf.end(),
                     "spawn of a function outside the module");
        bc.a = cit->second;
        bc.b = (uint32_t)out_.callArgs.size();
        bc.imm = instr.numOperands();
        for (size_t i = 0; i < instr.numOperands(); i++)
            out_.callArgs.push_back(slotOf(instr.operand(i)));
        bc.dst = instr.id();
        break;
      }
      case Opcode::ThreadJoin:
        bc.a = slotOf(instr.operand(0));
        bc.dst = instr.id();
        break;
      case Opcode::AtomicLoad:
        bc.a = slotOf(instr.operand(0));
        bc.dst = instr.id();
        bc.imm = instr.accessSize();
        bc.sub = (uint8_t)instr.memOrder();
        break;
      case Opcode::AtomicStore:
        bc.a = slotOf(instr.operand(0));
        bc.b = slotOf(instr.operand(1));
        bc.imm = instr.accessSize();
        bc.sub = (uint8_t)instr.memOrder();
        break;
      case Opcode::AtomicRmw:
        bc.a = slotOf(instr.operand(0));
        bc.b = slotOf(instr.operand(1));
        bc.dst = instr.id();
        bc.imm = instr.accessSize();
        bc.sub = (uint8_t)instr.binOp();
        bc.sub2 = (uint8_t)instr.memOrder();
        break;
    }
    return bc;
}

bool
FunctionCompiler::storeStartsFlushChain(
    ir::BasicBlock::const_iterator it, const ir::BasicBlock &bb) const
{
    const ir::Instruction &store = **it;
    if (store.op() != Opcode::Store)
        return false;
    auto next = std::next(it);
    if (next == bb.end())
        return false;
    const ir::Instruction &flush = **next;
    return flush.op() == Opcode::Flush &&
           flush.operand(0) == store.operand(1);
}

void
FunctionCompiler::emitBlock(const ir::BasicBlock &bb)
{
    blockPc_[&bb] = (uint32_t)out_.code.size();

    for (auto it = bb.begin(); it != bb.end();) {
        const ir::Instruction &instr = **it;
        auto next = std::next(it);

        if (opts_.enableSuper) {
            // store → flush (same address value) [→ fence]. The
            // flush chain has priority over a preceding GepStore so
            // the full durability idiom always fuses.
            if (storeStartsFlushChain(it, bb)) {
                const ir::Instruction &flush = **next;
                auto after = std::next(next);
                BcInstr bc = lower(instr);
                bc.sub = (uint8_t)flush.flushKind();
                bc.src2 = &flush;
                if (after != bb.end() &&
                    (*after)->op() == Opcode::Fence) {
                    bc.op = BcOp::StoreFlushFence;
                    bc.sub2 = (uint8_t)(*after)->fenceKind();
                    bc.src3 = after->get();
                    out_.irInstrs += 3;
                    it = std::next(after);
                } else {
                    bc.op = BcOp::StoreFlush;
                    out_.irInstrs += 2;
                    it = after;
                }
                out_.fused++;
                out_.code.push_back(bc);
                continue;
            }
            if (instr.op() == Opcode::Gep && next != bb.end()) {
                const ir::Instruction &succ = **next;
                if (succ.op() == Opcode::Load &&
                    succ.operand(0) == &instr) {
                    BcInstr bc = lower(instr);
                    bc.op = BcOp::GepLoad;
                    bc.dst2 = succ.id();
                    bc.imm = succ.accessSize();
                    bc.src2 = &succ;
                    out_.irInstrs += 2;
                    out_.fused++;
                    out_.code.push_back(bc);
                    it = std::next(next);
                    continue;
                }
                if (succ.op() == Opcode::Store &&
                    succ.operand(1) == &instr &&
                    !storeStartsFlushChain(next, bb)) {
                    BcInstr bc = lower(instr);
                    bc.op = BcOp::GepStore;
                    bc.c = slotOf(succ.operand(0));
                    bc.imm = succ.accessSize();
                    bc.flags = succ.nonTemporal() ? 1 : 0;
                    bc.src2 = &succ;
                    out_.irInstrs += 2;
                    out_.fused++;
                    out_.code.push_back(bc);
                    it = std::next(next);
                    continue;
                }
            }
            if (instr.op() == Opcode::Cmp && next != bb.end()) {
                const ir::Instruction &succ = **next;
                if (succ.op() == Opcode::CondBr &&
                    succ.operand(0) == &instr) {
                    BcInstr bc = lower(instr);
                    bc.op = BcOp::CmpBr;
                    bc.src2 = &succ;
                    fixups_.push_back({out_.code.size(), Field::C,
                                       succ.target(0)});
                    fixups_.push_back({out_.code.size(), Field::Imm,
                                       succ.target(1)});
                    out_.irInstrs += 2;
                    out_.fused++;
                    out_.code.push_back(bc);
                    it = std::next(next);
                    continue;
                }
            }
        }

        // Plain lowering. lower() queues fixups with a placeholder
        // index; stamp them with the record's final position.
        size_t queued = fixups_.size();
        BcInstr bc = lower(instr);
        for (size_t i = queued; i < fixups_.size(); i++)
            fixups_[i].index = out_.code.size();
        out_.irInstrs += 1;
        out_.code.push_back(bc);
        it = next;
    }

    // A block that does not end in a terminator (or an empty block)
    // falls into the guard, which raises the fell-off-block panic.
    if (bb.empty() || !bb.terminator()->isTerminator()) {
        BcInstr guard;
        guard.op = BcOp::FallOff;
        guard.imm = out_.fallOffBlocks.size();
        out_.fallOffBlocks.push_back(bb.name());
        out_.code.push_back(guard);
    }
}

BcFunction
FunctionCompiler::compile()
{
    out_.irFunc = &func_;
    out_.numRegs = func_.idBound();
    out_.argBase = out_.numRegs;
    out_.constBase = out_.argBase + (uint32_t)func_.numParams();

    for (const auto &bb : func_.blocks())
        emitBlock(*bb);

    for (const Fixup &fx : fixups_) {
        auto it = blockPc_.find(fx.target);
        hippo_assert(it != blockPc_.end(),
                     "branch to a block outside the function");
        BcInstr &bc = out_.code[fx.index];
        switch (fx.field) {
          case Field::A: bc.a = it->second; break;
          case Field::B: bc.b = it->second; break;
          case Field::C: bc.c = it->second; break;
          case Field::Imm: bc.imm = it->second; break;
        }
    }

    out_.frameSlots = out_.constBase + (uint32_t)out_.constPool.size();
    return out_;
}

} // namespace

namespace
{

std::atomic<uint64_t> compileCalls{0};

} // namespace

BcProgram
compileModule(const ir::Module &m, const BcOptions &opts)
{
    compileCalls.fetch_add(1, std::memory_order_relaxed);
    BcProgram prog;
    prog.options = opts;
    prog.threaded = ir::moduleIsThreaded(m);
    // Index every function first so Call lowering can resolve
    // callees in any order.
    for (const auto &f : m.functions())
        prog.indexOf.emplace(f.get(), (uint32_t)prog.indexOf.size());
    for (const auto &f : m.functions()) {
        FunctionCompiler fc(*f, prog, opts);
        prog.funcs.push_back(fc.compile());
        const BcFunction &bf = prog.funcs.back();
        prog.totalInstrs += bf.irInstrs;
        prog.totalCode += bf.code.size();
        prog.totalFused += bf.fused;
    }
    return prog;
}

uint64_t
compileModuleCalls()
{
    return compileCalls.load(std::memory_order_relaxed);
}

namespace
{

std::string
slotStr(const BcFunction &bf, uint32_t slot)
{
    if (slot == bcNoSlot)
        return "-";
    if (slot < bf.numRegs)
        return format("r%u", slot);
    if (slot < bf.constBase)
        return format("a%u", slot - bf.argBase);
    return format("k%u", slot - bf.constBase);
}

} // namespace

std::string
disassemble(const BcProgram &prog)
{
    std::string out;
    for (const BcFunction &bf : prog.funcs) {
        out += format("@%s: code=%zu regs=%u args=%u consts=%zu "
                      "fused=%u\n",
                      bf.irFunc->name().c_str(), bf.code.size(),
                      bf.numRegs,
                      (unsigned)bf.irFunc->numParams(),
                      bf.constPool.size(), bf.fused);
        for (size_t i = 0; i < bf.constPool.size(); i++)
            out += format("  k%zu = %llu\n", i,
                          (unsigned long long)bf.constPool[i]);
        for (size_t pc = 0; pc < bf.code.size(); pc++) {
            const BcInstr &bc = bf.code[pc];
            out += format("  %4zu: %-18s", pc, bcOpName(bc.op));
            auto slot = [&](uint32_t s) { return slotStr(bf, s); };
            switch (bc.op) {
              case BcOp::Alloca:
                out += format(" %s, %llu", slot(bc.dst).c_str(),
                              (unsigned long long)bc.imm);
                break;
              case BcOp::Load:
                out += format(" %s, [%s], %llu",
                              slot(bc.dst).c_str(),
                              slot(bc.a).c_str(),
                              (unsigned long long)bc.imm);
                break;
              case BcOp::Store:
              case BcOp::StoreFlush:
              case BcOp::StoreFlushFence:
                out += format(" [%s], %s, %llu%s",
                              slot(bc.b).c_str(),
                              slot(bc.a).c_str(),
                              (unsigned long long)bc.imm,
                              (bc.flags & 1) ? " nt" : "");
                if (bc.op != BcOp::Store)
                    out += format(" %s",
                                  ir::flushKindName(
                                      (ir::FlushKind)bc.sub));
                if (bc.op == BcOp::StoreFlushFence)
                    out += format(" %s",
                                  ir::fenceKindName(
                                      (ir::FenceKind)bc.sub2));
                break;
              case BcOp::Flush:
                out += format(" [%s] %s", slot(bc.a).c_str(),
                              ir::flushKindName(
                                  (ir::FlushKind)bc.sub));
                break;
              case BcOp::Fence:
                out += format(" %s", ir::fenceKindName(
                                         (ir::FenceKind)bc.sub));
                break;
              case BcOp::Gep:
                out += format(" %s, %s + %s", slot(bc.dst).c_str(),
                              slot(bc.a).c_str(),
                              slot(bc.b).c_str());
                break;
              case BcOp::GepLoad:
                out += format(" %s, %s, %s + %s, %llu",
                              slot(bc.dst).c_str(),
                              slot(bc.dst2).c_str(),
                              slot(bc.a).c_str(),
                              slot(bc.b).c_str(),
                              (unsigned long long)bc.imm);
                break;
              case BcOp::GepStore:
                out += format(" %s, [%s + %s], %s, %llu%s",
                              slot(bc.dst).c_str(),
                              slot(bc.a).c_str(),
                              slot(bc.b).c_str(),
                              slot(bc.c).c_str(),
                              (unsigned long long)bc.imm,
                              (bc.flags & 1) ? " nt" : "");
                break;
              case BcOp::Bin:
                out += format(" %s, %s %s %s", slot(bc.dst).c_str(),
                              slot(bc.a).c_str(),
                              ir::binOpName((ir::BinOp)bc.sub),
                              slot(bc.b).c_str());
                break;
              case BcOp::Cmp:
                out += format(" %s, %s %s %s", slot(bc.dst).c_str(),
                              slot(bc.a).c_str(),
                              ir::cmpPredName((ir::CmpPred)bc.sub),
                              slot(bc.b).c_str());
                break;
              case BcOp::CmpBr:
                out += format(" %s, %s %s %s -> %u, %llu",
                              slot(bc.dst).c_str(),
                              slot(bc.a).c_str(),
                              ir::cmpPredName((ir::CmpPred)bc.sub),
                              slot(bc.b).c_str(), bc.c,
                              (unsigned long long)bc.imm);
                break;
              case BcOp::Select:
                out += format(" %s, %s ? %s : %s",
                              slot(bc.dst).c_str(),
                              slot(bc.a).c_str(),
                              slot(bc.b).c_str(),
                              slot(bc.c).c_str());
                break;
              case BcOp::Br:
                out += format(" -> %u", bc.a);
                break;
              case BcOp::CondBr:
                out += format(" %s -> %u, %u", slot(bc.a).c_str(),
                              bc.b, bc.c);
                break;
              case BcOp::Call: {
                const BcFunction &callee = prog.funcs[bc.a];
                out += format(" %s, @%s(", slot(bc.dst).c_str(),
                              callee.irFunc->name().c_str());
                for (uint64_t i = 0; i < bc.imm; i++)
                    out += format("%s%s", i ? ", " : "",
                                  slot(bf.callArgs[bc.b + i])
                                      .c_str());
                out += ")";
                break;
              }
              case BcOp::Ret:
                if (bc.a != bcNoSlot)
                    out += format(" %s", slot(bc.a).c_str());
                break;
              case BcOp::PmMap:
                out += format(" %s, \"%s\", %llu",
                              slot(bc.dst).c_str(),
                              bc.src->symbol().c_str(),
                              (unsigned long long)bc.imm);
                break;
              case BcOp::Memcpy:
              case BcOp::Memset:
                out += format(" [%s], %s, %s", slot(bc.a).c_str(),
                              slot(bc.b).c_str(),
                              slot(bc.c).c_str());
                break;
              case BcOp::DurPoint:
                out += format(" \"%s\"", bc.src->symbol().c_str());
                break;
              case BcOp::Print:
                out += format(" \"%s\", %s",
                              bc.src->symbol().c_str(),
                              slot(bc.a).c_str());
                break;
              case BcOp::ThreadSpawn: {
                const BcFunction &callee = prog.funcs[bc.a];
                out += format(" %s, @%s(", slot(bc.dst).c_str(),
                              callee.irFunc->name().c_str());
                for (uint64_t i = 0; i < bc.imm; i++)
                    out += format("%s%s", i ? ", " : "",
                                  slot(bf.callArgs[bc.b + i])
                                      .c_str());
                out += ")";
                break;
              }
              case BcOp::ThreadJoin:
                out += format(" %s, %s", slot(bc.dst).c_str(),
                              slot(bc.a).c_str());
                break;
              case BcOp::AtomicLoad:
                out += format(" %s, %s [%s], %llu",
                              slot(bc.dst).c_str(),
                              ir::memOrderName((ir::MemOrder)bc.sub),
                              slot(bc.a).c_str(),
                              (unsigned long long)bc.imm);
                break;
              case BcOp::AtomicStore:
                out += format(" %s [%s], %s, %llu",
                              ir::memOrderName((ir::MemOrder)bc.sub),
                              slot(bc.b).c_str(),
                              slot(bc.a).c_str(),
                              (unsigned long long)bc.imm);
                break;
              case BcOp::AtomicRmw:
                out += format(" %s, %s %s [%s], %s, %llu",
                              slot(bc.dst).c_str(),
                              ir::binOpName((ir::BinOp)bc.sub),
                              ir::memOrderName((ir::MemOrder)bc.sub2),
                              slot(bc.a).c_str(),
                              slot(bc.b).c_str(),
                              (unsigned long long)bc.imm);
                break;
              case BcOp::FallOff:
                out += format(" \"%s\"",
                              bf.fallOffBlocks[bc.imm].c_str());
                break;
            }
            out += "\n";
        }
    }
    return out;
}

} // namespace hippo::vm
