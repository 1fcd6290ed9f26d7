/**
 * @file
 * Implementations for the PMIR core classes (Value, Instruction,
 * BasicBlock, Function, Module).
 */

#include "ir/module.hh"

#include "support/logging.hh"
#include "support/strings.hh"

namespace hippo::ir
{

const char *
typeName(Type t)
{
    switch (t) {
      case Type::Void: return "void";
      case Type::Int: return "i64";
      case Type::Ptr: return "ptr";
    }
    return "?";
}

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Alloca: return "alloca";
      case Opcode::Load: return "load";
      case Opcode::Store: return "store";
      case Opcode::Flush: return "flush";
      case Opcode::Fence: return "fence";
      case Opcode::Gep: return "gep";
      case Opcode::Bin: return "bin";
      case Opcode::Cmp: return "cmp";
      case Opcode::Select: return "select";
      case Opcode::Br: return "br";
      case Opcode::CondBr: return "condbr";
      case Opcode::Call: return "call";
      case Opcode::Ret: return "ret";
      case Opcode::PmMap: return "pmmap";
      case Opcode::Memcpy: return "memcpy";
      case Opcode::Memset: return "memset";
      case Opcode::DurPoint: return "durpoint";
      case Opcode::Print: return "print";
      case Opcode::ThreadSpawn: return "thread_spawn";
      case Opcode::ThreadJoin: return "thread_join";
      case Opcode::AtomicLoad: return "atomic_load";
      case Opcode::AtomicStore: return "atomic_store";
      case Opcode::AtomicRmw: return "atomic_rmw";
    }
    return "?";
}

const char *
memOrderName(MemOrder o)
{
    switch (o) {
      case MemOrder::Relaxed: return "relaxed";
      case MemOrder::Acquire: return "acquire";
      case MemOrder::Release: return "release";
      case MemOrder::AcqRel: return "acq_rel";
      case MemOrder::SeqCst: return "seq_cst";
    }
    return "?";
}

bool
parseMemOrder(const std::string &word, MemOrder &out)
{
    for (auto o : {MemOrder::Relaxed, MemOrder::Acquire,
                   MemOrder::Release, MemOrder::AcqRel,
                   MemOrder::SeqCst}) {
        if (word == memOrderName(o)) {
            out = o;
            return true;
        }
    }
    return false;
}

const char *
flushKindName(FlushKind k)
{
    switch (k) {
      case FlushKind::Clwb: return "clwb";
      case FlushKind::ClflushOpt: return "clflushopt";
      case FlushKind::Clflush: return "clflush";
    }
    return "?";
}

const char *
fenceKindName(FenceKind k)
{
    switch (k) {
      case FenceKind::Sfence: return "sfence";
      case FenceKind::Mfence: return "mfence";
    }
    return "?";
}

const char *
binOpName(BinOp op)
{
    switch (op) {
      case BinOp::Add: return "add";
      case BinOp::Sub: return "sub";
      case BinOp::Mul: return "mul";
      case BinOp::UDiv: return "udiv";
      case BinOp::URem: return "urem";
      case BinOp::And: return "and";
      case BinOp::Or: return "or";
      case BinOp::Xor: return "xor";
      case BinOp::Shl: return "shl";
      case BinOp::LShr: return "lshr";
    }
    return "?";
}

const char *
cmpPredName(CmpPred p)
{
    switch (p) {
      case CmpPred::Eq: return "eq";
      case CmpPred::Ne: return "ne";
      case CmpPred::Ult: return "ult";
      case CmpPred::Ule: return "ule";
      case CmpPred::Ugt: return "ugt";
      case CmpPred::Uge: return "uge";
      case CmpPred::Slt: return "slt";
      case CmpPred::Sle: return "sle";
      case CmpPred::Sgt: return "sgt";
      case CmpPred::Sge: return "sge";
    }
    return "?";
}

std::string
SourceLoc::str() const
{
    if (!valid())
        return "<unknown>";
    return format("%s:%d", file.c_str(), line);
}

std::string
Constant::displayName() const
{
    if (type() == Type::Ptr)
        return value() == 0 ? "null" : format("ptr:%llu",
                                              (unsigned long long)value());
    return format("%llu", (unsigned long long)value());
}

std::string
Instruction::displayName() const
{
    return format("%%v%u", id_);
}

Function *
Instruction::function() const
{
    return parent_ ? parent_->parent() : nullptr;
}

bool
Instruction::isTerminator() const
{
    return op_ == Opcode::Br || op_ == Opcode::CondBr ||
           op_ == Opcode::Ret;
}

Instruction *
BasicBlock::terminator() const
{
    if (instrs_.empty())
        return nullptr;
    Instruction *last = instrs_.back().get();
    return last->isTerminator() ? last : nullptr;
}

Instruction *
BasicBlock::append(std::unique_ptr<Instruction> instr)
{
    instr->setParent(this);
    instrs_.push_back(std::move(instr));
    return instrs_.back().get();
}

Instruction *
BasicBlock::insert(iterator pos, std::unique_ptr<Instruction> instr)
{
    instr->setParent(this);
    auto it = instrs_.insert(pos, std::move(instr));
    return it->get();
}

BasicBlock::iterator
BasicBlock::iteratorTo(Instruction *instr)
{
    for (auto it = instrs_.begin(); it != instrs_.end(); ++it) {
        if (it->get() == instr)
            return it;
    }
    hippo_panic("instruction %%v%u not in block %s", instr->id(),
                name_.c_str());
}

void
BasicBlock::erase(Instruction *instr)
{
    instrs_.erase(iteratorTo(instr));
}

Argument *
Function::addParam(Type type, std::string name)
{
    hippo_assert(type != Type::Void, "void parameter");
    params_.push_back(std::make_unique<Argument>(
        type, std::move(name), (unsigned)params_.size(), this));
    return params_.back().get();
}

BasicBlock *
Function::addBlock(std::string name)
{
    blocks_.push_back(
        std::make_unique<BasicBlock>(std::move(name), this));
    return blocks_.back().get();
}

BasicBlock *
Function::findBlock(const std::string &name) const
{
    for (const auto &bb : blocks_) {
        if (bb->name() == name)
            return bb.get();
    }
    return nullptr;
}

Instruction *
Function::findInstr(uint32_t id) const
{
    for (const auto &bb : blocks_) {
        for (const auto &instr : *bb) {
            if (instr->id() == id)
                return instr.get();
        }
    }
    return nullptr;
}

size_t
Function::instrCount() const
{
    size_t n = 0;
    for (const auto &bb : blocks_)
        n += bb->size();
    return n;
}

Function *
Module::addFunction(std::string name, Type return_type)
{
    hippo_assert(!findFunction(name), "duplicate function");
    functions_.push_back(
        std::make_unique<Function>(name, return_type, this));
    Function *f = functions_.back().get();
    byName_[f->name()] = f;
    return f;
}

Function *
Module::findFunction(const std::string &name) const
{
    auto it = byName_.find(name);
    return it == byName_.end() ? nullptr : it->second;
}

bool
moduleIsThreaded(const Module &m)
{
    for (const auto &f : m.functions())
        for (const auto &bb : f->blocks())
            for (const auto &in : *bb)
                switch (in->op()) {
                  case Opcode::ThreadSpawn:
                  case Opcode::ThreadJoin:
                  case Opcode::AtomicLoad:
                  case Opcode::AtomicStore:
                  case Opcode::AtomicRmw:
                    return true;
                  default:
                    break;
                }
    return false;
}

Constant *
Module::getInt(uint64_t value)
{
    auto key = std::make_pair((int)Type::Int, value);
    auto it = constants_.find(key);
    if (it == constants_.end()) {
        it = constants_
                 .emplace(key,
                          std::make_unique<Constant>(Type::Int, value))
                 .first;
    }
    return it->second.get();
}

Constant *
Module::getNullPtr()
{
    auto key = std::make_pair((int)Type::Ptr, (uint64_t)0);
    auto it = constants_.find(key);
    if (it == constants_.end()) {
        it = constants_
                 .emplace(key, std::make_unique<Constant>(Type::Ptr, 0))
                 .first;
    }
    return it->second.get();
}

size_t
Module::instrCount() const
{
    size_t n = 0;
    for (const auto &f : functions_)
        n += f->instrCount();
    return n;
}

} // namespace hippo::ir
