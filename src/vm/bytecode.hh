/**
 * @file
 * Flat linear bytecode for the PMIR fast interpreter.
 *
 * Walking the IR would re-resolve every operand (constant? argument?
 * instruction id?) through a switch on every execution and walk
 * std::list iterators between instructions. The bytecode compiler
 * performs that resolution exactly once: each ir::Function
 * is lowered to a dense vector of fixed-size BcInstr records whose
 * operands are frame-slot indices into one flat register file
 * (instruction results, then arguments, then a deduplicated constant
 * pool), and whose branch targets are pre-patched instruction
 * indices. Adjacent instructions forming hot idioms are fused into
 * superinstructions (store+flush[+fence], gep+load, gep+store,
 * cmp+condbr); fused handlers still execute the full per-component
 * step prologue, so probes, watchdog budgets, crash injection, and
 * every counter advance once per IR instruction, byte-identically to
 * the recorded tree-walker verdicts (DESIGN.md "Bytecode fast path").
 *
 * The compiler is a pure function of the Module: it never mutates
 * the IR, and the emitted program holds const pointers back into it
 * (for trace capture and symbols). Mutating the Module after
 * compilation invalidates the program — the Vm compiles lazily on
 * its first run and callers that rewrite IR (the fixer, the
 * flush optimizer) always verify through fresh Vm instances.
 */

#ifndef HIPPO_VM_BYTECODE_HH
#define HIPPO_VM_BYTECODE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/instruction.hh"

namespace hippo::ir
{
class Function;
class Module;
} // namespace hippo::ir

namespace hippo::vm
{

/** Number of PMIR opcodes (flat-array sizing for hot-path counters). */
constexpr unsigned numIrOpcodes = (unsigned)ir::Opcode::AtomicRmw + 1;

/**
 * Bytecode opcodes: the PMIR set one-to-one, then the
 * superinstructions, then the fell-off-block guard.
 */
enum class BcOp : uint8_t
{
    Alloca, Load, Store, Flush, Fence, Gep, Bin, Cmp, Select,
    Br, CondBr, Call, Ret, PmMap, Memcpy, Memset, DurPoint, Print,
    ThreadSpawn, ThreadJoin, AtomicLoad, AtomicStore, AtomicRmw,

    StoreFlush,      ///< store + flush of the same address value
    StoreFlushFence, ///< store + flush + fence (the durability idiom)
    GepLoad,         ///< gep + load through the fresh pointer
    GepStore,        ///< gep + store through the fresh pointer
    CmpBr,           ///< cmp + condbr on the fresh flag

    FallOff, ///< block ended without a terminator (verifier escape)
};

constexpr unsigned numBcOps = (unsigned)BcOp::FallOff + 1;

/** Printable mnemonic of a bytecode opcode. */
const char *bcOpName(BcOp op);

/** Slot value meaning "no operand / no result". */
constexpr uint32_t bcNoSlot = ~0u;

/**
 * One fixed-size bytecode instruction. Operand fields a/b/c hold
 * frame-slot indices except where noted; dst/dst2 hold result slots
 * (bcNoSlot for none). src/src2/src3 point at the originating IR
 * instructions (fused components in program order) for trace
 * capture, symbols, and dynamic points-to keys.
 *
 * Per-opcode layout:
 *   Alloca   dst=result            imm=accessSize
 *   Load     a=ptr dst=result      imm=accessSize
 *   Store    a=value b=ptr         imm=accessSize flags&1=nonTemporal
 *   Flush    a=ptr                 sub=FlushKind
 *   Fence                          sub=FenceKind
 *   Gep      a=base b=off dst=result
 *   Bin      a=l b=r dst=result    sub=BinOp
 *   Cmp      a=l b=r dst=result    sub=CmpPred
 *   Select   a=cond b=tval c=fval dst=result
 *   Br       a=target pc
 *   CondBr   a=cond b=true pc c=false pc
 *   Call     a=callee index b=callArgs offset imm=#args dst=result?
 *   Ret      a=value slot or bcNoSlot
 *   PmMap    dst=result            imm=regionSize (symbol via src)
 *   Memcpy   a=dst b=src c=len
 *   Memset   a=dst b=byte c=len
 *   DurPoint                       (symbol via src)
 *   Print    a=value               (label via src)
 *   ThreadSpawn a=callee index b=callArgs offset imm=#args dst=tid
 *   ThreadJoin  a=tid dst=result
 *   AtomicLoad  a=ptr dst=result   imm=accessSize sub=MemOrder
 *   AtomicStore a=value b=ptr      imm=accessSize sub=MemOrder
 *   AtomicRmw   a=ptr b=value dst=old imm=size sub=BinOp sub2=MemOrder
 *   StoreFlush       a=value b=ptr imm=size flags&1=nt sub=FlushKind
 *   StoreFlushFence  as StoreFlush + sub2=FenceKind
 *   GepLoad  a=base b=off dst=gep dst2=load imm=accessSize
 *   GepStore a=base b=off c=value dst=gep imm=size flags&1=nt
 *   CmpBr    a=l b=r dst=cmp sub=pred c=true pc imm=false pc
 *   FallOff  imm=index into BcFunction::fallOffBlocks
 */
struct BcInstr
{
    BcOp op = BcOp::FallOff;
    uint8_t sub = 0;   ///< BinOp / CmpPred / FlushKind / FenceKind
    uint8_t sub2 = 0;  ///< StoreFlushFence: FenceKind
    uint8_t flags = 0; ///< bit 0: non-temporal store
    uint32_t a = bcNoSlot;
    uint32_t b = bcNoSlot;
    uint32_t c = bcNoSlot;
    uint32_t dst = bcNoSlot;
    uint32_t dst2 = bcNoSlot;
    uint64_t imm = 0;
    const ir::Instruction *src = nullptr;
    const ir::Instruction *src2 = nullptr;
    const ir::Instruction *src3 = nullptr;
};

/** One compiled function. */
struct BcFunction
{
    const ir::Function *irFunc = nullptr;
    std::vector<BcInstr> code;

    /**
     * Frame-slot layout: [0, numRegs) instruction results (slot ==
     * instruction id), [argBase, argBase+numParams) arguments,
     * [constBase, constBase+constPool.size()) the constant pool,
     * copied in at frame entry so every operand is one indexed read.
     */
    uint32_t numRegs = 0;
    uint32_t argBase = 0;
    uint32_t constBase = 0;
    uint32_t frameSlots = 0;
    std::vector<uint64_t> constPool;

    /** Flattened argument-slot lists for Call instructions. */
    std::vector<uint32_t> callArgs;

    /** Block names for FallOff diagnostics. */
    std::vector<std::string> fallOffBlocks;

    uint32_t irInstrs = 0; ///< IR instructions covered
    uint32_t fused = 0;    ///< superinstructions emitted
};

/** Compiler options. */
struct BcOptions
{
    /**
     * Fuse superinstructions. The Vm disables fusion when tracing:
     * trace events interleave with probe callbacks per component
     * instruction, and the un-fused encoding keeps that path
     * trivially identical to the oracle.
     */
    bool enableSuper = true;
};

/** A compiled module. */
struct BcProgram
{
    std::vector<BcFunction> funcs;
    std::map<const ir::Function *, uint32_t> indexOf;
    BcOptions options;

    uint64_t totalInstrs = 0; ///< IR instructions compiled
    uint64_t totalCode = 0;   ///< bytecode records emitted
    uint64_t totalFused = 0;  ///< superinstructions emitted

    bool threaded = false; ///< ir::moduleIsThreaded of the source
};

/**
 * One-pass compiler: resolve operands to frame slots, lay blocks out
 * in function order, patch branch targets, and fuse
 * superinstructions (when enabled) under the adjacency rules
 * documented in DESIGN.md. Deterministic: same module and options,
 * same program.
 */
BcProgram compileModule(const ir::Module &m, const BcOptions &opts = {});

/** compileModule calls so far in this process (a test probe for
 *  "compile once per exploration"). */
uint64_t compileModuleCalls();

/** Stable textual listing (golden-tested; see tests/golden/). */
std::string disassemble(const BcProgram &prog);

} // namespace hippo::vm

#endif // HIPPO_VM_BYTECODE_HH
