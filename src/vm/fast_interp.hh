/**
 * @file
 * Direct-threaded interpreter over the flat bytecode
 * (src/vm/bytecode.hh). One FastInterp is constructed per Vm::run
 * and shares the Vm's entire execution state (pool, volatile arena,
 * trace, outputs, watchdog counters, simulated clock) as a friend,
 * and charges every IR instruction once, in program order: its
 * RunResult, trace, probe firing points and accumulated costs are
 * the IR's step-by-step semantics, held byte-identical to the tree
 * walker's recorded verdicts (tests/golden/tree_walker_verdicts.txt).
 *
 * Dispatch uses computed goto on GCC/Clang when the build enables
 * HIPPO_COMPUTED_GOTO (the default; see the top-level
 * CMakeLists.txt option) and a portable switch loop otherwise.
 * Hot-path counters (per-opcode, flush/fence kinds) accumulate in
 * flat arrays and merge into the Vm's maps when the FastInterp is
 * destroyed — including during unwinding on crash/watchdog signals,
 * which Vm::run catches after the merge has happened.
 */

#ifndef HIPPO_VM_FAST_INTERP_HH
#define HIPPO_VM_FAST_INTERP_HH

#include <cstdint>
#include <vector>

#include "vm/bytecode.hh"

namespace hippo::trace
{
struct StackFrame;
} // namespace hippo::trace

namespace hippo::vm
{

class Vm;

/** Executes one Vm::run over a compiled BcProgram. */
class FastInterp
{
  public:
    FastInterp(Vm &vm, const BcProgram &prog);
    ~FastInterp();

    FastInterp(const FastInterp &) = delete;
    FastInterp &operator=(const FastInterp &) = delete;

    /** Run @p f (must be in the compiled module) with @p args. */
    uint64_t call(const ir::Function *f,
                  const std::vector<uint64_t> &args);

  private:
    /** Call-chain record for trace stack capture. */
    struct Frame
    {
        const ir::Function *func;
        const Frame *parent;
        const ir::Instruction *callSite;
    };

    uint64_t execFunc(const BcFunction &bf, const uint64_t *args,
                      size_t nargs, const Frame *parent,
                      const ir::Instruction *call_site, int depth);

    /** Per-step prologue: step count, watchdog, crash injection,
     *  probes, opcode census — in that order, once per IR instruction.
     *  Fused handlers call this once per component instruction. */
    void stepPre(ir::Opcode op);
    void slowStepChecks();
    [[noreturn]] void stepLimitExceeded();

    void storeBody(const Frame &frame, const ir::Instruction &in,
                   uint64_t value, uint64_t addr, uint64_t size,
                   bool non_temporal);
    void flushBody(const Frame &frame, const ir::Instruction &in,
                   uint64_t addr, ir::FlushKind kind);
    void fenceBody(const Frame &frame, const ir::Instruction &in,
                   ir::FenceKind kind);
    uint64_t pmMapBody(const Frame &frame,
                       const ir::Instruction &in);

    std::vector<trace::StackFrame>
    captureStack(const Frame &frame,
                 const ir::Instruction &instr) const;

    Vm &vm_;
    const BcProgram &prog_;
    bool slowStep_ = false; ///< any per-step slow knob is active

    /** Frame register file: one contiguous arena, bump-allocated per
     *  activation. Handlers re-fetch their base pointer after calls
     *  (growth may reallocate). */
    std::vector<uint64_t> regArena_;
    std::vector<uint64_t> argScratch_;

    uint64_t stepsAtCtor_ = 0;
    uint64_t dispatches_ = 0;
    uint64_t superExec_ = 0;
    uint64_t opCounts_[numIrOpcodes] = {};
    uint64_t flushCounts_[3] = {};
    uint64_t fenceCounts_[2] = {};
};

} // namespace hippo::vm

#endif // HIPPO_VM_FAST_INTERP_HH
