/**
 * @file
 * Unit tests for the PMIR interpreter: every arithmetic/compare
 * operator (parameterized), control flow, memory, calls, costs,
 * crash injection, trace capture, and the dynamic points-to table.
 */

#include <gtest/gtest.h>

#include "ir/builder.hh"
#include "pmem/pm_pool.hh"
#include "vm/vm.hh"

namespace hippo::test
{

using namespace hippo::ir;
using vm::Vm;
using vm::VmConfig;

namespace
{

/** Build @f(a, b) -> op(a, b) for a given binary operator. */
std::unique_ptr<Module>
makeBinModule(BinOp op)
{
    auto m = std::make_unique<Module>("bin");
    IRBuilder b(m.get());
    Function *f = m->addFunction("f", Type::Int);
    Argument *a = f->addParam(Type::Int, "a");
    Argument *c = f->addParam(Type::Int, "b");
    b.setInsertPoint(f->addBlock("entry"));
    b.createRet(b.createBin(op, a, c));
    return m;
}

std::unique_ptr<Module>
makeCmpModule(CmpPred pred)
{
    auto m = std::make_unique<Module>("cmp");
    IRBuilder b(m.get());
    Function *f = m->addFunction("f", Type::Int);
    Argument *a = f->addParam(Type::Int, "a");
    Argument *c = f->addParam(Type::Int, "b");
    b.setInsertPoint(f->addBlock("entry"));
    b.createRet(b.createCmp(pred, a, c));
    return m;
}

uint64_t
runBin(BinOp op, uint64_t a, uint64_t b)
{
    auto m = makeBinModule(op);
    pmem::PmPool pool(1 << 16);
    Vm machine(m.get(), &pool, {});
    return machine.run("f", {a, b}).returnValue;
}

uint64_t
runCmp(CmpPred pred, uint64_t a, uint64_t b)
{
    auto m = makeCmpModule(pred);
    pmem::PmPool pool(1 << 16);
    Vm machine(m.get(), &pool, {});
    return machine.run("f", {a, b}).returnValue;
}

} // namespace

/** One expected (op, lhs, rhs, result) quadruple. */
struct BinCase
{
    BinOp op;
    uint64_t lhs, rhs, expect;
};

/**
 * "udiv_42_5": the case's test-name suffix, which is also how gtest
 * prints it. gtest's default printer would dump the struct's raw
 * bytes, padding included, into the test listing.
 */
std::string
caseName(const BinCase &c)
{
    return std::string(binOpName(c.op)) + "_" + std::to_string(c.lhs) +
           "_" + std::to_string(c.rhs);
}

void
PrintTo(const BinCase &c, std::ostream *os)
{
    *os << caseName(c);
}

class VmBinOp : public ::testing::TestWithParam<BinCase>
{};

TEST_P(VmBinOp, ComputesExpectedValue)
{
    const BinCase &c = GetParam();
    EXPECT_EQ(runBin(c.op, c.lhs, c.rhs), c.expect);
}

INSTANTIATE_TEST_SUITE_P(
    AllOperators, VmBinOp,
    ::testing::Values(
        BinCase{BinOp::Add, 2, 3, 5},
        BinCase{BinOp::Add, ~0ULL, 1, 0}, // wraparound
        BinCase{BinOp::Sub, 3, 5, (uint64_t)-2},
        BinCase{BinOp::Mul, 7, 6, 42},
        BinCase{BinOp::UDiv, 42, 5, 8},
        BinCase{BinOp::URem, 42, 5, 2},
        BinCase{BinOp::And, 0b1100, 0b1010, 0b1000},
        BinCase{BinOp::Or, 0b1100, 0b1010, 0b1110},
        BinCase{BinOp::Xor, 0b1100, 0b1010, 0b0110},
        BinCase{BinOp::Shl, 1, 63, 1ULL << 63},
        BinCase{BinOp::Shl, 3, 2, 12},
        BinCase{BinOp::LShr, 1ULL << 63, 63, 1},
        BinCase{BinOp::LShr, 12, 2, 3}),
    [](const auto &info) { return caseName(info.param); });

struct CmpCase
{
    CmpPred pred;
    uint64_t lhs, rhs, expect;
};

/** "ult_3_4", as for BinCase. */
std::string
caseName(const CmpCase &c)
{
    return std::string(cmpPredName(c.pred)) + "_" +
           std::to_string(c.lhs) + "_" + std::to_string(c.rhs);
}

void
PrintTo(const CmpCase &c, std::ostream *os)
{
    *os << caseName(c);
}

class VmCmp : public ::testing::TestWithParam<CmpCase>
{};

TEST_P(VmCmp, ComputesExpectedValue)
{
    const CmpCase &c = GetParam();
    EXPECT_EQ(runCmp(c.pred, c.lhs, c.rhs), c.expect);
}

INSTANTIATE_TEST_SUITE_P(
    AllPredicates, VmCmp,
    ::testing::Values(
        CmpCase{CmpPred::Eq, 4, 4, 1}, CmpCase{CmpPred::Eq, 4, 5, 0},
        CmpCase{CmpPred::Ne, 4, 5, 1}, CmpCase{CmpPred::Ne, 4, 4, 0},
        CmpCase{CmpPred::Ult, 3, 4, 1},
        CmpCase{CmpPred::Ult, (uint64_t)-1, 4, 0}, // unsigned!
        CmpCase{CmpPred::Ule, 4, 4, 1},
        CmpCase{CmpPred::Ugt, 5, 4, 1},
        CmpCase{CmpPred::Uge, 4, 4, 1},
        CmpCase{CmpPred::Slt, (uint64_t)-1, 4, 1}, // signed!
        CmpCase{CmpPred::Sle, (uint64_t)-3, (uint64_t)-3, 1},
        CmpCase{CmpPred::Sgt, 4, (uint64_t)-1, 1},
        CmpCase{CmpPred::Sge, (uint64_t)-5, (uint64_t)-4, 0}),
    [](const auto &info) { return caseName(info.param); });

TEST(Vm, DivisionByZeroIsFatal)
{
    auto m = makeBinModule(BinOp::UDiv);
    pmem::PmPool pool(1 << 16);
    Vm machine(m.get(), &pool, {});
    EXPECT_EXIT(machine.run("f", {1, 0}),
                ::testing::ExitedWithCode(1), "division by zero");
}

TEST(Vm, LoopComputesSum)
{
    // sum 1..n via alloca-based loop counter
    auto m = std::make_unique<Module>("loop");
    IRBuilder b(m.get());
    Function *f = m->addFunction("sum", Type::Int);
    Argument *n = f->addParam(Type::Int, "n");
    BasicBlock *entry = f->addBlock("entry");
    BasicBlock *loop = f->addBlock("loop");
    BasicBlock *body = f->addBlock("body");
    BasicBlock *done = f->addBlock("done");
    b.setInsertPoint(entry);
    Instruction *iv = b.createAlloca(8);
    Instruction *acc = b.createAlloca(8);
    b.createStore(b.getInt(1), iv, 8);
    b.createStore(b.getInt(0), acc, 8);
    b.createBr(loop);
    b.setInsertPoint(loop);
    Instruction *i = b.createLoad(iv, 8);
    b.createCondBr(b.createCmp(CmpPred::Ule, i, n), body, done);
    b.setInsertPoint(body);
    b.createStore(b.createAdd(b.createLoad(acc, 8), i), acc, 8);
    b.createStore(b.createAdd(i, b.getInt(1)), iv, 8);
    b.createBr(loop);
    b.setInsertPoint(done);
    b.createRet(b.createLoad(acc, 8));

    pmem::PmPool pool(1 << 16);
    Vm machine(m.get(), &pool, {});
    EXPECT_EQ(machine.run("sum", {100}).returnValue, 5050u);
    EXPECT_EQ(machine.run("sum", {0}).returnValue, 0u);
}

TEST(Vm, SubByteStoresAndLoads)
{
    auto m = std::make_unique<Module>("bytes");
    IRBuilder b(m.get());
    Function *f = m->addFunction("f", Type::Int);
    b.setInsertPoint(f->addBlock("entry"));
    Instruction *buf = b.createAlloca(16);
    b.createStore(b.getInt(0x1122334455667788ULL), buf, 8);
    // Overwrite byte 0 with 0xFF via a 1-byte store.
    b.createStore(b.getInt(0x1FF), buf, 1); // low byte only
    Instruction *w = b.createLoad(buf, 8);
    Instruction *b2 = b.createLoad(b.createGep(buf, b.getInt(1)), 2);
    b.createPrint("word", w);
    b.createPrint("half", b2);
    b.createRet(w);

    pmem::PmPool pool(1 << 16);
    Vm machine(m.get(), &pool, {});
    EXPECT_EQ(machine.run("f").returnValue, 0x11223344556677FFULL);
    ASSERT_EQ(machine.outputs().size(), 2u);
    EXPECT_EQ(machine.outputs()[1].value, 0x6677u);
}

TEST(Vm, MemcpyAndMemsetAcrossSpaces)
{
    auto m = std::make_unique<Module>("mem");
    IRBuilder b(m.get());
    Function *f = m->addFunction("f", Type::Int);
    b.setInsertPoint(f->addBlock("entry"));
    Instruction *vol = b.createAlloca(64);
    Instruction *pm = b.createPmMap("r", 64);
    b.createMemset(vol, b.getInt(0xAB), b.getInt(32));
    b.createMemcpy(pm, vol, b.getInt(32));       // vol -> PM
    Instruction *back = b.createAlloca(64);
    b.createMemcpy(back, pm, b.getInt(32));      // PM -> vol
    b.createRet(b.createLoad(back, 8));

    pmem::PmPool pool(1 << 16);
    Vm machine(m.get(), &pool, {});
    EXPECT_EQ(machine.run("f").returnValue, 0xABABABABABABABABULL);
}

TEST(Vm, AllocasAreZeroedAndFreedOnReturn)
{
    auto m = std::make_unique<Module>("alloca");
    IRBuilder b(m.get());
    Function *leaf = m->addFunction("leaf", Type::Int);
    b.setInsertPoint(leaf->addBlock("entry"));
    Instruction *buf = b.createAlloca(32);
    Instruction *v = b.createLoad(buf, 8); // must be zero
    b.createStore(b.getInt(0xDEAD), buf, 8);
    b.createRet(v);

    Function *f = m->addFunction("f", Type::Int);
    b.setInsertPoint(f->addBlock("entry"));
    Instruction *first = b.createCall(leaf, {});
    Instruction *second = b.createCall(leaf, {});
    b.createRet(b.createAdd(first, second));

    pmem::PmPool pool(1 << 16);
    Vm machine(m.get(), &pool, {});
    // Both calls see zeroed memory even though the frame is reused.
    EXPECT_EQ(machine.run("f").returnValue, 0u);
}

TEST(Vm, SimulatedTimeAccumulatesAndFencesCost)
{
    auto m = std::make_unique<Module>("cost");
    IRBuilder b(m.get());
    Function *f = m->addFunction("f", Type::Void);
    b.setInsertPoint(f->addBlock("entry"));
    Instruction *pm = b.createPmMap("r", 64);
    b.createStore(b.getInt(1), pm, 8);
    b.createFlush(pm, FlushKind::Clwb);
    b.createFence(FenceKind::Sfence);
    b.createRet();

    pmem::PmPool pool(1 << 16);
    Vm machine(m.get(), &pool, {});
    auto r1 = machine.run("f");
    EXPECT_GT(r1.simNanos, 0);
    // The second run's fence has pending write-backs again (same
    // cost), so total time roughly doubles.
    auto r2 = machine.run("f");
    EXPECT_NEAR(r2.simNanos, r1.simNanos, r1.simNanos * 0.5);
    EXPECT_GT(machine.simNanos(), r1.simNanos);

    // A fence with pending write-backs costs more than an empty one.
    VmConfig vc;
    pmem::PmPool p2(1 << 16);
    Vm m2(m.get(), &p2, vc);
    double with_pending = m2.run("f").simNanos;
    EXPECT_GT(with_pending, vc.costs.fenceBaseNs);
}

TEST(Vm, CrashInjectionStopsAtNthDurPoint)
{
    auto m = std::make_unique<Module>("crash");
    IRBuilder b(m.get());
    Function *f = m->addFunction("f", Type::Int);
    b.setInsertPoint(f->addBlock("entry"));
    Instruction *pm = b.createPmMap("r", 64);
    b.createStore(b.getInt(1), pm, 8);
    b.createDurPoint("p0");
    b.createStore(b.getInt(2), pm, 8);
    b.createDurPoint("p1");
    b.createPrint("done", b.getInt(1));
    b.createRet(b.getInt(7));

    {
        pmem::PmPool pool(1 << 16);
        VmConfig vc;
        vc.crashAtDurPoint = 1;
        Vm machine(m.get(), &pool, vc);
        auto r = machine.run("f");
        EXPECT_TRUE(r.crashed);
        EXPECT_TRUE(machine.outputs().empty())
            << "execution must stop at the crash point";
        uint64_t v = 0;
        pool.load(pool.findRegion("r")->base,
                  reinterpret_cast<uint8_t *>(&v), 8);
        EXPECT_EQ(v, 2u) << "stores before the crash executed";
    }
    {
        pmem::PmPool pool(1 << 16);
        VmConfig vc; // no crash
        Vm machine(m.get(), &pool, vc);
        auto r = machine.run("f");
        EXPECT_FALSE(r.crashed);
        EXPECT_EQ(r.returnValue, 7u);
        EXPECT_EQ(machine.outputs().size(), 1u);
    }
}

TEST(Vm, TraceCapturesStacksAndObjects)
{
    auto m = std::make_unique<Module>("trace");
    IRBuilder b(m.get());
    Function *leaf = m->addFunction("leaf", Type::Void);
    Argument *p = leaf->addParam(Type::Ptr, "p");
    b.setInsertPoint(leaf->addBlock("entry"));
    b.setLoc("t.c", 3);
    b.createStore(b.getInt(9), p, 8);
    b.createRet();

    Function *f = m->addFunction("main", Type::Void);
    b.setInsertPoint(f->addBlock("entry"));
    b.setLoc("t.c", 9);
    Instruction *pm = b.createPmMap("r", 64);
    b.createCall(leaf, {pm});
    b.createRet();

    pmem::PmPool pool(1 << 16);
    VmConfig vc;
    vc.traceEnabled = true;
    Vm machine(m.get(), &pool, vc);
    machine.run("main");

    const trace::Trace &tr = machine.trace();
    const trace::Event *store_ev = nullptr;
    for (const auto &ev : tr.events()) {
        if (ev.kind == trace::EventKind::Store)
            store_ev = &ev;
    }
    ASSERT_NE(store_ev, nullptr);
    EXPECT_TRUE(store_ev->isPm);
    ASSERT_EQ(store_ev->stack.size(), 2u);
    EXPECT_EQ(store_ev->stack[0].function, "leaf");
    EXPECT_EQ(store_ev->stack[0].file, "t.c");
    EXPECT_EQ(store_ev->stack[0].line, 3);
    EXPECT_EQ(store_ev->stack[1].function, "main");
    ASSERT_NE(store_ev->objectId, ~0u);
    EXPECT_EQ(tr.objects()[store_ev->objectId].site, "pm:r");
    EXPECT_TRUE(tr.objects()[store_ev->objectId].isPm);

    // The dynamic points-to table saw the call argument binding.
    const auto &objs = machine.dynPointsTo().lookup(
        "leaf", vm::DynPointsTo::argKey(0));
    EXPECT_EQ(objs.size(), 1u);
}

TEST(Vm, TracingDisabledRecordsNothing)
{
    auto m = std::make_unique<Module>("quiet");
    IRBuilder b(m.get());
    Function *f = m->addFunction("f", Type::Void);
    b.setInsertPoint(f->addBlock("entry"));
    Instruction *pm = b.createPmMap("r", 64);
    b.createStore(b.getInt(1), pm, 8);
    b.createRet();

    pmem::PmPool pool(1 << 16);
    Vm machine(m.get(), &pool, {});
    machine.run("f");
    EXPECT_TRUE(machine.trace().empty());
}

TEST(Vm, StepLimitGuardsInfiniteLoops)
{
    auto m = std::make_unique<Module>("spin");
    IRBuilder b(m.get());
    Function *f = m->addFunction("f", Type::Void);
    BasicBlock *entry = f->addBlock("entry");
    b.setInsertPoint(entry);
    b.createBr(entry);

    pmem::PmPool pool(1 << 16);
    VmConfig vc;
    vc.maxSteps = 1000;
    Vm machine(m.get(), &pool, vc);
    EXPECT_EXIT(machine.run("f"), ::testing::ExitedWithCode(1),
                "step limit");
}

TEST(Vm, OpcodeStatsCountExecutions)
{
    auto m = std::make_unique<Module>("stats");
    IRBuilder b(m.get());
    Function *f = m->addFunction("f", Type::Void);
    b.setInsertPoint(f->addBlock("entry"));
    Instruction *pm = b.createPmMap("r", 64);
    b.createStore(b.getInt(1), pm, 8);
    b.createStore(b.getInt(2), pm, 8);
    b.createFlush(pm, FlushKind::Clwb);
    b.createFence(FenceKind::Sfence);
    b.createRet();

    pmem::PmPool pool(1 << 16);
    Vm machine(m.get(), &pool, {});
    machine.run("f");
    machine.run("f");
    const auto &counts = machine.opcodeCounts();
    EXPECT_EQ(counts.at(Opcode::Store), 4u);
    EXPECT_EQ(counts.at(Opcode::Flush), 2u);
    EXPECT_EQ(counts.at(Opcode::Fence), 2u);
    EXPECT_EQ(counts.at(Opcode::Ret), 2u);
    std::string stats = machine.statsString();
    EXPECT_NE(stats.find("store"), std::string::npos);
    EXPECT_NE(stats.find("PM:"), std::string::npos);
}

TEST(Vm, RecursionComputesFactorial)
{
    auto m = std::make_unique<Module>("fact");
    IRBuilder b(m.get());
    Function *f = m->addFunction("fact", Type::Int);
    Argument *n = f->addParam(Type::Int, "n");
    BasicBlock *entry = f->addBlock("entry");
    BasicBlock *base = f->addBlock("base");
    BasicBlock *rec = f->addBlock("rec");
    b.setInsertPoint(entry);
    b.createCondBr(b.createCmp(CmpPred::Ule, n, b.getInt(1)), base,
                   rec);
    b.setInsertPoint(base);
    b.createRet(b.getInt(1));
    b.setInsertPoint(rec);
    Instruction *sub =
        b.createCall(f, {b.createSub(n, b.getInt(1))});
    b.createRet(b.createMul(n, sub));

    pmem::PmPool pool(1 << 16);
    Vm machine(m.get(), &pool, {});
    EXPECT_EQ(machine.run("fact", {10}).returnValue, 3628800u);
}

TEST(Vm, VolatileOutOfBoundsIsFatal)
{
    auto m = std::make_unique<Module>("oob");
    IRBuilder b(m.get());
    Function *f = m->addFunction("f", Type::Void);
    b.setInsertPoint(f->addBlock("entry"));
    Instruction *buf = b.createAlloca(8);
    // Past the volatile arena but below the PM window.
    Instruction *bad =
        b.createGep(buf, b.getInt(0x08000000ULL));
    b.createStore(b.getInt(1), bad, 8);
    b.createRet();

    pmem::PmPool pool(1 << 16);
    Vm machine(m.get(), &pool, {});
    EXPECT_EXIT(machine.run("f"), ::testing::ExitedWithCode(1),
                "out of bounds");
}

} // namespace hippo::test
