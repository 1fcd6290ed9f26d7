/**
 * @file
 * Unit tests for the Hippocrates fixer's individual mechanisms:
 * fence-after-flush anchoring, fix reduction, the flush-range helper,
 * clone reuse, the parameterless-call-site −∞ rule, the hoist bound
 * (candidates stop at the function called by I's function), and
 * post-fix verification.
 */

#include <gtest/gtest.h>

#include "test_util.hh"

namespace hippo::test
{

using namespace hippo::ir;
using core::FixKind;
using core::FixerConfig;
using pmcheck::BugKind;

namespace
{

/** Count instructions of a given opcode in a function. */
size_t
countOps(const Function *f, Opcode op)
{
    size_t n = 0;
    for (const auto &bb : f->blocks()) {
        for (const auto &instr : *bb)
            n += instr->op() == op;
    }
    return n;
}

} // namespace

TEST(Fixer, MissingFenceAnchorsAfterExistingFlush)
{
    // Listing 3: store + CLWB, no SFENCE. The fix must be a single
    // fence right after the existing flush.
    auto m = std::make_unique<Module>("listing3");
    IRBuilder b(m.get());
    Function *f = m->addFunction("foo", Type::Void);
    b.setInsertPoint(f->addBlock("entry"));
    b.setLoc("l3.c", 2);
    Instruction *pm = b.createPmMap("pool", 64);
    b.createStore(b.getInt(1), pm, 8);
    b.setLoc("l3.c", 3);
    Instruction *flush = b.createFlush(pm, FlushKind::Clwb);
    b.setLoc("l3.c", 7);
    b.createDurPoint("crash");
    b.createRet();

    auto res = runPipeline(m.get(), "foo");
    ASSERT_EQ(res.before.bugs.size(), 1u);
    EXPECT_EQ(res.before.bugs[0].kind, BugKind::MissingFence);
    ASSERT_EQ(res.summary.fixes.size(), 1u);
    EXPECT_EQ(res.summary.fixes[0].kind, FixKind::IntraFence);
    EXPECT_EQ(res.summary.fixes[0].anchorInstrId, flush->id());
    EXPECT_EQ(res.summary.flushesInserted, 0u);
    EXPECT_EQ(res.summary.fencesInserted, 1u);
    EXPECT_TRUE(res.after.clean());

    // The fence must sit directly after the flush.
    auto it = f->entry()->iteratorTo(flush);
    ++it;
    EXPECT_EQ((*it)->op(), Opcode::Fence);
}

TEST(Fixer, ReductionMergesSameAnchorBugs)
{
    // The same unflushed store observed at two durability points on
    // the same call path: one fix, not two.
    auto m = std::make_unique<Module>("merge");
    IRBuilder b(m.get());
    Function *f = m->addFunction("foo", Type::Void);
    b.setInsertPoint(f->addBlock("entry"));
    Instruction *pm = b.createPmMap("pool", 64);
    b.createStore(b.getInt(1), pm, 8);
    b.createFence(FenceKind::Sfence);
    b.createDurPoint("p0");
    b.createDurPoint("p1");
    b.createRet();

    auto res = runPipeline(m.get(), "foo");
    ASSERT_EQ(res.before.bugs.size(), 1u); // detector dedups too
    EXPECT_EQ(res.summary.fixes.size(), 1u);
    EXPECT_TRUE(res.after.clean());
}

TEST(Fixer, ReductionDisabledStillFixesEverything)
{
    auto m = buildListing5(true);
    FixerConfig cfg;
    cfg.enableReduction = false;
    auto res = runPipeline(m.get(), "foo", cfg);
    EXPECT_TRUE(res.after.clean());
}

TEST(Fixer, MemcpyBugGetsFlushRangeHelper)
{
    // A memcpy of a dynamic length cannot be fixed with a single
    // CLWB; Hippocrates synthesizes @__hippo_flush_range.
    auto m = std::make_unique<Module>("range");
    IRBuilder b(m.get());
    Function *f = m->addFunction("foo", Type::Void);
    Argument *len = f->addParam(Type::Int, "len");
    b.setInsertPoint(f->addBlock("entry"));
    Instruction *pm = b.createPmMap("pool", 4096);
    Instruction *src = b.createAlloca(1024);
    b.createMemcpy(pm, src, len);
    b.createFence(FenceKind::Sfence);
    b.createDurPoint("commit");
    b.createRet();

    pmem::PmPool pool(1 << 20);
    vm::VmConfig vc;
    vc.traceEnabled = true;
    vm::Vm machine(m.get(), &pool, vc);
    machine.run("foo", {900}); // spans 15 cache lines

    auto report = pmcheck::analyze(machine.trace());
    ASSERT_EQ(report.bugs.size(), 1u);
    core::Fixer fixer(m.get());
    fixer.fix(report, machine.trace(), &machine.dynPointsTo());

    Function *helper =
        m->findFunction(core::flushRangeHelperName);
    ASSERT_NE(helper, nullptr);
    EXPECT_GT(countOps(helper, Opcode::Flush), 0u);

    // Verify the repaired program persists the whole range across
    // several lengths, including unaligned ones.
    for (uint64_t n : {1ull, 63ull, 64ull, 65ull, 900ull, 1024ull}) {
        pmem::PmPool p(1 << 20);
        vm::Vm v(m.get(), &p, {});
        v.run("foo", {n});
        EXPECT_TRUE(p.isPersisted(p.findRegion("pool")->base, n))
            << "len " << n;
    }
}

TEST(Fixer, ParameterlessCallSiteGetsMinusInfinity)
{
    // The PM pointer is obtained *inside* the helper (global-style
    // region mapping), and the helper takes no pointer arguments:
    // hoisting must not happen (§4.3's −∞ rule), even though a call
    // site exists on the stack.
    auto m = std::make_unique<Module>("noargs");
    IRBuilder b(m.get());
    Function *writer = m->addFunction("writer", Type::Void);
    b.setInsertPoint(writer->addBlock("entry"));
    Instruction *pm = b.createPmMap("pool", 64);
    b.createStore(b.getInt(1), pm, 8);
    b.createRet();

    Function *f = m->addFunction("foo", Type::Void);
    b.setInsertPoint(f->addBlock("entry"));
    b.createCall(writer, {});
    b.createFence(FenceKind::Sfence);
    b.createDurPoint("commit");
    b.createRet();

    auto res = runPipeline(m.get(), "foo");
    ASSERT_EQ(res.summary.fixes.size(), 1u);
    EXPECT_NE(res.summary.fixes[0].kind, FixKind::Interprocedural);
    EXPECT_EQ(res.summary.fixes[0].function, "writer");
    EXPECT_TRUE(res.after.clean());
    EXPECT_EQ(m->findFunction("writer_PM"), nullptr);
}

TEST(Fixer, CloneReuseAcrossFixes)
{
    // Two call sites hoisting into the same helper share one clone
    // (the code-bloat mitigation of §6.4).
    auto m = std::make_unique<Module>("reuse");
    IRBuilder b(m.get());
    Function *helper = m->addFunction("helper", Type::Void);
    Argument *hp = helper->addParam(Type::Ptr, "p");
    b.setInsertPoint(helper->addBlock("entry"));
    b.createStore(b.getInt(5), hp, 8);
    b.createRet();

    Function *f = m->addFunction("foo", Type::Void);
    b.setInsertPoint(f->addBlock("entry"));
    // Two volatile callers and two PM callers: the helper's
    // parameter scores 0 (2 PM − 2 non-PM), each PM call site
    // scores +1, so both PM sites hoist.
    Instruction *vol = b.createAlloca(64);
    Instruction *vol2 = b.createAlloca(64);
    Instruction *pm1 = b.createPmMap("pool1", 64);
    Instruction *pm2 = b.createPmMap("pool2", 64);
    b.createCall(helper, {vol});
    b.createCall(helper, {vol2});
    b.createCall(helper, {pm1});
    b.createCall(helper, {pm2});
    b.createFence(FenceKind::Sfence);
    b.createDurPoint("commit");
    b.createRet();

    auto res = runPipeline(m.get(), "foo");
    EXPECT_EQ(res.summary.interproceduralCount(), 2u);
    EXPECT_EQ(res.summary.functionsCloned, 1u)
        << "one clone shared by both fixes";
    EXPECT_NE(m->findFunction("helper_PM"), nullptr);
    EXPECT_EQ(m->findFunction("helper_PM_2"), nullptr);
    EXPECT_TRUE(res.after.clean());

    // The volatile calls still target the original helper.
    size_t orig_calls = 0, pm_calls = 0;
    for (const auto &bb : f->blocks()) {
        for (const auto &instr : *bb) {
            if (instr->op() != Opcode::Call)
                continue;
            if (instr->callee()->name() == "helper")
                orig_calls++;
            if (instr->callee()->name() == "helper_PM")
                pm_calls++;
        }
    }
    EXPECT_EQ(orig_calls, 2u);
    EXPECT_EQ(pm_calls, 2u);
}

TEST(Fixer, HoistBoundStopsAtFunctionCalledByI)
{
    // I lives in mid(); candidates may not include mid's call site
    // in outer() (which would need an extra fence before I, §4.2.4).
    auto m = std::make_unique<Module>("bound");
    IRBuilder b(m.get());

    Function *leaf = m->addFunction("leaf", Type::Void);
    Argument *lp = leaf->addParam(Type::Ptr, "p");
    b.setInsertPoint(leaf->addBlock("entry"));
    b.createStore(b.getInt(1), lp, 8);
    b.createRet();

    Function *mid = m->addFunction("mid", Type::Void);
    Argument *mp = mid->addParam(Type::Ptr, "p");
    b.setInsertPoint(mid->addBlock("entry"));
    b.createCall(leaf, {mp});
    b.createFence(FenceKind::Sfence);
    b.createDurPoint("in-mid"); // I is here
    b.createRet();

    Function *outer = m->addFunction("outer", Type::Void);
    b.setInsertPoint(outer->addBlock("entry"));
    Instruction *vol = b.createAlloca(64);
    Instruction *pm = b.createPmMap("pool", 64);
    b.createCall(mid, {vol});
    b.createCall(mid, {pm});
    b.createRet();

    auto res = runPipeline(m.get(), "outer");
    for (const auto &fix : res.summary.fixes) {
        if (fix.kind == FixKind::Interprocedural) {
            EXPECT_EQ(fix.function, "mid")
                << "candidates stop at the call site inside I's "
                   "function";
            EXPECT_EQ(fix.hoistLevels, 1);
        }
    }
    EXPECT_TRUE(res.after.clean());
}

TEST(Fixer, NoBugsMeansNoChanges)
{
    auto m = buildListing5(true);
    // Make the program correct first.
    runPipeline(m.get(), "foo");
    size_t instrs = m->instrCount();

    pmem::PmPool pool(1 << 20);
    vm::VmConfig vc;
    vc.traceEnabled = true;
    vm::Vm machine(m.get(), &pool, vc);
    machine.run("foo");
    auto report = pmcheck::analyze(machine.trace());
    ASSERT_TRUE(report.clean());

    core::Fixer fixer(m.get());
    auto summary =
        fixer.fix(report, machine.trace(), &machine.dynPointsTo());
    EXPECT_TRUE(summary.fixes.empty());
    EXPECT_EQ(m->instrCount(), instrs);
}

TEST(Fixer, ModuleVerifiesAfterEveryFixShape)
{
    for (bool with_fence : {true, false}) {
        for (bool hoist : {true, false}) {
            auto m = buildListing5(with_fence);
            FixerConfig cfg;
            cfg.enableHoisting = hoist;
            auto res = runPipeline(m.get(), "foo", cfg);
            EXPECT_TRUE(res.summary.verifierProblems.empty())
                << "fence=" << with_fence << " hoist=" << hoist;
            EXPECT_TRUE(res.after.clean());
        }
    }
}

TEST(Fixer, SummaryCountsAreConsistent)
{
    auto m = buildListing5(false);
    auto res = runPipeline(m.get(), "foo");
    const auto &s = res.summary;
    EXPECT_EQ(s.bugsFixed, res.before.bugs.size());
    EXPECT_EQ(s.intraproceduralCount() + s.interproceduralCount(),
              s.fixes.size());
    uint32_t flushes = 0, fences = 0;
    for (const auto &f : s.fixes) {
        flushes += f.flushesInserted;
        fences += f.fencesInserted;
    }
    EXPECT_EQ(flushes, s.flushesInserted);
    EXPECT_EQ(fences, s.fencesInserted);
    EXPECT_GT(s.irInstrsAfter, s.irInstrsBefore);
}

TEST(Fixer, SummaryStringIsIndependentOfWallTime)
{
    // hippoc prints the summary to stdout, so two runs of one module
    // must print the same bytes; the wall time stays in the
    // fixer.run_ns timer.
    auto m = buildListing5(false);
    core::FixSummary a = runPipeline(m.get(), "foo").summary;
    core::FixSummary b = a;
    a.elapsedSeconds = 0.0;
    b.elapsedSeconds = 0.004;
    EXPECT_EQ(a.str(), b.str());
}

} // namespace hippo::test
