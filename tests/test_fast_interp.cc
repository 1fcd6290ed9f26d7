/**
 * @file
 * Golden suite for the bytecode interpreter (DESIGN.md "Bytecode fast
 * path"): every run and exploration must reproduce, byte for byte,
 * the verdict the tree-walking interpreter recorded for it in
 * tests/golden/tree_walker_verdicts.txt — RunResult (including
 * bit-exact simulated time), trace, outputs, probe firing points,
 * watchdog verdicts, and every field of whole-exploration results —
 * across the application corpus, 64 generated PM programs, both
 * replay engines, and multiple jobs settings. Also pins the bytecode
 * encoding with a golden disassembly (HIPPO_REGEN_GOLDEN=1 rewrites
 * that one).
 */

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/bugsuite.hh"
#include "apps/pclht.hh"
#include "apps/pmkv.hh"
#include "apps/pmlog.hh"
#include "ir/builder.hh"
#include "pmcheck/crash_explorer.hh"
#include "pmem/pm_pool.hh"
#include "support/strings.hh"
#include "test_util.hh"
#include "vm/bytecode.hh"
#include "vm/vm.hh"

namespace hippo::test
{
namespace
{

using namespace hippo;

/** Countdown loop exercising the cmp+condbr superinstruction. */
std::unique_ptr<ir::Module>
buildSpinModule()
{
    using namespace hippo::ir;
    auto m = std::make_unique<Module>("spin");
    Function *f = m->addFunction("spin", Type::Int);
    Argument *n = f->addParam(Type::Int, "n");
    BasicBlock *entry = f->addBlock("entry");
    BasicBlock *loop = f->addBlock("loop");
    BasicBlock *body = f->addBlock("body");
    BasicBlock *done = f->addBlock("done");
    IRBuilder b(m.get());
    b.setInsertPoint(entry);
    Instruction *iv = b.createAlloca(8);
    b.createStore(n, iv, 8);
    b.createBr(loop);
    b.setInsertPoint(loop);
    Instruction *i = b.createLoad(iv, 8);
    b.createCondBr(b.createCmp(CmpPred::Ugt, i, b.getInt(0)), body,
                   done);
    b.setInsertPoint(body);
    b.createStore(b.createSub(i, b.getInt(1)), iv, 8);
    b.createBr(loop);
    b.setInsertPoint(done);
    b.createRet(b.createLoad(iv, 8));
    return m;
}

/** PM loop exercising the store->flush->fence superinstruction. */
std::unique_ptr<ir::Module>
buildAppendModule()
{
    using namespace hippo::ir;
    auto m = std::make_unique<Module>("append");
    Function *f = m->addFunction("append", Type::Int);
    Argument *n = f->addParam(Type::Int, "n");
    BasicBlock *entry = f->addBlock("entry");
    BasicBlock *loop = f->addBlock("loop");
    BasicBlock *body = f->addBlock("body");
    BasicBlock *done = f->addBlock("done");
    IRBuilder b(m.get());
    b.setInsertPoint(entry);
    Instruction *iv = b.createAlloca(8);
    b.createStore(b.getInt(0), iv, 8);
    Instruction *pm = b.createPmMap("r", 1u << 16);
    b.createBr(loop);
    b.setInsertPoint(loop);
    Instruction *i = b.createLoad(iv, 8);
    b.createCondBr(b.createCmp(CmpPred::Ult, i, n), body, done);
    b.setInsertPoint(body);
    Instruction *p = b.createGep(pm, b.createMul(i, b.getInt(8)));
    b.createStore(i, p, 8);
    b.createFlush(p, ir::FlushKind::Clwb);
    b.createFence(ir::FenceKind::Sfence);
    b.createDurPoint("append");
    b.createStore(b.createAdd(i, b.getInt(1)), iv, 8);
    b.createBr(loop);
    b.setInsertPoint(done);
    b.createRet(b.createLoad(iv, 8));
    return m;
}

/** One run on a fresh pool: its result and its verdict. */
struct RunCapture
{
    vm::RunResult res;
    std::string verdict;
};

RunCapture
capture(ir::Module *m, const std::string &entry,
        std::vector<uint64_t> args, vm::VmConfig vc = {})
{
    pmem::PmPool pool(16u << 20);
    std::vector<uint64_t> probes;
    vc.stepProbeStride = vc.stepProbeStride ? vc.stepProbeStride : 7;
    vc.stepProbe = [&](uint64_t s) { probes.push_back(s); };
    vm::Vm machine(m, &pool, vc);
    RunCapture c;
    c.res = machine.run(entry, std::move(args));
    c.verdict = runVerdict(c.res, machine, probes);
    return c;
}

/** @p verdict is the tree walker's recorded verdict @p key. */
void
expectFrozen(const std::string &key, const std::string &verdict)
{
    EXPECT_EQ(verdict, frozenVerdict(key)) << key;
}

void
expectRunParity(const std::string &key, ir::Module *m,
                const std::string &entry, std::vector<uint64_t> args,
                vm::VmConfig vc = {})
{
    expectFrozen(key, capture(m, entry, std::move(args), vc).verdict);
}

} // namespace

TEST(FastInterp, RunParitySyntheticLoops)
{
    auto spin = buildSpinModule();
    expectRunParity("FastInterp.RunParitySyntheticLoops/spin",
                    spin.get(), "spin", {300});
    auto append = buildAppendModule();
    expectRunParity("FastInterp.RunParitySyntheticLoops/append",
                    append.get(), "append", {64});
}

TEST(FastInterp, RunParityTraced)
{
    // traceEnabled disables superinstruction fusion; the traces must
    // still match event for event.
    vm::VmConfig vc;
    vc.traceEnabled = true;
    auto append = buildAppendModule();
    expectRunParity("FastInterp.RunParityTraced/append", append.get(),
                    "append", {32}, vc);
    auto log = apps::buildPmlog({});
    expectRunParity("FastInterp.RunParityTraced/log_example",
                    log.get(), "log_example", {8}, vc);
}

TEST(FastInterp, RunParityApps)
{
    auto log = apps::buildPmlog({});
    expectRunParity("FastInterp.RunParityApps/log_example", log.get(),
                    "log_example", {12});
    auto clht = apps::buildPclht({});
    expectRunParity("FastInterp.RunParityApps/clht_example",
                    clht.get(), "clht_example", {10});
    auto kv = apps::buildPmkv({});
    expectRunParity("FastInterp.RunParityApps/kv_init", kv.get(),
                    "kv_init", {});
}

TEST(FastInterp, CrashAtStepParity)
{
    auto append = buildAppendModule();
    for (uint64_t at : {5u, 23u, 117u}) {
        vm::VmConfig vc;
        vc.crashAtStep = at;
        auto fast = capture(append.get(), "append", {64}, vc);
        EXPECT_TRUE(fast.res.crashed);
        expectFrozen(format("FastInterp.CrashAtStepParity/%llu",
                            (unsigned long long)at),
                     fast.verdict);
    }
}

TEST(FastInterp, CrashAtDurPointParity)
{
    auto log = apps::buildPmlog({});
    vm::VmConfig vc;
    vc.crashAtDurPoint = 3;
    auto fast = capture(log.get(), "log_example", {8}, vc);
    EXPECT_TRUE(fast.res.crashed);
    expectFrozen("FastInterp.CrashAtDurPointParity", fast.verdict);
}

TEST(FastInterp, WatchdogTimeoutParity)
{
    auto spin = buildSpinModule();
    vm::VmConfig vc;
    vc.sandbox = true;
    vc.stepBudget = 100; // far less than the loop needs
    auto fast = capture(spin.get(), "spin", {100000}, vc);
    EXPECT_EQ(fast.res.outcome, vm::ExecOutcome::Timeout);
    expectFrozen("FastInterp.WatchdogTimeoutParity", fast.verdict);
}

TEST(FastInterp, GlobalStepLimitParity)
{
    auto spin = buildSpinModule();
    vm::VmConfig vc;
    vc.sandbox = true;
    vc.maxSteps = 64;
    auto fast = capture(spin.get(), "spin", {100000}, vc);
    EXPECT_EQ(fast.res.outcome, vm::ExecOutcome::Timeout);
    EXPECT_EQ(fast.res.diag, "global step limit exceeded");
    expectFrozen("FastInterp.GlobalStepLimitParity", fast.verdict);
}

TEST(FastInterp, HeapBudgetParity)
{
    // Each spin() activation allocas 8 bytes; recursion is not needed
    // — a tiny budget trips on the very first frame.
    auto spin = buildSpinModule();
    vm::VmConfig vc;
    vc.sandbox = true;
    vc.heapBudget = 4;
    auto fast = capture(spin.get(), "spin", {4}, vc);
    EXPECT_EQ(fast.res.outcome, vm::ExecOutcome::BudgetExceeded);
    expectFrozen("FastInterp.HeapBudgetParity", fast.verdict);
}

TEST(FastInterp, ExplorationParityMatrix)
{
    // One workload per app; each explored with both replay engines
    // and jobs in {1, 4}: every leg must reproduce the tree walker's
    // recorded ExplorationResult exactly.
    struct Case
    {
        std::unique_ptr<ir::Module> m;
        const char *entry;
        std::vector<uint64_t> args;
        const char *recovery;
    };
    std::vector<Case> cases;
    cases.push_back({apps::buildPmlog({}), "log_example", {8},
                     "log_walk"});
    cases.push_back({apps::buildPclht({}), "clht_example", {8},
                     "clht_recover"});
    cases.push_back(
        {apps::buildPmkv({}), "kv_init", {}, "kv_recover"});

    for (auto &c : cases) {
        for (auto replay : {pmcheck::ExploreEngine::Legacy,
                            pmcheck::ExploreEngine::Snapshot}) {
            for (unsigned jobs : {1u, 4u}) {
                pmcheck::CrashExplorerConfig xc;
                xc.entry = c.entry;
                xc.entryArgs = c.args;
                xc.recovery = c.recovery;
                xc.stepStride = 16;
                xc.engine = replay;
                xc.jobs = jobs;
                auto fast = pmcheck::exploreCrashes(c.m.get(), xc);
                EXPECT_EQ(explorationVerdict(fast),
                          frozenVerdict(std::string(
                              "FastInterp.ExplorationParityMatrix/") +
                                        c.entry))
                    << c.entry << " replay="
                    << (replay == pmcheck::ExploreEngine::Legacy
                            ? "legacy"
                            : "snapshot")
                    << " jobs=" << jobs;
            }
        }
    }
}

TEST(FastInterp, ExplorationParityBugsuite)
{
    // First few PMDK reproducers, buggy builds: crash exploration
    // results must match the tree walker's recorded ones.
    const auto &cases = apps::pmdkBugCases();
    size_t n = std::min<size_t>(cases.size(), 3);
    for (size_t i = 0; i < n; i++) {
        auto m = cases[i].build(false);
        pmcheck::CrashExplorerConfig xc;
        xc.entry = cases[i].entry;
        xc.recovery = cases[i].entry;
        xc.stepStride = 8;
        expectFrozen("FastInterp.ExplorationParityBugsuite/" +
                         cases[i].id,
                     explorationVerdict(
                         pmcheck::exploreCrashes(m.get(), xc)));
    }
}

TEST(FastInterp, GeneratedProgramParity)
{
    // The DoNoHarm suites' random PM programs, seeds 1-64: a traced
    // entry run and a crash exploration (durpoints and every fifth
    // step) of each.
    for (uint64_t seed = 1; seed <= 64; seed++) {
        auto m = generateProgram(seed);
        std::string key = format("FastInterp.GeneratedProgramParity/%llu",
                                 (unsigned long long)seed);
        vm::VmConfig vc;
        vc.traceEnabled = true;
        expectRunParity(key + "/run", m.get(), "main", {}, vc);

        pmcheck::CrashExplorerConfig xc;
        xc.entry = "main";
        xc.recovery = "main";
        xc.stepStride = 5;
        expectFrozen(key + "/explore",
                     explorationVerdict(
                         pmcheck::exploreCrashes(m.get(), xc)));
    }
}

TEST(FastInterp, SuperinstructionsFuseAndDisableUnderTrace)
{
    auto append = buildAppendModule();
    pmem::PmPool pool(1u << 20);
    vm::VmConfig vc;
    vm::Vm machine(append.get(), &pool, vc);
    const vm::BcProgram &prog = machine.bytecode();
    EXPECT_TRUE(prog.options.enableSuper);
    EXPECT_GT(prog.totalFused, 0u);

    pmem::PmPool tpool(1u << 20);
    vc.traceEnabled = true;
    vm::Vm traced(append.get(), &tpool, vc);
    const vm::BcProgram &tprog = traced.bytecode();
    EXPECT_FALSE(tprog.options.enableSuper);
    EXPECT_EQ(tprog.totalFused, 0u);
    traced.run("append", {16});
    EXPECT_EQ(traced.fastSuperExecuted(), 0u);
}

TEST(FastInterp, GoldenDisassembly)
{
    // Pins the bytecode encoding, superinstruction selection, and
    // constant-pool layout; HIPPO_REGEN_GOLDEN=1 rewrites.
    auto spin = buildSpinModule();
    auto append = buildAppendModule();
    std::string text =
        vm::disassemble(vm::compileModule(*spin)) + "\n" +
        vm::disassemble(vm::compileModule(*append));
    const char *path =
        HIPPO_SOURCE_DIR "/tests/golden/fast_interp_bytecode.txt";
    if (std::getenv("HIPPO_REGEN_GOLDEN")) {
        std::ofstream out(path);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << text;
        return;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(text, ss.str());
}

} // namespace hippo::test
