/**
 * @file
 * Bytecode dispatch gate against the tree-walking interpreter's
 * recorded figures: run a set of interpreter-bound PMIR workloads (a
 * countdown spin loop, a PM append loop built around the
 * store->flush->fence superinstruction, a gep/load pointer walk, and
 * a YCSB pmkv slice) on the bytecode interpreter and compare each
 * with the tree walker's verdicts in
 * tests/golden/tree_walker_verdicts.txt.
 *
 * Gates (deterministic, counter-based — wall time is reported but
 * never enforced, so loaded CI hosts behave):
 *   - every workload's run must be byte-identical to the tree
 *     walker's recorded verdict (return value, step count, bit-exact
 *     simulated time, outputs, trace);
 *   - crash exploration over a pmlog workload must give the recorded
 *     ExplorationResult at jobs = 1, 2, 3 and 4;
 *   - the aggregate dispatch-work ratio must be >= 5x. The tree
 *     walker paid three map/list touches per executed instruction
 *     (frame lookup, opcode census, iterator advance) plus one
 *     recursive operand eval per operand; its units (3*steps +
 *     operand evals) are recorded per workload. The fast path pays
 *     one dispatch per bytecode instruction, and superinstructions
 *     retire several IR steps per dispatch (the vm.fast.dispatches
 *     census). Both depend only on the module and inputs.
 *
 * Workload sizes are fixed per mode (smoke or full): the verdicts
 * are recorded for exactly those.
 */

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "apps/kv_driver.hh"
#include "apps/pmlog.hh"
#include "bench_util.hh"
#include "ir/builder.hh"
#include "pmcheck/crash_explorer.hh"
#include "pmem/pm_pool.hh"
#include "support/stopwatch.hh"
#include "test_util.hh"
#include "vm/vm.hh"

namespace
{

using namespace hippo;

/** A tight countdown loop: pure branch/ALU dispatch. */
std::unique_ptr<ir::Module>
makeSpinModule()
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

/** A PM append loop: store->flush->fence per element, the exact
 *  shape the store/flush/fence superinstruction targets. */
std::unique_ptr<ir::Module>
makeAppendModule()
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
    Instruction *pm = b.createPmMap("r", 1u << 20);
    b.createBr(loop);
    b.setInsertPoint(loop);
    Instruction *i = b.createLoad(iv, 8);
    b.createCondBr(b.createCmp(CmpPred::Ult, i, n), body, done);
    b.setInsertPoint(body);
    Instruction *p = b.createGep(pm, b.createMul(i, b.getInt(8)));
    b.createStore(i, p, 8);
    b.createFlush(p, FlushKind::Clwb);
    b.createFence(FenceKind::Sfence);
    b.createStore(b.createAdd(i, b.getInt(1)), iv, 8);
    b.createBr(loop);
    b.setInsertPoint(done);
    b.createRet(b.createLoad(iv, 8));
    return m;
}

/** Fill a PM array (gep+store), then walk it summing (gep+load). */
std::unique_ptr<ir::Module>
makeChaseModule()
{
    using namespace hippo::ir;
    auto m = std::make_unique<Module>("chase");
    Function *f = m->addFunction("chase", Type::Int);
    Argument *n = f->addParam(Type::Int, "n");
    BasicBlock *entry = f->addBlock("entry");
    BasicBlock *fill = f->addBlock("fill");
    BasicBlock *fbody = f->addBlock("fbody");
    BasicBlock *mid = f->addBlock("mid");
    BasicBlock *walk = f->addBlock("walk");
    BasicBlock *wbody = f->addBlock("wbody");
    BasicBlock *done = f->addBlock("done");
    IRBuilder b(m.get());
    b.setInsertPoint(entry);
    Instruction *iv = b.createAlloca(8);
    Instruction *sum = b.createAlloca(8);
    b.createStore(b.getInt(0), iv, 8);
    b.createStore(b.getInt(0), sum, 8);
    Instruction *pm = b.createPmMap("r", 1u << 20);
    b.createBr(fill);
    b.setInsertPoint(fill);
    Instruction *i = b.createLoad(iv, 8);
    b.createCondBr(b.createCmp(CmpPred::Ult, i, n), fbody, mid);
    b.setInsertPoint(fbody);
    b.createStore(b.createMul(i, b.getInt(3)),
                  b.createGep(pm, b.createMul(i, b.getInt(8))), 8);
    b.createStore(b.createAdd(i, b.getInt(1)), iv, 8);
    b.createBr(fill);
    b.setInsertPoint(mid);
    b.createStore(b.getInt(0), iv, 8);
    b.createBr(walk);
    b.setInsertPoint(walk);
    Instruction *j = b.createLoad(iv, 8);
    b.createCondBr(b.createCmp(CmpPred::Ult, j, n), wbody, done);
    b.setInsertPoint(wbody);
    Instruction *v =
        b.createLoad(b.createGep(pm, b.createMul(j, b.getInt(8))), 8);
    b.createStore(b.createAdd(b.createLoad(sum, 8), v), sum, 8);
    b.createStore(b.createAdd(j, b.getInt(1)), iv, 8);
    b.createBr(walk);
    b.setInsertPoint(done);
    b.createRet(b.createLoad(sum, 8));
    return m;
}

/** One workload run on a fresh Vm + pool. */
struct Leg
{
    std::string verdict;  ///< test::runVerdict of the run
    uint64_t units = 0;   ///< dispatches (see file comment)
    uint64_t super = 0;   ///< superinstructions retired
    double seconds = 0;
};

Leg
runLeg(ir::Module *m, const char *entry, uint64_t n)
{
    pmem::PmPool pool(4u << 20);
    vm::Vm machine(m, &pool);
    Leg leg;
    Stopwatch watch;
    vm::RunResult res = machine.run(entry, {n});
    leg.seconds = watch.elapsedSeconds();
    leg.verdict = test::runVerdict(res, machine, {});
    leg.units = machine.fastDispatches();
    leg.super = machine.fastSuperExecuted();
    return leg;
}

/** The tree walker's recorded dispatch units for workload @p key. */
uint64_t
recordedTreeUnits(const std::string &key)
{
    return std::strtoull(
        test::frozenVerdict(key + "/tree_units").c_str(), nullptr, 10);
}

} // namespace

int
main(int argc, char **argv)
{
    auto opt = bench::parseBenchOptions(argc, argv);
    bench::banner("VM dispatch — bytecode fast path vs. the tree "
                  "walker's recorded figures");

    struct Workload
    {
        const char *name;
        std::unique_ptr<ir::Module> module;
        const char *entry;
        uint64_t n;
    };
    const bool smoke = opt.smoke;
    const std::string mode =
        std::string("bench_vm_dispatch/") + (smoke ? "smoke" : "full");
    std::vector<Workload> workloads;
    workloads.push_back(
        {"spin", makeSpinModule(), "spin", smoke ? 2000u : 20000u});
    workloads.push_back({"pm-append", makeAppendModule(), "append",
                         smoke ? 512u : 4096u});
    workloads.push_back({"gep-chase", makeChaseModule(), "chase",
                         smoke ? 512u : 4096u});

    bool identical = true;
    uint64_t treeUnits = 0, fastUnits = 0, superExec = 0;

    bench::Table table({"workload", "tree units", "fast units",
                        "ratio", "super", "wall", "identical"});

    for (auto &w : workloads) {
        // Untimed warm-up.
        runLeg(w.module.get(), w.entry, 8);

        Leg fast = runLeg(w.module.get(), w.entry, w.n);
        std::string key = mode + "/" + w.name;
        uint64_t tu = recordedTreeUnits(key);
        bool same = fast.verdict == test::frozenVerdict(key + "/run");
        identical &= same;
        treeUnits += tu;
        fastUnits += fast.units;
        superExec += fast.super;
        table.addRow(
            {w.name, format("%llu", (unsigned long long)tu),
             format("%llu", (unsigned long long)fast.units),
             format("%.2fx", (double)tu / fast.units),
             format("%llu", (unsigned long long)fast.super),
             format("%.4fs", fast.seconds), same ? "yes" : "NO"});
    }

    // YCSB pmkv slice: simulated time must match the recorded one
    // bit for bit; dispatch units come from the driver's Vm census.
    {
        uint64_t records = smoke ? 64 : 200;
        apps::PmkvConfig kcfg;
        kcfg.variant = apps::PmkvVariant::Manual;
        auto m = apps::buildPmkv(kcfg);
        // Shared hot-path construction (bench::runKvHotPath), so
        // this leg measures the same op stream as the fig4 and
        // flush-opt KV legs.
        auto fast = bench::runKvHotPath(m.get(), ycsb::Workload::A,
                                        records, records, 1, 2);
        std::string verdict =
            format("load ops=%llu sim_s=%a\nrun ops=%llu sim_s=%a\n",
                   (unsigned long long)fast.load.ops,
                   fast.load.simSeconds,
                   (unsigned long long)fast.workload.ops,
                   fast.workload.simSeconds);
        uint64_t tu = recordedTreeUnits(mode + "/ycsb-a");
        uint64_t fu = fast.fastDispatches;
        bool same =
            verdict == test::frozenVerdict(mode + "/ycsb-a/run");
        identical &= same;
        treeUnits += tu;
        fastUnits += fu;
        superExec += fast.fastSuper;
        table.addRow({"ycsb-a", format("%llu", (unsigned long long)tu),
                      format("%llu", (unsigned long long)fu),
                      format("%.2fx", (double)tu / fu),
                      format("%llu",
                             (unsigned long long)fast.fastSuper),
                      format("%.4fs", fast.wallSeconds),
                      same ? "yes" : "NO"});
    }
    table.print();

    // Exploration leg: the ExplorationResult over a pmlog workload
    // must be the recorded one at every jobs setting.
    bool digestMatch = true;
    {
        apps::PmlogConfig lc;
        lc.seedBugs = false;
        lc.capacity = 1u << 20;
        auto m = apps::buildPmlog(lc);
        pmcheck::CrashExplorerConfig xc;
        xc.entry = "log_example";
        xc.entryArgs = {smoke ? 16u : 48u};
        xc.recovery = "log_walk";
        xc.stepStride = 64;
        xc.maxCrashes = 1u << 20;
        const std::string frozen =
            test::frozenVerdict(mode + "/pmlog-explore");
        for (unsigned jobs : {1u, 2u, 3u, 4u}) {
            xc.jobs = jobs;
            digestMatch &= test::explorationVerdict(
                               pmcheck::exploreCrashes(m.get(), xc)) ==
                           frozen;
        }
        std::printf("\nexplorer digest (pmlog, jobs {1,2,3,4}): %s\n",
                    digestMatch ? "all identical" : "DIVERGED");
    }

    double ratio = (double)treeUnits / (double)fastUnits;
    std::printf("\naggregate: tree %llu units (recorded), fast %llu "
                "units (%.2fx), %llu superinstructions retired\n",
                (unsigned long long)treeUnits,
                (unsigned long long)fastUnits, ratio,
                (unsigned long long)superExec);

    auto &reg = support::MetricsRegistry::global();
    reg.counter("vmdispatch.workloads").inc(workloads.size() + 1);
    reg.counter("vmdispatch.identical").inc(identical);
    reg.counter("vmdispatch.digest_match").inc(digestMatch);
    reg.counter("vmdispatch.tree_units").inc(treeUnits);
    reg.counter("vmdispatch.fast_units").inc(fastUnits);
    reg.counter("vmdispatch.super_executed").inc(superExec);
    // Aggregate dispatch-work ratio in hundredths (e.g. 523 =
    // 5.23x), so regressions show up in --stats.
    reg.counter("vmdispatch.ratio_x100").inc((uint64_t)(ratio * 100));
    bench::finishBench(opt, "bench_vm_dispatch");

    if (!identical) {
        std::printf("FAIL: a RunResult differs from the recorded "
                    "one\n");
        return 1;
    }
    if (!digestMatch) {
        std::printf("FAIL: an exploration differs from the "
                    "recorded one\n");
        return 1;
    }
    if (ratio < 5.0) {
        std::printf("FAIL: dispatch-work reduction %.2fx < 5x\n",
                    ratio);
        return 1;
    }
    return 0;
}
