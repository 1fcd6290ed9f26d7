/**
 * @file
 * google-benchmark microbenchmarks for the individual substrates,
 * plus ablations of Hippocrates's phases (fix reduction on/off,
 * hoisting on/off) called out in DESIGN.md.
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <functional>

#include "apps/kv_driver.hh"
#include "apps/pmcache.hh"
#include "analysis/points_to.hh"
#include "bench_util.hh"
#include "core/fixer.hh"
#include "core/flush_cleaner.hh"
#include "ir/builder.hh"
#include "pmcheck/detector.hh"
#include "pmem/pm_pool.hh"
#include "support/thread_pool.hh"
#include "vm/vm.hh"

namespace
{

using namespace hippo;

void
BM_PmPool_StoreFlushFence(benchmark::State &state)
{
    pmem::PmPool pool(1 << 20);
    uint64_t base = pool.mapRegion("r", 1 << 16);
    uint64_t v = 42;
    uint64_t off = 0;
    for (auto _ : state) {
        uint64_t addr = base + (off & 0xFFF8);
        pool.store(addr, reinterpret_cast<uint8_t *>(&v), 8);
        pool.flush(addr, pmem::FlushOp::Clwb);
        pool.fence();
        off += 64;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PmPool_StoreFlushFence);

/**
 * One exploration fork: snapshot the master pool, construct a fork
 * from it, crash the fork, and touch one line — the per-crash-point
 * cost of the snapshot replay engine (DESIGN.md "Snapshot replay
 * engine"). COW pages make this O(dirty lines), not O(pool bytes).
 */
void
BM_PmPool_SnapshotFork(benchmark::State &state)
{
    pmem::PmPool master(16u << 20);
    uint64_t base = master.mapRegion("r", 4u << 20);
    uint64_t v = 7;
    // A realistic master image: a few hundred persisted lines plus
    // some lines left dirty at the snapshot point.
    for (uint64_t off = 0; off < (256u << 10); off += 64) {
        master.store(base + off, reinterpret_cast<uint8_t *>(&v), 8);
        master.flush(base + off, pmem::FlushOp::Clwb);
    }
    master.fence();
    for (uint64_t off = 0; off < (16u << 10); off += 64)
        master.store(base + off, reinterpret_cast<uint8_t *>(&v), 8);

    for (auto _ : state) {
        pmem::PmPool::Snapshot snap = master.snapshot();
        pmem::PmPool fork(snap);
        fork.crash();
        fork.store(base, reinterpret_cast<uint8_t *>(&v), 8);
        benchmark::DoNotOptimize(fork.stats().stores);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PmPool_SnapshotFork);

/** A tight PMIR countdown loop to measure interpreter dispatch. */
std::unique_ptr<ir::Module>
makeLoopModule()
{
    using namespace hippo::ir;
    auto m = std::make_unique<Module>("loop");
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

void
interpreterLoop(benchmark::State &state, vm::VmEngine engine)
{
    auto m = makeLoopModule();
    pmem::PmPool pool(1 << 16);
    vm::VmConfig vc;
    vc.engine = engine;
    vm::Vm machine(m.get(), &pool, vc);
    uint64_t n = state.range(0);
    for (auto _ : state)
        machine.run("spin", {n});
    state.SetItemsProcessed(state.iterations() * n * 5);
}

void
BM_Vm_InterpreterLoop(benchmark::State &state)
{
    interpreterLoop(state, vm::VmEngine::Tree);
}
BENCHMARK(BM_Vm_InterpreterLoop)->Arg(1000);

void
BM_Vm_InterpreterLoopBytecode(benchmark::State &state)
{
    interpreterLoop(state, vm::VmEngine::Bytecode);
}
BENCHMARK(BM_Vm_InterpreterLoopBytecode)->Arg(1000);

/** One traced memcached-pm run reused across detector iterations. */
const trace::Trace &
pmcacheTrace()
{
    static trace::Trace tr = [] {
        auto m = apps::buildPmcache({});
        pmem::PmPool pool(16u << 20);
        vm::VmConfig vc;
        vc.traceEnabled = true;
        vm::Vm machine(m.get(), &pool, vc);
        machine.run("mc_example", {32});
        return machine.trace();
    }();
    return tr;
}

void
BM_Detector_Analyze(benchmark::State &state)
{
    const trace::Trace &tr = pmcacheTrace();
    for (auto _ : state)
        benchmark::DoNotOptimize(pmcheck::analyze(tr));
    state.SetItemsProcessed(state.iterations() * tr.size());
}
BENCHMARK(BM_Detector_Analyze);

void
BM_Trace_RoundTrip(benchmark::State &state)
{
    const trace::Trace &tr = pmcacheTrace();
    for (auto _ : state) {
        std::string text = tr.writeText();
        trace::Trace parsed;
        bool ok = trace::Trace::readText(text, parsed);
        benchmark::DoNotOptimize(ok);
    }
    state.SetItemsProcessed(state.iterations() * tr.size());
}
BENCHMARK(BM_Trace_RoundTrip);

void
BM_PointsTo_Solve(benchmark::State &state)
{
    auto m = apps::buildPmkv({});
    for (auto _ : state) {
        analysis::PointsTo pts(*m);
        benchmark::DoNotOptimize(pts.edgeCount());
    }
}
BENCHMARK(BM_PointsTo_Solve);

/**
 * All-pairs mayAlias over the module's pointer-valued instructions,
 * on a solved Andersen instance: exercises the sorted-vector
 * intersection path (linear merge, no per-query allocation).
 */
void
BM_PointsTo_MayAlias(benchmark::State &state)
{
    auto m = apps::buildPmkv({});
    analysis::PointsTo pts(*m);
    std::vector<const ir::Value *> ptrs;
    for (const auto &f : m->functions())
        for (const auto &bb : f->blocks())
            for (const auto &instr : *bb)
                if (instr->type() == ir::Type::Ptr)
                    ptrs.push_back(instr.get());
    for (auto _ : state) {
        uint64_t hits = 0;
        for (size_t i = 0; i < ptrs.size(); i++)
            for (size_t j = i + 1; j < ptrs.size(); j++)
                hits += pts.mayAlias(ptrs[i], ptrs[j]);
        benchmark::DoNotOptimize(hits);
    }
    state.SetItemsProcessed(state.iterations() * ptrs.size() *
                            (ptrs.size() - 1) / 2);
}
BENCHMARK(BM_PointsTo_MayAlias);

/** Full fixer pipeline with configurable phases (ablation). */
void
fixerAblation(benchmark::State &state, bool reduction, bool hoisting)
{
    // Build the trace once; rebuild the module every iteration since
    // the fixer mutates it.
    auto traced = apps::buildPmcache({});
    pmem::PmPool pool(16u << 20);
    vm::VmConfig vc;
    vc.traceEnabled = true;
    vm::Vm machine(traced.get(), &pool, vc);
    machine.run("mc_example", {32});
    auto report = pmcheck::analyze(machine.trace());

    size_t fixes = 0, fences = 0;
    for (auto _ : state) {
        state.PauseTiming();
        auto m = apps::buildPmcache({});
        state.ResumeTiming();
        core::FixerConfig cfg;
        cfg.enableReduction = reduction;
        cfg.enableHoisting = hoisting;
        core::Fixer fixer(m.get(), cfg);
        auto summary = fixer.fix(report, machine.trace(),
                                 &machine.dynPointsTo());
        fixes = summary.fixes.size();
        fences = summary.fencesInserted;
    }
    state.counters["fixes"] = (double)fixes;
    state.counters["fences"] = (double)fences;
}

void
BM_Fixer_Full(benchmark::State &state)
{
    fixerAblation(state, true, true);
}
BENCHMARK(BM_Fixer_Full);

void
BM_Fixer_NoReduction(benchmark::State &state)
{
    fixerAblation(state, false, true);
}
BENCHMARK(BM_Fixer_NoReduction);

void
BM_Fixer_IntraOnly(benchmark::State &state)
{
    fixerAblation(state, true, false);
}
BENCHMARK(BM_Fixer_IntraOnly);

void
BM_OnlineDetector_Feed(benchmark::State &state)
{
    const trace::Trace &tr = pmcacheTrace();
    for (auto _ : state) {
        pmcheck::OnlineDetector online;
        for (const auto &ev : tr.events())
            online.onEvent(ev);
        benchmark::DoNotOptimize(online.report().bugs.size());
    }
    state.SetItemsProcessed(state.iterations() * tr.size());
}
BENCHMARK(BM_OnlineDetector_Feed);

void
BM_FlushCleaner_Module(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        apps::PmcacheConfig cfg;
        cfg.seedBugs = false;
        auto m = apps::buildPmcache(cfg);
        state.ResumeTiming();
        auto stats = core::cleanRedundantFlushes(m.get());
        benchmark::DoNotOptimize(stats.flushesKept);
    }
}
BENCHMARK(BM_FlushCleaner_Module);

/**
 * ThreadPool dispatch cost, per-item path: one Batch publish per
 * parallelForEach call, workers index into a shared callable.
 * Baseline for BM_ThreadPool_SubmitAll.
 */
void
BM_ThreadPool_ParallelForEach(benchmark::State &state)
{
    support::ThreadPool pool(4);
    const uint64_t tasks = state.range(0);
    std::atomic<uint64_t> sink{0};
    for (auto _ : state) {
        pool.parallelForEach(0, tasks, [&](uint64_t i) {
            sink.fetch_add(i + 1, std::memory_order_relaxed);
        });
    }
    benchmark::DoNotOptimize(sink.load());
    state.SetItemsProcessed(state.iterations() * tasks);
}
BENCHMARK(BM_ThreadPool_ParallelForEach)->Arg(8)->Arg(64);

/**
 * ThreadPool dispatch cost, batch path: submitAll publishes a whole
 * task vector under one lock with one notify_all. The tasks
 * themselves are near-empty, so this measures handoff overhead, not
 * work.
 */
void
BM_ThreadPool_SubmitAll(benchmark::State &state)
{
    support::ThreadPool pool(4);
    const uint64_t tasks = state.range(0);
    std::atomic<uint64_t> sink{0};
    std::vector<std::function<void()>> work;
    for (uint64_t i = 0; i < tasks; i++)
        work.push_back([&sink, i] {
            sink.fetch_add(i + 1, std::memory_order_relaxed);
        });
    for (auto _ : state)
        pool.submitAll(work);
    benchmark::DoNotOptimize(sink.load());
    state.SetItemsProcessed(state.iterations() * tasks);
}
BENCHMARK(BM_ThreadPool_SubmitAll)->Arg(8)->Arg(64);

void
BM_KvDriver_WorkloadA(benchmark::State &state)
{
    apps::PmkvConfig cfg;
    cfg.variant = apps::PmkvVariant::Manual;
    auto m = apps::buildPmkv(cfg);
    pmem::PmPool pool(64u << 20);
    apps::KvDriver driver(m.get(), &pool);
    driver.init();
    driver.run(ycsb::Workload::Load, 200, 200, 1);
    uint64_t seed = 2;
    for (auto _ : state) {
        auto res = driver.run(ycsb::Workload::A, 200, 100, seed++);
        benchmark::DoNotOptimize(res.ops);
    }
    state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_KvDriver_WorkloadA);

/**
 * One deterministic single-shot pipeline pass for the --stats
 * fingerprint: timed iteration counts are host-dependent, so the
 * stats document is built from this pass alone and written before
 * google-benchmark takes over.
 */
void
recordFingerprint()
{
    auto &reg = support::MetricsRegistry::global();

    auto traced = apps::buildPmcache({});
    pmem::PmPool pool(16u << 20);
    vm::VmConfig vc;
    vc.traceEnabled = true;
    vm::Vm machine(traced.get(), &pool, vc);
    machine.run("mc_example", {32});
    machine.exportMetrics(reg, "micro.vm");

    auto report = pmcheck::analyze(machine.trace());
    report.exportMetrics(reg, "micro.pmcheck");

    auto m = apps::buildPmcache({});
    core::Fixer fixer(m.get(), {});
    fixer.fix(report, machine.trace(), &machine.dynPointsTo())
        .exportMetrics(reg, "micro.fixer");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace hippo;

    // Split off --smoke / --stats; everything else goes through to
    // google-benchmark untouched.
    bench::BenchOptions opt;
    std::vector<char *> fwd = {argv[0]};
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        if (arg == "--smoke")
            opt.smoke = true;
        else if (arg == "--stats" && i + 1 < argc)
            opt.statsPath = argv[++i];
        else
            fwd.push_back(argv[i]);
    }
    std::string min_time = "--benchmark_min_time=0.01";
    if (opt.smoke)
        fwd.push_back(min_time.data());

    if (!opt.statsPath.empty()) {
        recordFingerprint();
        bench::finishBench(opt, "bench_micro");
    }

    int fwd_argc = (int)fwd.size();
    benchmark::Initialize(&fwd_argc, fwd.data());
    if (benchmark::ReportUnrecognizedArguments(fwd_argc, fwd.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
