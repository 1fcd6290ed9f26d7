/**
 * @file
 * Acceptance gates for the global flush/fence optimizer
 * (core/flush_optimizer.hh), the "do no harm" inverse of the fixer:
 *
 *  Gate 1 — the optimizer removes at least 20% of the dynamically
 *           executed flushes on the pmkv YCSB hot path (Load + A),
 *           naive fix vs optimized fix, without losing throughput;
 *  Gate 2 — crash-exploration recovery digests of the naive and the
 *           optimized pmkv are byte-identical at every engine
 *           (Legacy, Snapshot) x jobs (1, 4) setting, and the static
 *           flush count never grows;
 *  Gate 3 — optimizeAndVerify keeps (does not revert) the optimized
 *           module on every repaired app — pmlog, pclht, pmcache,
 *           pmkv — i.e. zero new pmcheck bugs, zero new static
 *           checker candidates, unchanged recovery digests.
 *
 * Gate 2 drives exploration through a synthesized @kv_exercise entry
 * (kv_init + a short set/update/rmw sequence with constant keys) so
 * both modules walk the same durability points; recovery is
 * @kv_recover.
 *
 * Knobs: HIPPO_FLUSHOPT_RECORDS (default 800), HIPPO_FLUSHOPT_OPS
 * (800).
 */

#include <cstdio>
#include <vector>

#include "apps/kv_driver.hh"
#include "apps/pclht.hh"
#include "apps/pmcache.hh"
#include "apps/pmlog.hh"
#include "bench_util.hh"
#include "ir/builder.hh"
#include "ir/instruction.hh"
#include "ir/module.hh"
#include "pmcheck/crash_explorer.hh"
#include "support/logging.hh"

namespace
{

using namespace hippo;

size_t
countFlushes(const ir::Module &m)
{
    size_t n = 0;
    for (const auto &f : m.functions())
        for (const auto &bb : f->blocks())
            for (const auto &in : *bb)
                n += in->op() == ir::Opcode::Flush;
    return n;
}

/**
 * Synthesize @kv_exercise: a parameterless workload entry that walks
 * every pmkv write path with constant keys, so crash exploration has
 * a deterministic durpoint schedule. Identical in both modules —
 * it is appended after repair/optimization and only contains calls,
 * which every optimizer pass treats as a barrier.
 */
void
addKvExercise(ir::Module *m)
{
    ir::Function *f = m->addFunction("kv_exercise", ir::Type::Int);
    ir::BasicBlock *bb = f->addBlock("entry");
    ir::IRBuilder b(m);
    b.setInsertPoint(bb);
    b.setLoc("bench_flush_opt.cc", 1);
    auto call = [&](const char *name,
                    std::vector<ir::Value *> args) {
        ir::Function *callee = m->findFunction(name);
        hippo_assert(callee, "pmkv entry missing");
        return b.createCall(callee, std::move(args));
    };
    call("kv_init", {});
    call("kv_handle_set", {b.getInt(3), b.getInt(24)});
    call("kv_handle_set", {b.getInt(7), b.getInt(40)});
    call("kv_handle_set", {b.getInt(11), b.getInt(24)});
    call("kv_handle_update", {b.getInt(7), b.getInt(24)});
    call("kv_handle_rmw", {b.getInt(3), b.getInt(24)});
    b.createRet(call("kv_recover", {}));
}

/** The YCSB hot path, shared with bench_fig4/bench_vm_dispatch
 *  (bench::runKvHotPath) so all the benches gate one op stream. */
bench::KvHotPathCounts
hotPathCounts(ir::Module *m, uint64_t records, uint64_t ops)
{
    return bench::runKvHotPath(m, ycsb::Workload::A, records, ops,
                               424243, 424247, 32u << 20);
}

/** Repair one app exactly like the hippoc pipeline (trace -> detect
 *  -> fix with the full heuristic), then run the checked optimizer
 *  stage over it. */
core::FlushOptOutcome
repairAndOptimize(std::unique_ptr<ir::Module> m,
                  const std::string &entry, uint64_t arg,
                  const std::string &recovery)
{
    pmem::PmPool pool(16u << 20);
    vm::VmConfig vc;
    vc.traceEnabled = true;
    vm::Vm machine(m.get(), &pool, vc);
    machine.run(entry, {arg});
    auto report = pmcheck::analyze(machine.trace());

    core::FixerConfig fc;
    fc.enableHoisting = true;
    core::Fixer fixer(m.get(), fc);
    fixer.fix(report, machine.trace(), &machine.dynPointsTo());

    core::FlushOptVerifyConfig cfg;
    cfg.entry = entry;
    cfg.entryArgs = {arg};
    cfg.recovery = recovery;
    return core::optimizeAndVerify(m, cfg);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace hippo;
    auto opt = bench::parseBenchOptions(argc, argv);
    bench::banner("Flush/fence optimizer acceptance gates");

    uint64_t records =
        bench::knob(opt, "HIPPO_FLUSHOPT_RECORDS", 800, 96);
    uint64_t ops = bench::knob(opt, "HIPPO_FLUSHOPT_OPS", 800, 96);
    auto &reg = support::MetricsRegistry::global();

    // ---- Gate 1: >= 20% executed-flush cut on the YCSB hot path.
    auto variants = apps::buildRedisVariants(
        {}, analysis::AaMode::FullAA, /*optimized=*/true);
    std::printf("optimizer: %s\n", variants.optStats.str().c_str());

    auto naive = hotPathCounts(variants.hippoFull.get(), records, ops);
    auto optd = hotPathCounts(variants.hippoOpt.get(), records, ops);
    double cut =
        naive.flushes
            ? 100.0 * (double)(naive.flushes - optd.flushes) /
                  (double)naive.flushes
            : 0;
    bool gate1 = cut >= 20.0;
    std::printf("gate 1: naive %llu flushes / optimized %llu "
                "(cut %.1f%%, need >= 20%%) ... %s\n",
                (unsigned long long)naive.flushes,
                (unsigned long long)optd.flushes, cut,
                gate1 ? "PASS" : "FAIL");
    reg.counter("flushopt.dyn_flushes_naive").inc(naive.flushes);
    reg.counter("flushopt.dyn_flushes_optimized").inc(optd.flushes);
    reg.counter("flushopt.dyn_fences_naive").inc(naive.fences);
    reg.counter("flushopt.dyn_fences_optimized").inc(optd.fences);
    reg.doubleSum("flushopt.cut_pct").add(cut);

    // ---- Gate 2: recovery digests identical across engine x jobs,
    // static flush count monotone.
    addKvExercise(variants.hippoFull.get());
    addKvExercise(variants.hippoOpt.get());
    size_t static_naive = countFlushes(*variants.hippoFull);
    size_t static_opt = countFlushes(*variants.hippoOpt);
    bool monotone = static_opt <= static_naive;

    struct Leg
    {
        const char *name;
        pmcheck::ExploreEngine engine;
        unsigned jobs;
    };
    const Leg legs[] = {
        {"legacy/1", pmcheck::ExploreEngine::Legacy, 1},
        {"legacy/4", pmcheck::ExploreEngine::Legacy, 4},
        {"snapshot/1", pmcheck::ExploreEngine::Snapshot, 1},
        {"snapshot/4", pmcheck::ExploreEngine::Snapshot, 4},
    };
    bool gate2 = monotone;
    bench::Table table(
        {"engine/jobs", "naive digest", "optimized digest", "equal"});
    for (const Leg &leg : legs) {
        pmcheck::CrashExplorerConfig cc;
        cc.entry = "kv_exercise";
        cc.recovery = "kv_recover";
        cc.engine = leg.engine;
        cc.jobs = leg.jobs;
        uint64_t dn = pmcheck::recoveryDigest(
            pmcheck::exploreCrashes(variants.hippoFull.get(), cc));
        uint64_t dopt = pmcheck::recoveryDigest(
            pmcheck::exploreCrashes(variants.hippoOpt.get(), cc));
        bool eq = dn == dopt;
        gate2 &= eq;
        table.addRow({leg.name,
                      format("%016llx", (unsigned long long)dn),
                      format("%016llx", (unsigned long long)dopt),
                      eq ? "yes" : "NO"});
    }
    table.print();
    std::printf("gate 2: static flushes %zu -> %zu (monotone: %s); "
                "digests ... %s\n",
                static_naive, static_opt, monotone ? "yes" : "NO",
                gate2 ? "PASS" : "FAIL");
    reg.counter("flushopt.static_flushes_naive").inc(static_naive);
    reg.counter("flushopt.static_flushes_optimized").inc(static_opt);

    // ---- Gate 3: the checked stage keeps every repaired app.
    bench::banner("Gate 3 — optimizeAndVerify over the repaired apps");
    struct AppGate
    {
        const char *name;
        core::FlushOptOutcome out;
    };
    std::vector<AppGate> apps_run;
    apps_run.push_back(
        {"pmlog", repairAndOptimize(apps::buildPmlog({}),
                                    "log_example", 8, "log_walk")});
    apps_run.push_back({"pclht", repairAndOptimize(
                                     apps::buildPclht({}),
                                     "clht_example", 12,
                                     "clht_recover")});
    apps_run.push_back({"pmcache", repairAndOptimize(
                                       apps::buildPmcache({}),
                                       "mc_example", 24,
                                       "mc_recover")});
    {
        // pmkv was repaired above; run the checked stage on the
        // naive module (with @kv_exercise as the workload).
        core::FlushOptVerifyConfig cfg;
        cfg.entry = "kv_exercise";
        cfg.recovery = "kv_recover";
        apps_run.push_back(
            {"pmkv", core::optimizeAndVerify(variants.hippoFull, cfg)});
    }

    bool gate3 = true;
    size_t kept = 0;
    for (const AppGate &a : apps_run) {
        bool ok = !a.out.reverted && a.out.verified;
        gate3 &= ok;
        kept += ok;
        std::printf("%-8s: %s ... %s%s%s\n", a.name,
                    a.out.stats.str().c_str(), ok ? "kept" : "REVERTED",
                    a.out.failReason.empty() ? "" : " — ",
                    a.out.failReason.c_str());
        reg.counter("flushopt.apps_kept").inc(ok);
        reg.counter(std::string("flushopt.") + a.name + ".removed")
            .inc(a.out.stats.flushesRemoved());
    }
    std::printf("gate 3: %zu/%zu apps kept ... %s\n", kept,
                apps_run.size(), gate3 ? "PASS" : "FAIL");

    std::printf("\nsummary: gate1=%s gate2=%s gate3=%s\n",
                gate1 ? "pass" : "fail", gate2 ? "pass" : "fail",
                gate3 ? "pass" : "fail");
    bench::finishBench(opt, "bench_flush_opt");
    return gate1 && gate2 && gate3 ? 0 : 1;
}
