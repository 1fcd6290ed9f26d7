/**
 * @file
 * Regenerates the §6.1 effectiveness result: Hippocrates fixes all
 * 23 durability bugs reproduced across PMDK (11), P-CLHT (2), and
 * memcached-pm (10); re-running the bug finder on every repaired
 * program reports zero remaining bugs; and the Full-AA and Trace-AA
 * heuristic variants produce identical fixes.
 */

#include <algorithm>
#include <cstdio>

#include "apps/bugsuite.hh"
#include "apps/pclht.hh"
#include "apps/pmcache.hh"
#include "bench_util.hh"
#include "pmem/pm_pool.hh"
#include "support/parallel.hh"
#include "vm/vm.hh"

namespace
{

using namespace hippo;

struct TargetResult
{
    std::string name;
    size_t bugsFound = 0;
    size_t bugsFixed = 0;
    bool recheckClean = false;
    bool aaModesAgree = false;
};

/** Run detect -> fix -> re-check on a single-module target, once per
 *  AA mode, and compare the fix sets. */
TargetResult
runTarget(const std::string &name,
          const std::function<std::unique_ptr<ir::Module>()> &build,
          const std::string &entry, uint64_t arg)
{
    TargetResult out;
    out.name = name;

    core::FixSummary summaries[2];
    bool clean[2] = {false, false};
    size_t found = 0;
    for (int mode = 0; mode < 2; mode++) {
        auto m = build();
        pmem::PmPool pool(16u << 20);
        vm::VmConfig vc;
        vc.traceEnabled = true;
        vm::Vm machine(m.get(), &pool, vc);
        machine.run(entry, {arg});
        auto report = pmcheck::analyze(machine.trace());
        found = report.bugs.size();

        core::FixerConfig cfg;
        cfg.aaMode = mode == 0 ? analysis::AaMode::FullAA
                               : analysis::AaMode::TraceAA;
        core::Fixer fixer(m.get(), cfg);
        summaries[mode] = fixer.fix(report, machine.trace(),
                                    &machine.dynPointsTo());

        pmem::PmPool vpool(16u << 20);
        vm::Vm check(m.get(), &vpool, vc);
        check.run(entry, {arg});
        clean[mode] = pmcheck::analyze(check.trace()).clean();
    }

    out.bugsFound = found;
    out.bugsFixed = summaries[0].bugsFixed;
    out.recheckClean = clean[0] && clean[1];
    out.aaModesAgree =
        summaries[0].fixes.size() == summaries[1].fixes.size();
    if (out.aaModesAgree) {
        for (size_t i = 0; i < summaries[0].fixes.size(); i++) {
            const auto &a = summaries[0].fixes[i];
            const auto &b = summaries[1].fixes[i];
            if (a.kind != b.kind || a.function != b.function ||
                a.anchorInstrId != b.anchorInstrId ||
                a.hoistLevels != b.hoistLevels) {
                out.aaModesAgree = false;
                break;
            }
        }
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace hippo;
    auto opt = bench::parseBenchOptions(argc, argv);
    bench::banner("§6.1 Effectiveness — fixing all 23 reproduced "
                  "durability bugs");

    // Smoke fixes the worker count so the run is host-independent
    // (the counters are anyway; this pins scheduling too).
    unsigned jobs = (unsigned)bench::knob(
        opt, "HIPPO_JOBS", support::hardwareConcurrency(), 2);

    std::vector<TargetResult> results;

    // The 11 PMDK issue reproductions, each its own module: the
    // fix->re-verify pipeline fans out one worker per bug program.
    {
        core::FixerConfig fcfg;
        fcfg.jobs = jobs;
        core::FixerConfig tcfg;
        tcfg.jobs = jobs;
        tcfg.aaMode = analysis::AaMode::TraceAA;
        auto fulls = apps::evaluateCases(apps::pmdkBugCases(), fcfg);
        auto trs = apps::evaluateCases(apps::pmdkBugCases(), tcfg);

        TargetResult pmdk;
        pmdk.name = "PMDK (unit tests)";
        pmdk.recheckClean = true;
        pmdk.aaModesAgree = true;
        for (size_t i = 0; i < fulls.size(); i++) {
            const auto &full = fulls[i];
            const auto &tr = trs[i];
            pmdk.bugsFound += full.detected ? 1 : 0;
            pmdk.bugsFixed += full.fixedClean ? 1 : 0;
            pmdk.recheckClean &= full.fixedClean && tr.fixedClean;
            pmdk.aaModesAgree &= full.hippoKind == tr.hippoKind;
        }
        results.push_back(pmdk);
    }

    // The two whole-program targets repair concurrently too.
    results.resize(3);
    {
        support::parallelFor(jobs, 1, 3, [&](uint64_t i) {
            results[i] =
                i == 1 ? runTarget("P-CLHT (RECIPE)",
                                   [] { return apps::buildPclht({}); },
                                   "clht_example", 24)
                       : runTarget("memcached-pm",
                                   [] {
                                       return apps::buildPmcache({});
                                   },
                                   "mc_example", 24);
        });
    }

    bench::Table table({"Target", "Bugs found", "Bugs fixed",
                        "Re-check clean", "Full-AA == Trace-AA"});
    size_t total_found = 0, total_fixed = 0;
    for (const auto &r : results) {
        table.addRow({r.name, format("%zu", r.bugsFound),
                      format("%zu", r.bugsFixed),
                      r.recheckClean ? "yes" : "NO",
                      r.aaModesAgree ? "yes" : "NO"});
        total_found += r.bugsFound;
        total_fixed += r.bugsFixed;
    }
    table.addRow({"Total", format("%zu", total_found),
                  format("%zu", total_fixed), "", ""});
    table.print();

    std::printf("\nPaper reference: 23/23 bugs fixed (11 PMDK, "
                "2 P-CLHT, 10 memcached-pm); both heuristics "
                "produced the same set of fixes on all systems.\n");

    auto &reg = support::MetricsRegistry::global();
    reg.counter("effectiveness.bugs_found").inc(total_found);
    reg.counter("effectiveness.bugs_fixed").inc(total_fixed);
    reg.counter("effectiveness.targets").inc(results.size());
    bench::finishBench(opt, "bench_effectiveness");
    return total_found == 23 && total_fixed == 23 ? 0 : 1;
}
