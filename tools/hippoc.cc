/**
 * @file
 * hippoc — the Hippocrates command-line driver.
 *
 * Runs the full Fig. 2 pipeline on a textual PMIR module:
 * execute the entry point under the bug finder, report durability
 * bugs, repair them, and write the repaired module back out.
 *
 *   hippoc prog.pmir                      # check + fix, print report
 *   hippoc prog.pmir -o fixed.pmir        # write the repaired module
 *   hippoc prog.pmir --check-only         # detector only (exit 1 on bugs)
 *   hippoc prog.pmir --static-check       # static dataflow checker only
 *                                         #   (no execution; exit 1 on
 *                                         #    candidates)
 *   hippoc prog.pmir --static-filter      # run the static checker as a
 *                                         #   pre-filter ahead of repair
 *   hippoc prog.pmir --no-hoist           # intraprocedural fixes only
 *   hippoc prog.pmir --trace-aa           # Trace-AA heuristic
 *   hippoc prog.pmir --patch-plan         # source-level fix plan
 *   hippoc prog.pmir --clean-flushes      # drop redundant flushes (§7)
 *   hippoc prog.pmir --entry start        # entry point (default: main)
 *   hippoc prog.pmir --stats out.json     # write pipeline metrics
 *   hippoc a.pmir b.pmir --jobs 8         # repair modules in parallel
 *   hippoc prog.pmir --chaos 1 --torn-chance 0.05
 *                                         # adversarial crash
 *                                         #   exploration: torn-store
 *                                         #   fault injection
 *   hippoc prog.pmir --step-budget 100000 --time-budget 2000
 *                                         # watchdog budgets per
 *                                         #   execution (sandboxed)
 *   hippoc prog.pmir --recovery rec       # recovery entry for --chaos
 *                                         #   (default: the entry)
 *
 * With several input modules the full pipeline runs once per module,
 * one worker per program (--jobs N workers; default: one per
 * hardware thread), and reports print in argument order.
 *
 * Exit codes (documented in README "Exit codes"):
 *   0  success — no bugs, or all bugs repaired and re-check clean
 *   1  durability bugs found (--check-only/--static-check) or remain
 *   2  usage error: bad command line
 *   3  input error: unreadable/malformed/invalid module, bad entry,
 *      or a run that traps (division by zero, out-of-bounds access)
 *   4  resource error: pool exhausted, watchdog budget exceeded,
 *      output or stats file unwritable
 *   5  internal error: a caught invariant violation (tool bug)
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/durability_checker.hh"
#include "core/fixer.hh"
#include "core/flush_cleaner.hh"
#include "core/flush_optimizer.hh"
#include "core/patch_writer.hh"
#include "ir/parser.hh"
#include "ir/printer.hh"
#include "ir/verifier.hh"
#include "pmcheck/crash_explorer.hh"
#include "pmcheck/detector.hh"
#include "pmem/pm_pool.hh"
#include "support/errors.hh"
#include "support/metrics.hh"
#include "support/strings.hh"
#include "support/parallel.hh"
#include "vm/vm.hh"

using namespace hippo;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s <module.pmir>... [--entry NAME] [--check-only]\n"
        "          [--static-check] [--static-filter]\n"
        "          [--no-hoist] [--no-reduce] [--trace-aa]\n"
        "          [--clean-flushes] [--optimize] [--patch-plan]\n"
        "          [--stats OUT.json] [--jobs N] [-o OUT.pmir]\n"
        "          [--chaos SEED] [--torn-chance P]\n"
        "          [--step-budget N] [--time-budget MS]\n"
        "          [--recovery NAME]\n"
        "          [--schedules N] [--preempt-bound N]\n",
        argv0);
    std::exit(2);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        support::throwInputError("cannot open %s", path.c_str());
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Everything one pipeline run needs, shared read-only by workers. */
struct Options
{
    std::string output, entry = "main";
    std::string statsPath; ///< --stats: write metrics JSON here
    bool checkOnly = false, patchPlan = false;
    bool staticCheck = false, staticFilter = false;
    bool cleanFlushes = false;
    bool optimize = false;  ///< --optimize: verified flush/fence opt
    bool chaos = false;     ///< --chaos: adversarial exploration
    uint64_t schedules = 64;   ///< --schedules (threaded modules)
    uint32_t preemptBound = 2; ///< --preempt-bound (threaded modules)
    std::string recovery;   ///< --recovery (default: the entry)
    core::FixerConfig cfg;  ///< also carries faults + budgets
};

/** Watchdog VmConfig shared by the pipeline's own executions. Always
 *  sandboxed, so a runtime trap (division by zero, an out-of-bounds
 *  access) is an input error whether or not a budget is set. */
vm::VmConfig
watchdogVmConfig(const Options &opt)
{
    vm::VmConfig vc;
    vc.sandbox = true;
    vc.stepBudget = opt.cfg.stepBudget;
    vc.heapBudget = opt.cfg.heapBudget;
    vc.timeBudgetMs = opt.cfg.timeBudgetMs;
    return vc;
}

/**
 * Map a non-Ok sandboxed run onto the exit-code taxonomy: budget
 * exhaustion is a resource error (4), a trap means the module itself
 * misbehaves — an input error (3).
 */
void
requireOk(const vm::RunResult &run, const std::string &input,
          const char *stage)
{
    if (run.ok())
        return;
    if (run.outcome == vm::ExecOutcome::Trap)
        support::throwInputError("%s: %s: %s", input.c_str(), stage,
                                 run.diag.c_str());
    support::throwResourceError("%s: %s: %s", input.c_str(), stage,
                                run.diag.c_str());
}

/** A compact digest callers can compare across --jobs settings
 *  (pmcheck::recoveryDigest — shared with the flush optimizer's
 *  differential harness). */
uint64_t
outcomeDigest(const pmcheck::ExplorationResult &res)
{
    return pmcheck::recoveryDigest(res);
}

/**
 * The full Fig. 2 pipeline on one module. Output is buffered into
 * @p out / @p err so concurrent pipelines don't interleave; the
 * caller prints the buffers in argument order.
 */
int
processModuleImpl(const std::string &input, const Options &opt,
                  std::string &out, std::string &err)
{
    std::string error;
    auto m = ir::parseModule(readFile(input), &error);
    if (!m)
        support::throwInputError("%s: parse error: %s", input.c_str(),
                                 error.c_str());
    auto problems = ir::verifyModule(*m);
    if (!problems.empty())
        support::throwInputError("%s: invalid module: %s",
                                 input.c_str(),
                                 problems.front().c_str());
    // The entry, and the recovery function wherever a stage runs it,
    // are run with no arguments.
    auto check_runnable = [&](const std::string &name, const char *role) {
        ir::Function *f = m->findFunction(name);
        if (!f)
            support::throwInputError("%s: no %s function @%s",
                                     input.c_str(), role, name.c_str());
        if (f->numParams() != 0)
            support::throwInputError(
                "%s: %s function @%s takes %zu parameter(s); it must "
                "take none", input.c_str(), role, name.c_str(),
                f->numParams());
    };
    check_runnable(opt.entry, "entry");
    if ((opt.chaos || opt.optimize) && !opt.recovery.empty())
        check_runnable(opt.recovery, "recovery");

    auto &metrics = support::MetricsRegistry::global();

    // Static-only mode: no execution at all — report the dataflow
    // checker's candidates and stop (exit 1 when any exist).
    if (opt.staticCheck) {
        analysis::StaticCheckerConfig scfg;
        scfg.entry = opt.entry;
        auto sreport = analysis::checkDurability(*m, scfg);
        sreport.exportMetrics(metrics);
        metrics.counter("pipeline.modules").inc();
        out += sreport.writeText();
        return sreport.clean() ? 0 : 1;
    }

    // Pre-filter mode: run the static checker first so repair
    // verification can prioritize the flagged durability points.
    analysis::StaticReport sreport;
    core::FixerConfig fcfg = opt.cfg;
    if (opt.staticFilter) {
        analysis::StaticCheckerConfig scfg;
        scfg.entry = opt.entry;
        sreport = analysis::checkDurability(*m, scfg);
        sreport.exportMetrics(metrics);
        fcfg.staticReport = &sreport;
        out += format("static pre-filter: %zu candidate(s), "
                      "%zu priority durpoint label(s)\n",
                      sreport.candidates.size(),
                      sreport.durLabels().size());
    }

    // Step 1 (Fig. 2): run the bug finder — sandboxed under the
    // watchdog budgets, so a runaway module exits with a structured
    // diagnostic instead of spinning forever.
    pmem::PmPool pool(64u << 20);
    vm::VmConfig vc = watchdogVmConfig(opt);
    vc.traceEnabled = true;
    vm::Vm machine(m.get(), &pool, vc);
    requireOk(machine.run(opt.entry), input, "bug-finder run");
    auto report = pmcheck::analyze(machine.trace());
    machine.exportMetrics(metrics);
    report.exportMetrics(metrics);
    metrics.counter("pipeline.modules").inc();

    out += report.writeText();
    if (opt.checkOnly)
        return report.clean() ? 0 : 1;
    if (report.clean()) {
        out += "no durability bugs; nothing to fix\n";
    } else {
        // Steps 2-4: repair.
        core::Fixer fixer(m.get(), fcfg);
        auto summary = fixer.fix(report, machine.trace(),
                                 &machine.dynPointsTo());
        summary.exportMetrics(metrics);
        out += "\n" + summary.str() + "\n";
        for (const auto &f : summary.fixes)
            out += "  " + f.str() + "\n";
        if (opt.patchPlan)
            out += "\n" + core::renderPatchPlan(*m, summary);

        // Validate: the repaired module must re-check clean.
        pmem::PmPool vpool(64u << 20);
        vm::Vm check(m.get(), &vpool, vc);
        requireOk(check.run(opt.entry), input, "re-check run");
        auto after = pmcheck::analyze(check.trace());
        check.exportMetrics(metrics, "reverify.vm");
        after.exportMetrics(metrics, "reverify.pmcheck");
        metrics.counter("pipeline.reverify_passes").inc();
        metrics.counter("pipeline.reverify_clean").inc(after.clean());
        if (!after.clean()) {
            err += format("hippoc: %s: %zu bug(s) remain after "
                          "repair\n",
                          input.c_str(), after.bugs.size());
            return 1;
        }
        out += "\nre-check: clean\n";
    }

    if (opt.cleanFlushes) {
        auto stats = core::cleanRedundantFlushes(m.get());
        stats.exportMetrics(metrics);
        out += format("flush cleaner: removed %zu redundant "
                      "flush(es), kept %zu\n",
                      stats.flushesRemoved, stats.flushesKept);
    }

    // Verified flush/fence optimization (--optimize): run the global
    // optimizer, then prove the optimized module equivalent — same
    // pmcheck report, same static-checker candidates, byte-identical
    // crash-recovery digests — or revert it. Reverting is success:
    // the stage's contract is "do no harm", not "always shrink".
    if (opt.optimize) {
        core::FlushOptVerifyConfig oc;
        oc.entry = opt.entry;
        oc.recovery = opt.recovery;
        oc.jobs = opt.cfg.jobs;
        if (opt.chaos)
            oc.faults = opt.cfg.faults;
        oc.stepBudget = opt.cfg.stepBudget;
        oc.heapBudget = opt.cfg.heapBudget;
        oc.timeBudgetMs = opt.cfg.timeBudgetMs;
        auto outcome = core::optimizeAndVerify(m, oc);
        outcome.exportMetrics(metrics);
        if (outcome.reverted)
            out += format("flush optimizer: reverted (%s)\n",
                          outcome.failReason.c_str());
        else if (!outcome.changed && !outcome.failReason.empty())
            out += format("flush optimizer: skipped (%s)\n",
                          outcome.failReason.c_str());
        else
            out += format("flush optimizer: %s%s\n",
                          outcome.stats.str().c_str(),
                          outcome.changed ? ", verified" : "");
    }

    // Adversarial crash exploration (--chaos): torn-store fault
    // injection over the (possibly repaired) module, recovery
    // sandboxed under the watchdog budgets. The digest is a pure
    // function of the FaultPlan and the module, so it is identical
    // at every --jobs setting.
    if (opt.chaos) {
        pmcheck::CrashExplorerConfig cc;
        cc.entry = opt.entry;
        cc.recovery = opt.recovery.empty() ? opt.entry : opt.recovery;
        cc.jobs = opt.cfg.jobs;
        cc.seed = opt.cfg.faults.seed;
        cc.faults = opt.cfg.faults;
        cc.stepBudget = opt.cfg.stepBudget;
        cc.heapBudget = opt.cfg.heapBudget;
        cc.timeBudgetMs = opt.cfg.timeBudgetMs;
        cc.schedules = opt.schedules;
        cc.preemptBound = opt.preemptBound;
        auto res = pmcheck::exploreCrashes(m.get(), cc);
        metrics.counter("pipeline.chaos_runs").inc();
        out += format("chaos: seed=%llu torn-chance=%.3f "
                      "crash-points=%zu unverified=%llu "
                      "clean=%llu min=%llu max=%llu "
                      "digest=%016llx\n",
                      (unsigned long long)opt.cfg.faults.seed,
                      opt.cfg.faults.tornChance,
                      res.outcomes.size(),
                      (unsigned long long)res.unverifiedCount(),
                      (unsigned long long)res.cleanRunRecovered,
                      (unsigned long long)res.minRecovered(),
                      (unsigned long long)res.maxRecovered(),
                      (unsigned long long)outcomeDigest(res));
        if (res.schedulesExecuted)
            out += format(
                "interleave: schedules=%llu/%llu degraded=%llu "
                "races=%llu race-crashes=%llu visible-ops=%llu\n",
                (unsigned long long)res.schedulesExecuted,
                (unsigned long long)res.schedulesPlanned,
                (unsigned long long)res.schedulesDegraded,
                (unsigned long long)res.racesObserved,
                (unsigned long long)res.raceCrashCount(),
                (unsigned long long)res.visibleOpsInRun);
    }

    if (!opt.output.empty()) {
        std::ofstream ofs(opt.output);
        if (!ofs)
            support::throwResourceError("cannot write %s",
                                        opt.output.c_str());
        ir::printModule(*m, ofs);
        out += format("wrote %s\n", opt.output.c_str());
    }
    return 0;
}

/**
 * Exception boundary per module: workers never unwind into
 * parallelFor. HippoError carries its own exit code; anything else
 * escaping the pipeline is a tool bug (internal error, exit 5).
 */
int
processModule(const std::string &input, const Options &opt,
              std::string &out, std::string &err)
{
    try {
        return processModuleImpl(input, opt, out, err);
    } catch (const support::HippoError &e) {
        err += format("hippoc: %s: %s\n",
                      support::errorKindName(e.kind()), e.what());
        return e.exitCode();
    } catch (const std::exception &e) {
        err += format("hippoc: %s: internal error: %s\n",
                      input.c_str(), e.what());
        return support::errorExitCode(support::ErrorKind::Internal);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> inputs;
    Options opt;

    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        if (arg == "--entry" && i + 1 < argc) {
            opt.entry = argv[++i];
        } else if (arg == "-o" && i + 1 < argc) {
            opt.output = argv[++i];
        } else if (arg == "--jobs" && i + 1 < argc) {
            opt.cfg.jobs = (unsigned)std::atoi(argv[++i]);
        } else if (arg == "--check-only") {
            opt.checkOnly = true;
        } else if (arg == "--static-check") {
            opt.staticCheck = true;
        } else if (arg == "--static-filter") {
            opt.staticFilter = true;
        } else if (arg == "--no-hoist") {
            opt.cfg.enableHoisting = false;
        } else if (arg == "--no-reduce") {
            opt.cfg.enableReduction = false;
        } else if (arg == "--trace-aa") {
            opt.cfg.aaMode = analysis::AaMode::TraceAA;
        } else if (arg == "--clean-flushes") {
            opt.cleanFlushes = true;
        } else if (arg == "--optimize") {
            opt.optimize = true;
        } else if (arg == "--patch-plan") {
            opt.patchPlan = true;
        } else if (arg == "--stats" && i + 1 < argc) {
            opt.statsPath = argv[++i];
        } else if (arg == "--chaos" && i + 1 < argc) {
            opt.chaos = true;
            opt.cfg.faults.seed =
                (uint64_t)std::strtoull(argv[++i], nullptr, 10);
            if (opt.cfg.faults.tornChance <= 0)
                opt.cfg.faults.tornChance = 0.5;
        } else if (arg == "--torn-chance" && i + 1 < argc) {
            opt.cfg.faults.tornChance = std::atof(argv[++i]);
        } else if (arg == "--step-budget" && i + 1 < argc) {
            opt.cfg.stepBudget =
                (uint64_t)std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--time-budget" && i + 1 < argc) {
            opt.cfg.timeBudgetMs =
                (uint64_t)std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--recovery" && i + 1 < argc) {
            opt.recovery = argv[++i];
        } else if (arg == "--schedules" && i + 1 < argc) {
            opt.schedules =
                (uint64_t)std::strtoull(argv[++i], nullptr, 10);
            if (!opt.schedules) {
                std::fprintf(stderr,
                             "hippoc: --schedules must be >= 1 "
                             "(got '%s')\n",
                             argv[i]);
                return 2;
            }
        } else if (arg == "--preempt-bound" && i + 1 < argc) {
            opt.preemptBound =
                (uint32_t)std::strtoul(argv[++i], nullptr, 10);
        } else if (arg[0] == '-') {
            usage(argv[0]);
        } else {
            inputs.push_back(arg);
        }
    }
    if (inputs.empty())
        usage(argv[0]);
    if (inputs.size() > 1 && !opt.output.empty()) {
        std::fprintf(stderr,
                     "hippoc: -o requires a single input module\n");
        return 2;
    }

    std::vector<std::string> outs(inputs.size()),
        errs(inputs.size());
    std::vector<int> codes(inputs.size(), 0);
    auto one = [&](uint64_t i) {
        codes[i] = processModule(inputs[i], opt, outs[i], errs[i]);
    };

    unsigned jobs = support::resolveJobs(opt.cfg.jobs);
    jobs = (unsigned)std::min<size_t>(jobs, inputs.size());
    support::parallelFor(jobs, 0, inputs.size(), one);

    int rc = 0;
    for (size_t i = 0; i < inputs.size(); i++) {
        if (inputs.size() > 1)
            std::printf("==> %s <==\n", inputs[i].c_str());
        std::fputs(outs[i].c_str(), stdout);
        std::fputs(errs[i].c_str(), stderr);
        rc = std::max(rc, codes[i]);
    }

    if (!opt.statsPath.empty()) {
        std::string error;
        if (!support::writeStatsJson(
                opt.statsPath, support::MetricsRegistry::global(),
                {{"tool", "hippoc"},
                 {"modules", std::to_string(inputs.size())},
                 {"jobs", std::to_string(jobs)}},
                &error)) {
            // The pipeline ran; only the metrics file failed.
            std::fprintf(stderr, "hippoc: resource error: %s\n",
                         error.c_str());
            return support::errorExitCode(
                support::ErrorKind::Resource);
        }
    }
    return rc;
}
