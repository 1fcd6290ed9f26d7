/**
 * @file
 * repair-pipeline: one request takes one of the 15 Fig. 5 targets'
 * PMIR text through hippoc's default repair path as library calls —
 * parse, verify, the static pre-filter, a traced bug-finder run,
 * detection, the fixer, and a re-check run plus detection.
 *
 * The cycle always visits the targets in the same order. The seed
 * sets pmkv's YCSB load and run streams only: every cycle covers
 * every target, so a shuffled order would add no input variety, just
 * a seed-dependent allocation history (seeded orders moved peak RSS
 * by up to 30%).
 */

#include <map>

#include "analysis/durability_checker.hh"
#include "apps/bugsuite.hh"
#include "apps/kv_driver.hh"
#include "apps/pclht.hh"
#include "apps/pmcache.hh"
#include "apps/pmkv.hh"
#include "apps/pmlog.hh"
#include "core/fixer.hh"
#include "ir/parser.hh"
#include "ir/printer.hh"
#include "ir/verifier.hh"
#include "pmcheck/detector.hh"
#include "support/random.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace hippo;
using pmcheck::BugKind;

/** Pool size of hippoc's bug-finder and re-check runs. */
constexpr uint64_t kPoolBytes = 64u << 20;

/** pmkv target: YCSB records loaded, then YCSB-A operations, traced
 *  under the bug finder (half the Fig. 5 Redis row's trace). */
constexpr uint64_t kKvRecords = 200;
constexpr uint64_t kKvOps = 200;

/** Argument of the apps' example entry functions (as in Fig. 5). */
constexpr uint64_t kExampleN = 64;

struct Target
{
    std::string text; ///< printed PMIR: the request's input
    std::string entry;
    std::vector<uint64_t> args;
    bool kv = false; ///< driven through apps::KvDriver

    /// @name Hand-written reference
    /// @{
    /** PMDK reproducers: the first bug's kind and the fix class
     *  (BugCase::expectedKind / expectedHippoKind). */
    bool reproducer = false;
    BugKind firstKind = BugKind::MissingFlush;
    core::FixKind fixClass = core::FixKind::IntraFlush;
    /** Applications: the seeded bugs, counted by kind, as each
     *  application documents them. Empty = only "some bug". */
    std::map<BugKind, size_t> seeded;
    /// @}
};

/** Fix class of a summary, classified like apps::evaluateCase. */
core::FixKind
fixClass(const core::FixSummary &s)
{
    core::FixKind k = core::FixKind::IntraFlush;
    for (const auto &f : s.fixes) {
        if (f.kind == core::FixKind::Interprocedural)
            return f.kind;
        k = f.kind;
    }
    return k;
}

std::map<BugKind, size_t>
countKinds(const pmcheck::Report &r)
{
    std::map<BugKind, size_t> out;
    for (const auto &b : r.bugs)
        out[b.kind]++;
    return out;
}

class RepairPipeline : public Workload
{
  public:
    RepairPipeline(uint64_t seed, bool corrupt)
        : loadSeed_(deriveSeed(seed, 1)), runSeed_(deriveSeed(seed, 2))
    {
        for (const auto &c : apps::pmdkBugCases()) {
            Target t;
            t.text = ir::moduleToString(*c.build(false));
            t.entry = c.entry;
            t.reproducer = true;
            t.firstKind = c.expectedKind;
            t.fixClass = c.expectedHippoKind;
            targets_.push_back(std::move(t));
        }
        // pclht.hh: pclht-1 missing-flush, pclht-2 missing-flush&fence.
        addApp(*apps::buildPclht({}), "clht_example",
               {{BugKind::MissingFlush, 1},
                {BugKind::MissingFlushFence, 1}});
        // pmcache.hh: mc-1..mc-7 missing-flush, mc-8 missing-fence,
        // mc-9 and mc-10 missing-flush&fence.
        addApp(*apps::buildPmcache({}), "mc_example",
               {{BugKind::MissingFlush, 7},
                {BugKind::MissingFence, 1},
                {BugKind::MissingFlushFence, 2}});
        // pmlog.hh: three seeded bugs on the append path; the buggy
        // build drops their flushes and keeps the fence.
        addApp(*apps::buildPmlog({}), "log_example",
               {{BugKind::MissingFlush, 3}});
        {
            Target t;
            t.text = ir::moduleToString(*apps::buildPmkv({}));
            t.entry = "kv_handle_set";
            t.kv = true;
            targets_.push_back(std::move(t));
        }
        if (corrupt)
            targets_[0].firstKind =
                targets_[0].firstKind == BugKind::MissingFence
                    ? BugKind::MissingFlush
                    : BugKind::MissingFence;
    }

    uint64_t cycleLength() const override { return targets_.size(); }

    void
    warmUp() override
    {
        request(0, nullptr, nullptr);
        simNs_ = 0;
    }

    bool
    request(uint64_t i, Tracer *t, LayerSums *layers) override
    {
        return repair(targets_[i % targets_.size()], t, layers);
    }

    double
    simOpsPerSecond(uint64_t requests) const override
    {
        return simNs_ > 0 ? (double)requests / (simNs_ * 1e-9) : 0;
    }

    void
    layerMetrics(const LayerSums &s, double n, Metrics &out) const override
    {
        for (const char *k :
             {"analysis.static_candidates", "vm.steps", "trace.events",
              "pmcheck.bugs", "core.fixes"})
            out[k] = s.count(k) ? s.at(k) / n : 0;
    }

  private:
    void
    addApp(const ir::Module &m, const std::string &entry,
           std::map<BugKind, size_t> seeded)
    {
        Target t;
        t.text = ir::moduleToString(m);
        t.entry = entry;
        t.args = {kExampleN};
        t.seeded = std::move(seeded);
        targets_.push_back(std::move(t));
    }

    /** The pool and VM of one traced run (pmkv's VM is KvDriver's). */
    struct Run
    {
        std::unique_ptr<pmem::PmPool> pool;
        std::unique_ptr<apps::KvDriver> kv; ///< kv targets
        std::unique_ptr<vm::Vm> vm;             ///< other targets
        vm::Vm &machine() { return kv ? kv->vm() : *vm; }
    };

    /** Run the target's workload, traced, on a fresh pool and VM. */
    Run
    execute(const Target &tg, ir::Module *m, Tracer *t)
    {
        Run r;
        {
            Scope s(t, "pmem.pool_construct");
            r.pool = std::make_unique<pmem::PmPool>(kPoolBytes);
        }
        vm::VmConfig vc;
        vc.traceEnabled = true;
        {
            Scope s(t, "vm.construct");
            if (tg.kv)
                r.kv = std::make_unique<apps::KvDriver>(m, r.pool.get(),
                                                        vc);
            else
                r.vm = std::make_unique<vm::Vm>(m, r.pool.get(), vc);
        }
        Scope s(t, "vm.run");
        if (tg.kv) {
            r.kv->init();
            r.kv->run(ycsb::Workload::Load, kKvRecords, kKvRecords,
                      loadSeed_);
            r.kv->run(ycsb::Workload::A, kKvRecords, kKvOps, runSeed_);
        } else {
            r.vm->run(tg.entry, tg.args);
        }
        return r;
    }

    bool
    repair(const Target &tg, Tracer *t, LayerSums *layers)
    {
        std::unique_ptr<ir::Module> m;
        {
            Scope s(t, "ir.parse");
            m = ir::parseModule(tg.text);
        }
        if (!m)
            return false;
        bool verified;
        {
            Scope s(t, "ir.verify");
            verified = ir::verifyModule(*m).empty();
        }
        analysis::StaticReport sreport;
        {
            Scope s(t, "analysis.static_check");
            analysis::StaticCheckerConfig scfg;
            scfg.entry = tg.entry;
            sreport = analysis::checkDurability(*m, scfg);
        }

        Run first = execute(tg, m.get(), t);
        pmcheck::Report report;
        {
            Scope s(t, "pmcheck.detect");
            report = pmcheck::analyze(first.machine().trace());
        }
        core::FixSummary summary;
        {
            Scope s(t, "core.fix");
            core::FixerConfig fcfg;
            fcfg.jobs = 1;
            fcfg.staticReport = &sreport;
            core::Fixer fixer(m.get(), fcfg);
            summary = fixer.fix(report, first.machine().trace(),
                                &first.machine().dynPointsTo());
        }

        Run check = execute(tg, m.get(), t);
        pmcheck::Report after;
        {
            Scope s(t, "pmcheck.detect");
            after = pmcheck::analyze(check.machine().trace());
        }
        simNs_ += check.machine().simNanos();

        if (layers) {
            auto &l = *layers;
            l["analysis.static_candidates"] += sreport.candidates.size();
            l["vm.steps"] += first.machine().steps() +
                             check.machine().steps();
            l["trace.events"] += first.machine().trace().size() +
                                 check.machine().trace().size();
            l["pmcheck.bugs"] += report.bugs.size();
            l["core.fixes"] += summary.fixes.size();
        }

        bool detected;
        if (tg.reproducer)
            detected = !report.clean() &&
                       report.bugs[0].kind == tg.firstKind &&
                       fixClass(summary) == tg.fixClass;
        else if (!tg.seeded.empty())
            detected = countKinds(report) == tg.seeded;
        else
            detected = !report.clean() && !summary.fixes.empty();
        return verified && detected && after.clean();
    }

    std::vector<Target> targets_;
    uint64_t loadSeed_, runSeed_;
    double simNs_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeRepairPipeline(const RunOptions &opt)
{
    return std::make_unique<RepairPipeline>(opt.seed, opt.corrupt);
}

} // namespace perfbench
