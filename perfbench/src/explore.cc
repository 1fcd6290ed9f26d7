/**
 * @file
 * The two exploration workloads. One request is one
 * pmcheck::exploreCrashes call, single-worker:
 *
 *  - crash-explore: the snapshot engine, durpoints plus a step
 *    stride, over programs repaired in set-up (pmlog, P-CLHT,
 *    pmcache, the 11 PMDK reproducers);
 *  - interleave-explore: racekv's bounded schedule space at preempt
 *    bound 2 with torn faults, alternating the buggy and the
 *    developer-fixed builds over a few slot counts.
 *
 * Explorer work is read from the explorer.* registry counters only:
 * the explorer's replay VMs never export their vm.* counters, so
 * vm.* registry totals omit all exploration work.
 */

#include <map>

#include "apps/bugsuite.hh"
#include "apps/pclht.hh"
#include "apps/pmcache.hh"
#include "apps/pmlog.hh"
#include "apps/racekv.hh"
#include "core/fixer.hh"
#include "pmcheck/crash_explorer.hh"
#include "pmcheck/detector.hh"
#include "support/random.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace hippo;

/** Crash points planned at most per exploration (never reached by
 *  these programs, so every durpoint and stride point runs). */
constexpr uint64_t kMaxCrashes = 1u << 20;

/** Schedule-plan budget per racekv exploration: small requests. */
constexpr uint64_t kSchedules = 8;

/** One program a request explores, with its hand-written reference. */
struct Program
{
    std::unique_ptr<ir::Module> module;
    pmcheck::CrashExplorerConfig config;
    /** Recovery after a clean (crash-free) run, written by hand. */
    uint64_t cleanRecovered = 0;
    /** Durpoint recovery must never decrease (append-only). */
    bool monotone = false;
    /** racekv: the buggy build must fork >= 1 race crash; the fixed
     *  build must see no race. */
    bool racy = false;
    bool threaded = false;
    double simNs = 0; ///< one clean entry run, simulated
};

/** Simulated ns of one entry run of @p p's module (for
 *  sim_ops_per_s; never a reference). */
double
simulatedEntryNs(const Program &p)
{
    pmem::PmPool pool(p.config.poolBytes);
    vm::Vm machine(p.module.get(), &pool);
    machine.run(p.config.entry, p.config.entryArgs);
    return machine.simNanos();
}

/**
 * What each PMDK reproducer's test_main returns when it re-runs as
 * recovery on the pool a clean, repaired run left behind: the value
 * its final load reads back, from the reproducer's source
 * (apps/bugsuite.cc).
 */
const std::map<std::string, uint64_t> kReproducerRecovery = {
    // The 64-byte pool header is the 0x5A scratch buffer.
    {"pmdk-447", 0x5A5A5A5A5A5A5A5AULL},
    // The oid is seeded with 0xDEAD and then cleared.
    {"pmdk-452", 0},
    // The head points at the node written at offset 64.
    {"pmdk-458", 64},
    // The tail counter persisted as 1; the re-run inserts once more.
    {"pmdk-459", 2},
    // head -> 64 -> 128; unlinking the head leaves 128.
    {"pmdk-460", 128},
    // User data at offset 16 is the 0x33 payload.
    {"pmdk-461", 0x3333333333333333ULL},
    // meta_write stores i * 0x9E37 at slot i: slot 0 holds 0.
    {"pmdk-585", 0},
    {"pmdk-940", 0xFACE},
    // The object is the 0x42 input buffer.
    {"pmdk-942", 0x4242424242424242ULL},
    // The version persisted as 1; the re-run bumps it to 2.
    {"pmdk-943", 2},
    // buf_fill(pool, 11) stores the seed 11 first.
    {"pmdk-945", 11},
};

/** A seeded permutation of [0, n): the order of a cycle. */
std::vector<size_t>
seededOrder(size_t n, uint64_t seed)
{
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; i++)
        order[i] = i;
    Rng rng(seed);
    for (size_t i = n; i > 1; i--)
        std::swap(order[i - 1], order[rng.nextBelow(i)]);
    return order;
}

/** Repair @p m in place: traced run, detection, fix. */
void
repair(ir::Module *m, const std::string &entry,
       const std::vector<uint64_t> &args)
{
    pmem::PmPool pool(64u << 20);
    vm::VmConfig vc;
    vc.traceEnabled = true;
    vm::Vm machine(m, &pool, vc);
    machine.run(entry, args);
    auto report = pmcheck::analyze(machine.trace());
    core::FixerConfig fc;
    fc.jobs = 1;
    core::Fixer(m, fc).fix(report, machine.trace(),
                           &machine.dynPointsTo());
}

/** Shared request loop of both exploration workloads. */
class ExploreWorkload : public Workload
{
  public:
    uint64_t cycleLength() const override { return programs_.size(); }

    void
    warmUp() override
    {
        explore(programs_[warmIndex_], nullptr, nullptr);
        simNs_ = 0;
    }

    bool
    request(uint64_t i, Tracer *t, LayerSums *layers) override
    {
        return explore(programs_[order_[i % order_.size()]], t, layers);
    }

    double
    simOpsPerSecond(uint64_t requests) const override
    {
        return simNs_ > 0 ? (double)requests / (simNs_ * 1e-9) : 0;
    }

    void
    layerMetrics(const LayerSums &s, double n, Metrics &out) const override
    {
        auto get = [&](const char *k) {
            return s.count(k) ? s.at(k) : 0.0;
        };
        double points = get("explorer.crash_points.total");
        double outcomes = get("outcomes");
        out["explorer.crash_points"] = points / n;
        out["explorer.replay_us_per_point"] =
            points > 0 ? get("timer:explorer.replay_ns") / 1e3 / points
                       : 0;
        out["explorer.profile_us"] =
            get("timer:explorer.profile_ns") / 1e3 / n;
        out["explorer.recovery_steps_per_point"] =
            points > 0 ? get("explorer.recovery.steps") / points : 0;
        out["explorer.snapshot_forks"] =
            get("explorer.snapshot.count") / n;
        out["explorer.pages_copied"] =
            get("explorer.snapshot.pages_copied") / n;
        out["explorer.unverified_frac"] =
            outcomes > 0 ? get("unverified") / outcomes : 0;
        for (const char *k :
             {"explorer.sched.executed", "explorer.sched.race_crashes",
              "explorer.sched.degraded", "explorer.sched.visible_ops"})
            out[k] = get(k) / n;
        out["vm.sched.wait_us"] = get("wait_ns") / 1e3 / n;
    }

  protected:
    /** Finish set-up: simulated times, cycle order, warm-up
     *  program. */
    void
    seal(uint64_t seed, size_t warm_index)
    {
        for (auto &p : programs_)
            p.simNs = simulatedEntryNs(p);
        order_ = seededOrder(programs_.size(), deriveSeed(seed, 0));
        warmIndex_ = warm_index;
    }

    std::vector<Program> programs_;

  private:
    bool
    explore(const Program &p, Tracer *t, LayerSums *layers)
    {
        static const std::vector<std::string> kCounters = {
            "explorer.crash_points.total",
            "timer:explorer.replay_ns",
            "timer:explorer.profile_ns",
            "explorer.recovery.steps",
            "explorer.snapshot.count",
            "explorer.snapshot.pages_copied",
            "explorer.sched.executed",
            "explorer.sched.race_crashes",
            "explorer.sched.degraded",
            "explorer.sched.visible_ops",
        };
        if (layers && !delta_)
            delta_ = std::make_unique<RegistryDelta>(kCounters);
        if (layers)
            delta_->begin();
        int64_t wall0 = nowNs(), cpu0 = processCpuNs();
        pmcheck::ExplorationResult res;
        {
            Scope s(t, "pmcheck.explore");
            res = pmcheck::exploreCrashes(p.module.get(), p.config);
        }
        if (layers) {
            auto &l = *layers;
            delta_->addTo(l);
            l["wait_ns"] += (double)((nowNs() - wall0) -
                                     (processCpuNs() - cpu0));
            l["outcomes"] += res.outcomes.size();
            l["unverified"] += res.unverifiedCount();
        }
        simNs_ += p.simNs;

        bool ok = res.unverifiedCount() == 0;
        if (p.threaded) {
            ok = ok && res.schedulesDegraded == 0 &&
                 (p.racy ? res.raceCrashCount() >= 1
                         : res.racesObserved == 0 &&
                               res.cleanRunRecovered == p.cleanRecovered);
        } else {
            ok = ok && res.cleanRunRecovered == p.cleanRecovered;
        }
        if (p.monotone)
            ok = ok && res.durPointRecoveryNonDecreasing();
        return ok;
    }

    std::vector<size_t> order_;
    size_t warmIndex_ = 0;
    double simNs_ = 0;
    std::unique_ptr<RegistryDelta> delta_;
};

class CrashExplore : public ExploreWorkload
{
  public:
    CrashExplore(uint64_t seed, bool corrupt)
    {
        uint64_t xseed = deriveSeed(seed, 3);
        // pmlog appends n entries and walks them: recovers n.
        for (uint64_t n : {16, 32}) {
            apps::PmlogConfig lc;
            auto &p = add(apps::buildPmlog(lc), "log_example", {n},
                          "log_walk", 64, xseed);
            p.cleanRecovered = n;
            p.monotone = true;
        }
        // clht_example(16) inserts keys 1..16, then deletes every
        // third: 16 - 5 survive.
        add(apps::buildPclht({}), "clht_example", {16},
            "clht_recover", 64, xseed)
            .cleanRecovered = 11;
        // mc_example(16) sets keys 1..16, then deletes 2, 6, 10, 14.
        add(apps::buildPmcache({}), "mc_example", {16},
            "mc_recover", 64, xseed)
            .cleanRecovered = 12;
        // The reproducers re-run their test as recovery, one durpoint
        // each.
        for (const auto &c : apps::pmdkBugCases()) {
            auto &p = add(c.build(false), c.entry, {}, c.entry, 13, xseed);
            p.cleanRecovered = kReproducerRecovery.at(c.id);
            p.monotone = true;
        }
        if (corrupt)
            programs_[0].cleanRecovered++;
        seal(seed, 0);
    }

  private:
    Program &
    add(std::unique_ptr<ir::Module> m, const std::string &entry,
        std::vector<uint64_t> args, const std::string &recovery,
        uint64_t stride, uint64_t xseed)
    {
        repair(m.get(), entry, args);
        Program p;
        p.module = std::move(m);
        auto &xc = p.config;
        xc.entry = entry;
        xc.entryArgs = std::move(args);
        xc.recovery = recovery;
        xc.stepStride = stride;
        xc.maxCrashes = kMaxCrashes;
        xc.engine = pmcheck::ExploreEngine::Snapshot;
        xc.jobs = 1;
        xc.seed = xseed;
        programs_.push_back(std::move(p));
        return programs_.back();
    }
};

class InterleaveExplore : public ExploreWorkload
{
  public:
    InterleaveExplore(uint64_t seed, bool corrupt)
    {
        // Five programs, so that p50 and p90 fall inside one
        // program's latencies rather than between two.
        const std::pair<uint32_t, bool> builds[] = {
            {2, false}, {2, true}, {3, false}, {3, true}, {4, false}};
        for (auto [slots, fixed] : builds) {
            apps::RaceKvBuild b;
            b.slots = slots;
            b.flushSlots = b.flushCount = fixed;
            Program p;
            p.module = apps::buildRaceKv(b);
            p.threaded = true;
            p.racy = !fixed;
            // The fixed build recovers every published slot as valid.
            p.cleanRecovered = fixed ? slots : 0;
            auto &xc = p.config;
            xc.entry = apps::raceKvEntry;
            xc.recovery = apps::raceKvRecovery;
            xc.poolBytes = apps::raceKvPoolBytes;
            xc.jobs = 1;
            xc.seed = deriveSeed(seed, 3);
            xc.faults.seed = deriveSeed(seed, 4);
            xc.faults.tornChance = 0.5;
            xc.schedules = kSchedules;
            xc.preemptBound = 2;
            programs_.push_back(std::move(p));
        }
        if (corrupt)
            programs_[1].cleanRecovered++;
        seal(seed, 0);
    }
};

} // namespace

std::unique_ptr<Workload>
makeCrashExplore(const RunOptions &opt)
{
    return std::make_unique<CrashExplore>(opt.seed, opt.corrupt);
}

std::unique_ptr<Workload>
makeInterleaveExplore(const RunOptions &opt)
{
    return std::make_unique<InterleaveExplore>(opt.seed, opt.corrupt);
}

} // namespace perfbench
