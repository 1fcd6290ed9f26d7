/**
 * @file
 * Property-based tests: the executable analogue of the paper's
 * safety theorems. A generator produces random PM programs (random
 * mixes of direct stores, helper calls with PM/volatile pointers,
 * memcpys, flushes, fences, durability points, and prints); for
 * every program we check that Hippocrates
 *
 *   (1) leaves the module structurally valid,
 *   (2) eliminates every detected durability bug,
 *   (3) does no harm: the repaired program produces exactly the
 *       same outputs (also under random cache-eviction injection),
 *   (4) only *adds* instructions: every original instruction
 *       survives with its opcode, and call sites only ever get
 *       redirected to persistent clones of their original callees.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/flush_optimizer.hh"
#include "ir/parser.hh"
#include "ir/printer.hh"
#include "pmcheck/crash_explorer.hh"
#include "test_util.hh"

namespace hippo::test
{

using namespace hippo::ir;

namespace
{

/** Snapshot of (function -> id -> opcode/callee) for property (4). */
struct Snapshot
{
    std::map<std::string, std::map<uint32_t, Opcode>> ops;
    std::map<std::string, std::map<uint32_t, std::string>> callees;
};

Snapshot
takeSnapshot(const Module &m)
{
    Snapshot s;
    for (const auto &f : m.functions()) {
        for (const auto &bb : f->blocks()) {
            for (const auto &instr : *bb) {
                s.ops[f->name()][instr->id()] = instr->op();
                if (instr->callee())
                    s.callees[f->name()][instr->id()] =
                        instr->callee()->name();
            }
        }
    }
    return s;
}

std::vector<vm::ProgramOutput>
runWithEviction(ir::Module *m, double evict_chance, uint64_t seed)
{
    pmem::PmPool pool(1 << 20, evict_chance, seed);
    vm::Vm machine(m, &pool, {});
    machine.run("main");
    return machine.outputs();
}

} // namespace

class DoNoHarm : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(DoNoHarm, RandomProgramRepairIsSafeAndComplete)
{
    uint64_t seed = GetParam();
    auto m = generateProgram(seed);
    Snapshot before = takeSnapshot(*m);
    auto baseline_outputs = runWithEviction(m.get(), 0, 1);

    auto res = runPipeline(m.get(), "main");

    // (1) structurally valid
    EXPECT_TRUE(res.summary.verifierProblems.empty())
        << res.summary.verifierProblems.front();

    // (2) complete: re-check is clean
    EXPECT_TRUE(res.after.clean())
        << "seed " << seed << "\n" << res.after.writeText();

    // (3) do no harm: identical outputs, with and without eviction
    EXPECT_EQ(res.outputsBefore, res.outputsAfter) << "seed " << seed;
    EXPECT_EQ(runWithEviction(m.get(), 0, 1), baseline_outputs);
    EXPECT_EQ(runWithEviction(m.get(), 0.5, seed),
              baseline_outputs)
        << "eviction injection must not change repaired behavior";

    // (4) additive only: every original instruction survives with
    // its opcode; callees only move to persistent clones.
    Snapshot after = takeSnapshot(*m);
    for (const auto &[fn, ids] : before.ops) {
        for (const auto &[id, op] : ids) {
            auto fit = after.ops.find(fn);
            ASSERT_NE(fit, after.ops.end()) << fn;
            auto iit = fit->second.find(id);
            ASSERT_NE(iit, fit->second.end())
                << fn << "#" << id << " was removed";
            EXPECT_EQ(iit->second, op)
                << fn << "#" << id << " changed opcode";
        }
    }
    for (const auto &[fn, ids] : before.callees) {
        for (const auto &[id, callee] : ids) {
            const std::string &now = after.callees[fn][id];
            if (now != callee) {
                EXPECT_EQ(now.rfind(callee + "_PM", 0), 0u)
                    << fn << "#" << id << ": " << callee << " -> "
                    << now;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DoNoHarm,
                         ::testing::Range<uint64_t>(1, 33));

class DoNoHarmIntra : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(DoNoHarmIntra, HoldsWithHoistingDisabled)
{
    uint64_t seed = GetParam();
    auto m = generateProgram(seed);
    core::FixerConfig cfg;
    cfg.enableHoisting = false;
    auto res = runPipeline(m.get(), "main", cfg);
    EXPECT_TRUE(res.after.clean()) << "seed " << seed;
    EXPECT_EQ(res.outputsBefore, res.outputsAfter);
    EXPECT_EQ(res.summary.interproceduralCount(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DoNoHarmIntra,
                         ::testing::Range<uint64_t>(1, 17));

class DoNoHarmTraceAa : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(DoNoHarmTraceAa, HoldsUnderTraceAa)
{
    uint64_t seed = GetParam();
    auto m = generateProgram(seed);
    core::FixerConfig cfg;
    cfg.aaMode = analysis::AaMode::TraceAA;
    auto res = runPipeline(m.get(), "main", cfg);
    EXPECT_TRUE(res.after.clean()) << "seed " << seed;
    EXPECT_EQ(res.outputsBefore, res.outputsAfter);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DoNoHarmTraceAa,
                         ::testing::Range<uint64_t>(1, 17));

TEST(DoNoHarm, RepairsPersistMoreAndChangeNoMemory)
{
    // For several random programs: the repaired program must leave
    // exactly the same *contents* in PM (do no harm on program
    // state) while having strictly no fewer bytes durable at exit
    // (fixes only add durability). Both facts follow from fixes
    // being pure flush/fence/clone additions (Lemmas 1-2).
    for (uint64_t seed = 1; seed <= 12; seed++) {
        auto original = generateProgram(seed);
        auto repaired = generateProgram(seed);
        runPipeline(repaired.get(), "main");

        struct EndState
        {
            std::vector<uint8_t> cache;
            size_t persistedBytes = 0;
        };
        auto run_to_end = [](ir::Module *m) {
            pmem::PmPool pool(1 << 20);
            vm::Vm machine(m, &pool, {});
            machine.run("main");
            EndState s;
            s.cache.resize(1024);
            pool.load(pool.findRegion("rp1")->base, s.cache.data(),
                      512);
            pool.load(pool.findRegion("rp2")->base,
                      s.cache.data() + 512, 512);
            for (uint64_t a = 0; a < 1024; a++) {
                uint64_t addr =
                    (a < 512 ? pool.findRegion("rp1")->base
                             : pool.findRegion("rp2")->base - 512) +
                    a;
                s.persistedBytes += pool.isPersisted(addr, 1);
            }
            return s;
        };

        EndState orig = run_to_end(original.get());
        EndState rep = run_to_end(repaired.get());
        EXPECT_EQ(rep.cache, orig.cache)
            << "seed " << seed
            << ": repairs must not change memory contents";
        EXPECT_GE(rep.persistedBytes, orig.persistedBytes)
            << "seed " << seed
            << ": repairs may only add durability";
    }
}

namespace
{

/** Static flush count over a whole module. */
uint64_t staticFlushes(const Module &m)
{
    uint64_t n = 0;
    for (const auto &f : m.functions())
        for (const auto &bb : f->blocks())
            for (const auto &in : *bb)
                n += in->op() == Opcode::Flush;
    return n;
}

} // namespace

/**
 * Differential do-no-harm for the flush/fence optimizer: for random
 * repaired programs, the optimized module must (a) never contain
 * more flushes than the unoptimized one, and (b) be crash-for-crash
 * recovery-equivalent under exhaustive exploration, across both
 * exploration engines and serial/parallel scheduling.
 */
class OptimizerDoNoHarm : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(OptimizerDoNoHarm, OptimizedModuleExploresIdentically)
{
    const uint64_t seed = GetParam();
    std::unique_ptr<Module> m = generateProgram(seed);
    runPipeline(m.get(), "main");

    // Clone the repaired module through the textual round-trip so
    // the optimizer cannot share state with the baseline.
    std::string err;
    std::unique_ptr<Module> opt = ir::parseModule(ir::moduleToString(*m), &err);
    ASSERT_NE(opt, nullptr) << "seed " << seed << ": " << err;

    core::optimizeFlushes(opt.get());
    EXPECT_LE(staticFlushes(*opt), staticFlushes(*m))
        << "seed " << seed << ": optimizer may only remove flushes";

    const struct
    {
        const char *name;
        pmcheck::ExploreEngine engine;
        int jobs;
    } legs[] = {
        {"legacy/1", pmcheck::ExploreEngine::Legacy, 1},
        {"legacy/4", pmcheck::ExploreEngine::Legacy, 4},
        {"snapshot/1", pmcheck::ExploreEngine::Snapshot, 1},
        {"snapshot/4", pmcheck::ExploreEngine::Snapshot, 4},
    };
    for (const auto &leg : legs) {
        pmcheck::CrashExplorerConfig cc;
        cc.entry = "main";
        cc.recovery = "main";
        cc.engine = leg.engine;
        cc.jobs = leg.jobs;
        auto naive = pmcheck::exploreCrashes(m.get(), cc);
        auto tuned = pmcheck::exploreCrashes(opt.get(), cc);
        EXPECT_EQ(pmcheck::recoveryDigest(naive), pmcheck::recoveryDigest(tuned))
            << "seed " << seed << " leg " << leg.name
            << ": optimization changed recovery behaviour";
        EXPECT_EQ(naive.cleanRunRecovered, tuned.cleanRunRecovered)
            << "seed " << seed << " leg " << leg.name;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds,
                         OptimizerDoNoHarm,
                         ::testing::Range<uint64_t>(1, 14));

} // namespace hippo::test
