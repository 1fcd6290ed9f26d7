/**
 * @file
 * Shared helpers for the test suite and the engine-comparing benches:
 * canned PMIR programs (including the paper's Listing 5/6 running
 * example), the seeded random PM program generator, a one-call
 * trace/detect/fix/re-check pipeline driver, and the text records
 * the tree-walking interpreter's verdicts were frozen in
 * (tests/golden/tree_walker_verdicts.txt).
 */

#ifndef HIPPO_TESTS_TEST_UTIL_HH
#define HIPPO_TESTS_TEST_UTIL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fixer.hh"
#include "ir/builder.hh"
#include "ir/module.hh"
#include "ir/verifier.hh"
#include "pmcheck/crash_explorer.hh"
#include "pmcheck/detector.hh"
#include "pmem/pm_pool.hh"
#include "vm/vm.hh"

namespace hippo::test
{

/**
 * Build the paper's Listing 5/6 running example:
 *
 *   void update(char *addr, int idx, char val) { addr[idx] = val; }
 *   void modify(char *addr) { update(addr, 0, 42); }
 *   void foo() {
 *       for (i < volIters) modify(vol_addr);
 *       modify(pm_addr);
 *       SFENCE;            // only when withFence
 *       ***CRASH***        // durpoint
 *   }
 *
 * The PM store in update is never flushed: a missing-flush bug when
 * @p with_fence, a missing-flush&fence bug otherwise.
 */
std::unique_ptr<ir::Module> buildListing5(bool with_fence,
                                          uint64_t vol_iters = 100);

/** Result of running the full pipeline once. */
struct PipelineResult
{
    pmcheck::Report before;     ///< report on the buggy program
    core::FixSummary summary;   ///< what Hippocrates did
    pmcheck::Report after;      ///< report on the fixed program
    std::vector<vm::ProgramOutput> outputsBefore;
    std::vector<vm::ProgramOutput> outputsAfter;
};

/**
 * Trace @p entry, detect bugs, fix them with @p cfg, re-run and
 * re-detect. The module is mutated in place.
 */
PipelineResult runPipeline(ir::Module *m, const std::string &entry,
                           core::FixerConfig cfg = {});

/** Same, for entry points taking one integer argument. */
PipelineResult runPipelineWithArg(ir::Module *m,
                                  const std::string &entry,
                                  uint64_t arg,
                                  core::FixerConfig cfg = {});

/**
 * Build a random PM program with one entry, @main: random mixes of
 * direct stores, helper calls with PM/volatile pointers, memcpys,
 * flushes, fences, durability points, bounded loops and prints.
 * Deterministic per seed.
 */
std::unique_ptr<ir::Module> generateProgram(uint64_t seed);

/**
 * @name Frozen interpreter verdicts
 *
 * A verdict is a text record of everything a check compares about a
 * run or an exploration. The tree-walking interpreter, since removed,
 * recorded its verdicts as named sections of
 * tests/golden/tree_walker_verdicts.txt; the bytecode interpreter
 * must reproduce each one byte for byte.
 */
/// @{

/**
 * One run: `crashed`, return value, steps, bit-exact simulated time
 * (`%a`), outcome, diagnostic, the program's outputs, the step-probe
 * firing points, and the FNV-1a-64 and length of the run's trace
 * text. @p machine has executed exactly this one run.
 */
std::string runVerdict(const vm::RunResult &res, const vm::Vm &machine,
                       const std::vector<uint64_t> &probe_steps);

/** Every field of @p res and of each of its CrashOutcomes. */
std::string explorationVerdict(const pmcheck::ExplorationResult &res);

/** A list of integers, twelve to a line. */
std::string numbersVerdict(const std::vector<uint64_t> &values);

/** FNV-1a-64 of @p text. */
uint64_t fnv1a64(const std::string &text);

/** Section @p key of the verdict file; empty when it has none. */
std::string frozenVerdict(const std::string &key);
/// @}

} // namespace hippo::test

#endif // HIPPO_TESTS_TEST_UTIL_HH
