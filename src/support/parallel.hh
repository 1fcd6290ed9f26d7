/**
 * @file
 * Index-range fan-out for the embarrassingly parallel loops in this
 * repo — crash-state exploration replays one recovery per crash point
 * (or one schedule per plan), and the suite-wide fix->re-verify
 * pipeline runs one full Hippocrates pipeline per bug program. Both
 * fan out over independent Vm/PmPool instances (the threading
 * contract is documented in DESIGN.md: ir::Module is shared
 * read-only, everything mutable is per-item), and every caller runs
 * exactly one batch, so a single call is the whole interface:
 *
 *   support::parallelFor(jobs, 0, n, [&](uint64_t i) { out[i] = work(i); });
 *
 * Guarantees:
 *  - results are deterministic as long as the callback writes only to
 *    its own index (items are claimed from an atomic counter, so
 *    *completion* order is arbitrary — never append, write by index);
 *  - the first exception thrown by any item is rethrown in the caller
 *    after every started item returned; items not yet claimed are
 *    abandoned.
 */

#ifndef HIPPO_SUPPORT_PARALLEL_HH
#define HIPPO_SUPPORT_PARALLEL_HH

#include <cstdint>
#include <functional>

namespace hippo::support
{

/** Host hardware concurrency, never less than 1. */
unsigned hardwareConcurrency();

/**
 * Resolve a user-facing `jobs` knob: 0 means "use every core",
 * anything else is taken literally (callers may further clamp to the
 * number of work items).
 */
unsigned resolveJobs(unsigned jobs);

/**
 * Run @p fn(i) for every i in [begin, end) and return once all of
 * them returned. @p jobs is a user-facing knob (see resolveJobs);
 * with at most one worker for the range, the items run inline on the
 * calling thread, in order. Otherwise that many threads claim
 * indices from a shared counter and are joined before the call
 * returns. On the first exception the threads stop claiming, and the
 * exception is rethrown here after the join.
 */
void parallelFor(unsigned jobs, uint64_t begin, uint64_t end,
                 const std::function<void(uint64_t)> &fn);

} // namespace hippo::support

#endif // HIPPO_SUPPORT_PARALLEL_HH
