/**
 * @file
 * A fixed-size worker pool for the embarrassingly parallel loops in
 * this repo — crash-state exploration replays one workload per crash
 * point, and the suite-wide fix->re-verify pipeline runs one full
 * Hippocrates pipeline per bug program. Both fan out over independent
 * Vm/PmPool instances (the threading contract is documented in
 * DESIGN.md: ir::Module is shared read-only, everything mutable is
 * per-worker), so the pool only needs index-range dispatch:
 *
 *   ThreadPool pool(jobs);
 *   pool.parallelForEach(0, n, [&](uint64_t i) { out[i] = work(i); });
 *
 * Guarantees:
 *  - results are deterministic as long as the callback writes only to
 *    its own index (items are claimed from an atomic counter, so
 *    *completion* order is arbitrary — never append, write by index);
 *  - the first exception thrown by any item is rethrown in the
 *    caller, and remaining undispatched items are abandoned;
 *  - a CancelToken cancels cooperatively: items already running
 *    finish, undispatched items never start.
 */

#ifndef HIPPO_SUPPORT_THREAD_POOL_HH
#define HIPPO_SUPPORT_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

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

/** Cooperative cancellation flag shared between a driver and a
 *  running parallelForEach. */
class CancelToken
{
  public:
    void cancel() { cancelled_.store(true, std::memory_order_relaxed); }
    bool
    cancelled() const
    {
        return cancelled_.load(std::memory_order_relaxed);
    }

    /** Re-arm the token (only while no batch is using it). */
    void reset() { cancelled_.store(false, std::memory_order_relaxed); }

  private:
    std::atomic<bool> cancelled_{false};
};

/**
 * Fixed worker pool. Workers are spawned once in the constructor and
 * joined in the destructor; each parallelForEach call dispatches one
 * batch and blocks until the batch drains.
 */
class ThreadPool
{
  public:
    /** @param workers Worker thread count; 0 = hardwareConcurrency(). */
    explicit ThreadPool(unsigned workers = 0);

    /** Joins all workers (any in-flight batch is completed first). */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned workerCount() const { return (unsigned)workers_.size(); }

    /**
     * Run @p fn(i) for every i in [begin, end), distributed over the
     * workers, and block until every dispatched item returned. If any
     * item throws, the first exception (in completion order) is
     * rethrown here after the batch drains; remaining undispatched
     * items are skipped. If @p cancel is non-null and becomes
     * cancelled, undispatched items are skipped (no error).
     *
     * One batch runs at a time; concurrent calls serialize.
     */
    void parallelForEach(uint64_t begin, uint64_t end,
                         const std::function<void(uint64_t)> &fn,
                         CancelToken *cancel = nullptr);

    /**
     * Run every task in @p tasks and block until all of them returned.
     * Semantically equivalent to enqueueing each task individually,
     * but the whole vector is published as ONE batch: a single lock
     * acquisition and a single notify_all, instead of one of each per
     * task. See BM_ThreadPool_SubmitAll in bench_micro for the
     * delta.
     *
     * Exception and cancellation semantics match parallelForEach.
     */
    void submitAll(const std::vector<std::function<void()>> &tasks,
                   CancelToken *cancel = nullptr);

  private:
    struct Batch
    {
        std::atomic<uint64_t> next{0};
        uint64_t end = 0;
        const std::function<void(uint64_t)> *fn = nullptr;
        /** Task-vector batches (submitAll); exclusive with fn. */
        const std::vector<std::function<void()>> *tasks = nullptr;
        CancelToken *cancel = nullptr;
        /** Internal early-stop on first exception. */
        CancelToken failed;
        std::exception_ptr firstError;
        uint64_t pending = 0; ///< items dispatched but not finished
        bool done = true;
    };

    void workerMain();
    /** Claim and run items of the current batch until it is drained.
     *  Called with @p lock held; drops it while running items. */
    void runBatchItems(std::unique_lock<std::mutex> &lock);
    /** Publish one batch (either fn over [begin,end) or a task
     *  vector), wait for it to drain, rethrow its first error. */
    void dispatchBatch(uint64_t begin, uint64_t end,
                       const std::function<void(uint64_t)> *fn,
                       const std::vector<std::function<void()>> *tasks,
                       CancelToken *cancel);

    std::mutex callersMu_; ///< serializes parallelForEach callers
    std::mutex mu_;
    std::condition_variable workCv_; ///< signals workers: batch ready
    std::condition_variable doneCv_; ///< signals caller: batch drained
    Batch batch_;
    uint64_t generation_ = 0; ///< bumps once per batch
    bool shutdown_ = false;
    std::vector<std::thread> workers_;
};

} // namespace hippo::support

#endif // HIPPO_SUPPORT_THREAD_POOL_HH
