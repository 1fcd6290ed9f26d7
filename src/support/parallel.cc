#include "support/parallel.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace hippo::support
{

unsigned
hardwareConcurrency()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

unsigned
resolveJobs(unsigned jobs)
{
    return jobs ? jobs : hardwareConcurrency();
}

void
parallelFor(unsigned jobs, uint64_t begin, uint64_t end,
            const std::function<void(uint64_t)> &fn)
{
    if (begin >= end)
        return;
    const uint64_t workers =
        std::min<uint64_t>(resolveJobs(jobs), end - begin);
    if (workers <= 1) {
        for (uint64_t i = begin; i < end; i++)
            fn(i);
        return;
    }

    std::atomic<uint64_t> next{begin};
    std::atomic<bool> failed{false};
    std::mutex errorMu;
    std::exception_ptr firstError;
    auto work = [&] {
        while (!failed.load(std::memory_order_relaxed)) {
            uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= end)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> g(errorMu);
                if (!firstError)
                    firstError = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
                return;
            }
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(workers);
    try {
        for (uint64_t t = 0; t < workers; t++)
            threads.emplace_back(work);
    } catch (...) {
        // A thread that cannot start fails the batch like an item
        // would; the started ones must still be joined.
        failed.store(true, std::memory_order_relaxed);
        for (std::thread &t : threads)
            t.join();
        throw;
    }
    for (std::thread &t : threads)
        t.join();
    if (firstError)
        std::rethrow_exception(firstError);
}

} // namespace hippo::support
