/**
 * @file
 * hippo_perfbench: runs one benchmark workload and prints its result
 * as one JSON line.
 *
 *   hippo_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                   [--spans-out FILE] [--corrupt-reference]
 *
 * --corrupt-reference falsifies one reference value so that the
 * checker self-test can see failures being counted.
 */

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.hh"

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: hippo_perfbench --workload "
                 "{repair-pipeline,crash-explore,interleave-explore,"
                 "kv-ycsb} --seed N --seconds S --trace 0|1 "
                 "[--spans-out FILE] [--corrupt-reference]\n");
    return 2;
}

bool
parseNumber(const char *s, double &out)
{
    char *end = nullptr;
    out = std::strtod(s, &end);
    return end != s && *end == '\0' && out >= 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    RunOptions opt;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        if (a == "--corrupt-reference") {
            opt.corrupt = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage();
        const char *v = argv[++i];
        double x = 0;
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--spans-out") {
            opt.spansOut = v;
        } else if (a == "--seed" && parseNumber(v, x)) {
            opt.seed = std::strtoull(v, nullptr, 10);
        } else if (a == "--seconds" && parseNumber(v, x) && x > 0) {
            opt.seconds = x;
        } else if (a == "--trace" && parseNumber(v, x) && x <= 1) {
            opt.trace = x == 1;
        } else {
            return usage();
        }
    }
    WorkloadFactory factory = nullptr;
    if (opt.workload == "repair-pipeline")
        factory = makeRepairPipeline;
    else if (opt.workload == "crash-explore")
        factory = makeCrashExplore;
    else if (opt.workload == "interleave-explore")
        factory = makeInterleaveExplore;
    else if (opt.workload == "kv-ycsb")
        factory = makeKvYcsb;
    else
        return usage();

    // glibc adapts its mmap threshold to the sizes freed so far and
    // trims the heap top past twice that threshold. In a loop of
    // requests the adaptation follows the requests' history, so each
    // 16 MiB VM arena either reuses warm heap memory or page-faults in
    // fresh pages, and one run can land in either state: repair and
    // interleaving requests took 4x to 8x longer in the second.
    // Setting the thresholds turns the adaptation off, so every
    // request sees the allocator in the state its use case has.
    if (factory == makeRepairPipeline) {
        // hippoc repairs each program in a fresh process, whose
        // threshold is still the initial 128 KiB: every arena is a
        // fresh mapping.
        mallopt(M_MMAP_THRESHOLD, 128 << 10);
    } else {
        // Explorations and a key-value server are long loops in one
        // process, whose freed arenas stay on the heap for reuse.
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, 1 << 30);
    }
    return runBenchmark(opt, factory);
}
