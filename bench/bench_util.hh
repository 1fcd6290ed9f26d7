/**
 * @file
 * Small shared helpers for the figure/table reproduction binaries:
 * fixed-width table printing, environment-variable knobs so the
 * long-running experiments can be scaled down or up, and the shared
 * --smoke/--stats harness behind the CI bench gate:
 *
 *   bench_xxx --smoke            # fixed reduced workload (ignores
 *                                # the env knobs, so counters are
 *                                # baseline-comparable)
 *   bench_xxx --stats out.json   # write the metrics registry as a
 *                                # stats document (FORMATS.md §5)
 *
 * The CI bench-smoke job runs every bench with both flags and diffs
 * the JSON against bench/baselines/ with tools/bench_check.
 */

#ifndef HIPPO_BENCH_BENCH_UTIL_HH
#define HIPPO_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/kv_driver.hh"
#include "support/metrics.hh"
#include "support/stopwatch.hh"
#include "support/strings.hh"

namespace hippo::bench
{

/** A fixed-width text table. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers)
        : headers_(std::move(headers))
    {}

    void
    addRow(std::vector<std::string> cells)
    {
        rows_.push_back(std::move(cells));
    }

    void
    print() const
    {
        std::vector<size_t> widths(headers_.size(), 0);
        auto widen = [&](const std::vector<std::string> &row) {
            for (size_t i = 0; i < row.size() && i < widths.size();
                 i++)
                widths[i] = std::max(widths[i], row[i].size());
        };
        widen(headers_);
        for (const auto &r : rows_)
            widen(r);

        auto print_row = [&](const std::vector<std::string> &row) {
            for (size_t i = 0; i < widths.size(); i++) {
                std::printf("%-*s  ", (int)widths[i],
                            i < row.size() ? row[i].c_str() : "");
            }
            std::printf("\n");
        };
        print_row(headers_);
        size_t total = 0;
        for (size_t w : widths)
            total += w + 2;
        std::printf("%s\n", std::string(total, '-').c_str());
        for (const auto &r : rows_)
            print_row(r);
    }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Integer knob from the environment with a default. */
inline uint64_t
envKnob(const char *name, uint64_t def)
{
    const char *v = std::getenv(name);
    if (!v)
        return def;
    uint64_t out;
    if (!hippo::parseUint(v, out))
        return def;
    return out;
}

/** Common bench command line (see the file comment). */
struct BenchOptions
{
    bool smoke = false;     ///< fixed reduced workload
    std::string statsPath;  ///< --stats: write metrics JSON here
};

/** Parse --smoke / --stats FILE; exits 2 on anything else. */
inline BenchOptions
parseBenchOptions(int argc, char **argv)
{
    BenchOptions opt;
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        if (arg == "--smoke") {
            opt.smoke = true;
        } else if (arg == "--stats" && i + 1 < argc) {
            opt.statsPath = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--smoke] [--stats OUT.json]\n",
                         argv[0]);
            std::exit(2);
        }
    }
    return opt;
}

/**
 * Workload knob: the fixed @p smoke_def in smoke mode (the env is
 * deliberately ignored so smoke counters are identical everywhere),
 * the environment override or @p def otherwise.
 */
inline uint64_t
knob(const BenchOptions &opt, const char *name, uint64_t def,
     uint64_t smoke_def)
{
    return opt.smoke ? smoke_def : envKnob(name, def);
}

/**
 * End-of-bench hook: write the global metrics registry to the
 * --stats path (tagged with the bench name and mode). Exits 2 when
 * the file cannot be written so CI fails loudly.
 */
inline void
finishBench(const BenchOptions &opt, const char *bench_name)
{
    if (opt.statsPath.empty())
        return;
    std::string error;
    if (!support::writeStatsJson(
            opt.statsPath, support::MetricsRegistry::global(),
            {{"bench", bench_name},
             {"mode", opt.smoke ? "smoke" : "full"}},
            &error)) {
        std::fprintf(stderr, "%s: %s\n", bench_name, error.c_str());
        std::exit(2);
    }
    std::printf("stats written to %s\n", opt.statsPath.c_str());
}

/** Section banner. */
inline void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n\n", title.c_str());
}

/**
 * Counters from one pmkv YCSB hot-path run: fresh pool, @kv_init,
 * Load of @p records records, then @p ops operations of workload
 * @p w. This is THE shared workload construction for the KV legs of
 * bench_fig4_redis_ycsb, bench_flush_opt and bench_vm_dispatch — one
 * definition, so every bench measures the same op stream for a given
 * (records, ops, seeds).
 */
struct KvHotPathCounts
{
    apps::WorkloadResult load;     ///< load phase
    apps::WorkloadResult workload; ///< run phase
    double wallSeconds = 0;        ///< run phase only (informational)
    uint64_t flushes = 0;          ///< Vm census after both phases
    uint64_t fences = 0;
    uint64_t steps = 0;
    uint64_t fastDispatches = 0;
    uint64_t fastSuper = 0;

    /** Simulated ops/sec over both phases. */
    double
    throughput() const
    {
        double secs = load.simSeconds + workload.simSeconds;
        return secs > 0 ? (load.ops + workload.ops) / secs : 0;
    }
};

inline KvHotPathCounts
runKvHotPath(ir::Module *m, ycsb::Workload w, uint64_t records,
             uint64_t ops, uint64_t load_seed, uint64_t run_seed,
             uint64_t pool_bytes = 64u << 20)
{
    pmem::PmPool pool(pool_bytes);
    apps::KvDriver driver(m, &pool);
    driver.init();
    KvHotPathCounts out;
    out.load = driver.run(ycsb::Workload::Load, records, records,
                          load_seed);
    Stopwatch watch;
    out.workload = driver.run(w, records, ops, run_seed);
    out.wallSeconds = watch.elapsedSeconds();
    out.flushes = driver.vm().flushesExecuted();
    out.fences = driver.vm().fencesExecuted();
    out.steps = driver.vm().steps();
    out.fastDispatches = driver.vm().fastDispatches();
    out.fastSuper = driver.vm().fastSuperExecuted();
    return out;
}

} // namespace hippo::bench

#endif // HIPPO_BENCH_BENCH_UTIL_HH
