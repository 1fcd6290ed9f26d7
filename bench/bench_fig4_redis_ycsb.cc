/**
 * @file
 * Regenerates Fig. 4 and the §6.3 case study: YCSB throughput of the
 * three persistent Redis variants —
 *
 *   RedisH-intra: flush-free pmkv repaired with intraprocedural
 *                 fixes only (heuristic disabled);
 *   Redis-pm:     the manually-developed durable build;
 *   RedisH-full:  flush-free pmkv repaired with the full heuristic.
 *
 * Reported per workload (Load + A-F): mean throughput over N trials
 * with 95% confidence intervals, plus the paper's headline ratios
 * (RedisH-full vs Redis-pm, RedisH-full vs RedisH-intra) and the fix
 * census (total fixes, interprocedural share, hoist depths).
 *
 * Knobs: HIPPO_FIG4_RECORDS (default 800), HIPPO_FIG4_OPS (800),
 * HIPPO_FIG4_TRIALS (20).
 */

#include <cstdio>

#include "apps/kv_driver.hh"
#include "bench_util.hh"
#include "support/stats.hh"

namespace
{

using namespace hippo;

double
oneTrial(ir::Module *m, ycsb::Workload w, uint64_t records,
         uint64_t ops, uint64_t seed)
{
    pmem::PmPool pool(32u << 20);
    apps::KvDriver driver(m, &pool);
    driver.init();
    if (w == ycsb::Workload::Load) {
        auto res = driver.run(w, records, records, seed);
        return res.throughput();
    }
    driver.run(ycsb::Workload::Load, records, records, seed * 31 + 7);
    auto res = driver.run(w, records, ops, seed);
    return res.throughput();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace hippo;
    auto opt = bench::parseBenchOptions(argc, argv);
    bench::banner("Fig. 4 — YCSB throughput of the persistent Redis "
                  "variants (simulated ops/sec, 95% CI)");

    uint64_t records = bench::knob(opt, "HIPPO_FIG4_RECORDS", 800, 96);
    uint64_t ops = bench::knob(opt, "HIPPO_FIG4_OPS", 800, 96);
    uint64_t trials = bench::knob(opt, "HIPPO_FIG4_TRIALS", 20, 2);

    std::printf("records=%llu ops=%llu trials=%llu\n",
                (unsigned long long)records, (unsigned long long)ops,
                (unsigned long long)trials);

    auto variants = apps::buildRedisVariants(
        {}, analysis::AaMode::FullAA, /*optimized=*/true);
    struct V
    {
        const char *name;
        ir::Module *m;
    };
    const V vs[3] = {
        {"RedisH-intra", variants.hippoIntra.get()},
        {"Redis-pm", variants.manual.get()},
        {"RedisH-full", variants.hippoFull.get()},
    };
    const ycsb::Workload workloads[] = {
        ycsb::Workload::Load, ycsb::Workload::A, ycsb::Workload::B,
        ycsb::Workload::C,    ycsb::Workload::D, ycsb::Workload::E,
        ycsb::Workload::F,
    };

    bench::Table table({"Workload", "RedisH-intra", "Redis-pm",
                        "RedisH-full", "full/pm", "full/intra"});
    double min_ratio_intra = 1e30, max_ratio_intra = 0;
    bool ordering_holds = true;

    for (auto w : workloads) {
        SampleStats stats[3];
        for (uint64_t t = 0; t < trials; t++) {
            for (int v = 0; v < 3; v++) {
                stats[v].add(oneTrial(vs[v].m, w, records, ops,
                                      1000 + t * 13 + v));
            }
        }
        double full = stats[2].mean();
        double pm = stats[1].mean();
        double intra = stats[0].mean();
        double r_pm = pm > 0 ? full / pm : 0;
        double r_intra = intra > 0 ? full / intra : 0;
        min_ratio_intra = std::min(min_ratio_intra, r_intra);
        max_ratio_intra = std::max(max_ratio_intra, r_intra);
        // "equal or slightly better" within the confidence interval
        ordering_holds &=
            full + stats[2].ci95() + stats[1].ci95() >= pm;

        auto cell = [](const SampleStats &s) {
            return format("%.0f +/- %.0f", s.mean(), s.ci95());
        };
        table.addRow({ycsb::workloadName(w), cell(stats[0]),
                      cell(stats[1]), cell(stats[2]),
                      format("%.2f", r_pm),
                      format("%.1fx", r_intra)});

        // Throughput is simulated ops/sec, so the means are
        // deterministic and baseline-comparable.
        auto &reg = support::MetricsRegistry::global();
        std::string p = std::string("fig4.") + ycsb::workloadName(w);
        reg.doubleSum(p + ".intra_mean").add(intra);
        reg.doubleSum(p + ".pm_mean").add(pm);
        reg.doubleSum(p + ".full_mean").add(full);
    }
    table.print();

    bench::banner("§6.3 fix census (Hippocrates on flush-free pmkv)");
    const auto &full = variants.fullSummary;
    const auto &intra = variants.intraSummary;
    std::printf("bugs found in flush-free build : %zu\n",
                variants.flushFreeReport.bugs.size());
    std::printf("RedisH-full : %s\n", full.str().c_str());
    std::printf("  interprocedural fixes        : %zu/%zu (%.0f%%)\n",
                full.interproceduralCount(), full.fixes.size(),
                100.0 * full.interproceduralCount() /
                    full.fixes.size());
    std::printf("  hoisted 1 frame above store  : %zu\n",
                full.hoistedAtLevel(1));
    std::printf("  hoisted 2 frames above store : %zu\n",
                full.hoistedAtLevel(2));
    std::printf("RedisH-intra: %s\n", intra.str().c_str());

    std::printf("\nRedisH-full vs RedisH-intra across workloads: "
                "%.1fx - %.1fx (paper: 2.4x - 11.7x)\n",
                min_ratio_intra, max_ratio_intra);
    std::printf("Paper reference: RedisH-full matches or exceeds "
                "Redis-pm (up to 7%% on Load); 12/50 fixes "
                "interprocedural (10 one frame, 2 two frames "
                "above the PM modification).\n");

    // Ablation: naive fix (RedisH-full as the fixer emitted it) vs
    // the same fix after the global flush/fence optimizer. Static
    // counts come from the optimizer stats; dynamic counts from the
    // Vm flush/fence probes over the YCSB hot path (Load + A).
    bench::banner("Ablation — naive fix vs optimized fix "
                  "(flush/fence counts, YCSB Load+A)");
    std::printf("optimizer: %s\n", variants.optStats.str().c_str());

    // The hot-path construction is shared with bench_flush_opt and
    // bench_vm_dispatch (bench::runKvHotPath), so all three measure
    // the same op stream.
    auto naive = bench::runKvHotPath(variants.hippoFull.get(),
                                     ycsb::Workload::A, records, ops,
                                     424243, 424247, 32u << 20);
    auto optd = bench::runKvHotPath(variants.hippoOpt.get(),
                                    ycsb::Workload::A, records, ops,
                                    424243, 424247, 32u << 20);
    double flush_cut =
        naive.flushes
            ? 100.0 * (double)(naive.flushes - optd.flushes) /
                  (double)naive.flushes
            : 0;
    double speedup = naive.throughput() > 0
                         ? optd.throughput() / naive.throughput()
                         : 0;
    std::printf("naive fix   : %llu flush(es), %llu fence(s), "
                "%.0f ops/sec\n",
                (unsigned long long)naive.flushes,
                (unsigned long long)naive.fences,
                naive.throughput());
    std::printf("optimized   : %llu flush(es), %llu fence(s), "
                "%.0f ops/sec\n",
                (unsigned long long)optd.flushes,
                (unsigned long long)optd.fences, optd.throughput());
    std::printf("flushes executed cut by %.1f%%; throughput %.2fx\n",
                flush_cut, speedup);

    auto &reg = support::MetricsRegistry::global();
    variants.fullSummary.exportMetrics(reg, "fig4.fixer_full");
    variants.intraSummary.exportMetrics(reg, "fig4.fixer_intra");
    variants.optStats.exportMetrics(reg, "fig4.opt");
    reg.counter("fig4.opt.dyn_flushes_naive").inc(naive.flushes);
    reg.counter("fig4.opt.dyn_flushes_optimized").inc(optd.flushes);
    reg.counter("fig4.opt.dyn_fences_naive").inc(naive.fences);
    reg.counter("fig4.opt.dyn_fences_optimized").inc(optd.fences);
    reg.doubleSum("fig4.opt.throughput_ratio").add(speedup);
    bench::finishBench(opt, "bench_fig4_redis_ycsb");
    return ordering_holds && min_ratio_intra > 2.0 ? 0 : 1;
}
