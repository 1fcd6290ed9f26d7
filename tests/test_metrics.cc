/**
 * @file
 * The hippo_metrics facility: instrument correctness, registry
 * behavior, JSON serialization/round-trip, thread-safety of the
 * shared instruments under parallelFor, and the determinism
 * contract — comparable metrics recorded by the parallel pipeline
 * are identical at every `jobs` setting.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "apps/pmlog.hh"
#include "pmcheck/crash_explorer.hh"
#include "support/json.hh"
#include "support/metrics.hh"
#include "support/parallel.hh"

namespace hippo::test
{

using support::MetricsRegistry;

TEST(Metrics, CounterBasics)
{
    MetricsRegistry reg;
    auto &c = reg.counter("a.b.c");
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    EXPECT_EQ(&reg.counter("a.b.c"), &c) << "same path, same object";
    EXPECT_EQ(reg.size(), 1u);

    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, DoubleSumAndGauge)
{
    MetricsRegistry reg;
    auto &s = reg.doubleSum("sim_ns");
    s.add(1.5);
    s.add(2.25);
    EXPECT_DOUBLE_EQ(s.value(), 3.75);

    auto &g = reg.gauge("peak");
    g.set(10);
    g.setMax(5);
    EXPECT_DOUBLE_EQ(g.value(), 10);
    g.setMax(20);
    EXPECT_DOUBLE_EQ(g.value(), 20);
}

TEST(Metrics, TimerAccumulatesSpans)
{
    MetricsRegistry reg;
    auto &t = reg.timer("phase_ns");
    t.addNanos(100);
    t.addNanos(250);
    EXPECT_EQ(t.count(), 2u);
    EXPECT_EQ(t.totalNs(), 350u);

    {
        support::ScopedTimer span(t);
    }
    EXPECT_EQ(t.count(), 3u);
    EXPECT_GE(t.totalNs(), 350u);
}

TEST(Metrics, HistogramBucketsAndStats)
{
    MetricsRegistry reg;
    auto &h = reg.histogram("sizes");
    for (double v : {1.0, 2.0, 3.0, 100.0})
        h.observe(v);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.sum(), 106.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
}

TEST(Metrics, PercentilesOnLogBucketBounds)
{
    MetricsRegistry reg;
    auto &h = reg.histogram("lat");
    // Empty histogram: every percentile is 0 by definition.
    EXPECT_DOUBLE_EQ(h.percentile(0.50), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 0.0);

    // A single observation lands every percentile on its bucket's
    // upper bound (bucket i covers (2^(i-1), 2^i], bound 2^i).
    h.observe(1.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.50), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 1.0);

    // {1, 2, 3, 4}: buckets 0, 1, 2, 2. The median rank (2 of 4)
    // falls in bucket 1 (bound 2), the tail in bucket 2 (bound 4).
    h.observe(2.0);
    h.observe(3.0);
    h.observe(4.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.50), 2.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.95), 4.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 4.0);

    // Out-of-range quantiles clamp instead of misbehaving.
    EXPECT_DOUBLE_EQ(h.percentile(-1.0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(2.0), 4.0);

    // A far observation: 100 lands in bucket 7 (bound 128) and
    // shifts the median rank (3rd of 5) into bucket 2 (bound 4). The
    // tail never reports more than the observed max.
    h.observe(100.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.50), 4.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 100.0);

    // All-zero observations land in bucket 0 (bound 1) but never
    // report more than the observed 0.
    auto &zeros = reg.histogram("zeros");
    for (int i = 0; i < 3; i++)
        zeros.observe(0.0);
    EXPECT_DOUBLE_EQ(zeros.percentile(0.50), 0.0);
    EXPECT_DOUBLE_EQ(zeros.percentile(0.99), 0.0);
}

TEST(Metrics, PercentilesExportedAsComparableLeaves)
{
    MetricsRegistry reg;
    auto &h = reg.histogram("lat");
    for (double v : {1.0, 2.0, 3.0, 4.0})
        h.observe(v);

    json::Value v = reg.toJson();
    const json::Value *lat = v.find("lat");
    ASSERT_NE(lat, nullptr);
    EXPECT_DOUBLE_EQ(lat->find("p50")->number(), 2.0);
    EXPECT_DOUBLE_EQ(lat->find("p95")->number(), 4.0);
    EXPECT_DOUBLE_EQ(lat->find("p99")->number(), 4.0);

    auto snap = reg.deterministicSnapshot();
    EXPECT_DOUBLE_EQ(snap["lat.p50"], 2.0);
    EXPECT_DOUBLE_EQ(snap["lat.p95"], 4.0);
    EXPECT_DOUBLE_EQ(snap["lat.p99"], 4.0);
}

TEST(Metrics, KindMismatchIsFatal)
{
    MetricsRegistry reg;
    reg.counter("x");
    EXPECT_DEATH(reg.timer("x"), "kind");
}

TEST(Metrics, ResetKeepsReferencesValid)
{
    MetricsRegistry reg;
    auto &c = reg.counter("n");
    c.inc(7);
    reg.reset();
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    EXPECT_EQ(reg.counter("n").value(), 1u);
}

TEST(Metrics, ToJsonNestsPaths)
{
    MetricsRegistry reg;
    reg.counter("vm.flush.clwb").inc(3);
    reg.counter("vm.runs").inc(1);
    reg.doubleSum("vm.sim_ns").add(2.5);

    json::Value root = reg.toJson();
    ASSERT_TRUE(root.isObject());
    const json::Value *vm = root.find("vm");
    ASSERT_NE(vm, nullptr);
    const json::Value *flush = vm->find("flush");
    ASSERT_NE(flush, nullptr);
    const json::Value *clwb = flush->find("clwb");
    ASSERT_NE(clwb, nullptr);
    EXPECT_EQ(clwb->find("kind")->str(), "counter");
    EXPECT_DOUBLE_EQ(clwb->find("value")->number(), 3);
    EXPECT_EQ(vm->find("sim_ns")->find("kind")->str(), "sum");
}

TEST(Metrics, StatsDocumentRoundTripsThroughText)
{
    MetricsRegistry reg;
    reg.counter("a.count").inc(12);
    reg.doubleSum("a.sum").add(3.5);
    reg.timer("a.time_ns").addNanos(1234);
    reg.histogram("a.hist").observe(4);
    reg.gauge("a.gauge").set(-1.25);

    json::Value doc =
        support::statsDocument(reg, {{"bench", "unit-test"}});
    EXPECT_DOUBLE_EQ(doc.find("schema_version")->number(),
                     support::statsSchemaVersion);
    ASSERT_NE(doc.find("env"), nullptr);
    EXPECT_EQ(doc.find("env")->find("bench")->str(), "unit-test");

    std::string text = doc.dump(2);
    json::Value parsed;
    std::string error;
    ASSERT_TRUE(json::parse(text, parsed, &error)) << error;
    EXPECT_EQ(parsed, doc) << "pretty-printed round trip is exact";

    json::Value dense;
    ASSERT_TRUE(json::parse(doc.dump(), dense, &error)) << error;
    EXPECT_EQ(dense, doc) << "compact round trip is exact";
}

TEST(Metrics, InstrumentsAreThreadSafe)
{
    MetricsRegistry reg;
    constexpr uint64_t workers = 8, per_worker = 10000;
    // Creation races too: every worker asks for the same paths.
    support::parallelFor(4, 0, workers, [&](uint64_t) {
        for (uint64_t i = 0; i < per_worker; i++) {
            reg.counter("shared.count").inc();
            reg.doubleSum("shared.sum").add(1.0);
            reg.histogram("shared.hist").observe((double)(i % 7));
            reg.timer("shared.time_ns").addNanos(1);
        }
    });
    EXPECT_EQ(reg.counter("shared.count").value(),
              workers * per_worker);
    EXPECT_DOUBLE_EQ(reg.doubleSum("shared.sum").value(),
                     (double)(workers * per_worker));
    EXPECT_EQ(reg.histogram("shared.hist").count(),
              workers * per_worker);
    EXPECT_EQ(reg.timer("shared.time_ns").count(),
              workers * per_worker);
    EXPECT_EQ(reg.timer("shared.time_ns").totalNs(),
              workers * per_worker);
}

/** Crash-explore the pmlog workload at one jobs setting and return
 *  the deterministic view of everything the pipeline recorded. */
static std::map<std::string, double>
exploreSnapshot(unsigned jobs)
{
    auto &reg = support::MetricsRegistry::global();
    reg.reset();

    apps::PmlogConfig lc;
    lc.seedBugs = false;
    lc.capacity = 1u << 20;
    auto m = apps::buildPmlog(lc);

    pmcheck::CrashExplorerConfig xc;
    xc.entry = "log_example";
    xc.entryArgs = {24};
    xc.recovery = "log_walk";
    xc.stepStride = 32;
    xc.maxCrashes = 1u << 20;
    xc.jobs = jobs;
    pmcheck::exploreCrashes(m.get(), xc);

    return reg.deterministicSnapshot();
}

TEST(Metrics, ComparableMetricsIdenticalAcrossJobsSettings)
{
    auto base = exploreSnapshot(1);
    EXPECT_FALSE(base.empty());
    EXPECT_TRUE(base.count("explorer.crash_points.total"));
    // Wall-clock timers must stay out of the deterministic view.
    for (const auto &[path, value] : base)
        EXPECT_EQ(path.find("_ns"), std::string::npos) << path;

    for (unsigned jobs : {2u, 4u}) {
        auto snap = exploreSnapshot(jobs);
        ASSERT_EQ(snap.size(), base.size()) << "jobs=" << jobs;
        for (const auto &[path, value] : base) {
            ASSERT_TRUE(snap.count(path)) << path;
            // Counters are exact; sums may differ by fp association
            // order, so allow a relative epsilon.
            EXPECT_NEAR(snap[path], value,
                        1e-9 * std::max(1.0, std::fabs(value)))
                << path << " at jobs=" << jobs;
        }
    }
    support::MetricsRegistry::global().reset();
}

TEST(Metrics, DeterministicSnapshotSkipsTimersAndGauges)
{
    MetricsRegistry reg;
    reg.counter("c").inc(2);
    reg.doubleSum("s").add(1.5);
    reg.histogram("h").observe(3);
    reg.timer("t").addNanos(99);
    reg.gauge("g").set(7);

    auto snap = reg.deterministicSnapshot();
    // c, s, h.{count,sum,p50,p95,p99}
    EXPECT_EQ(snap.size(), 7u);
    EXPECT_DOUBLE_EQ(snap["c"], 2);
    EXPECT_DOUBLE_EQ(snap["s"], 1.5);
    EXPECT_DOUBLE_EQ(snap["h.count"], 1);
    EXPECT_DOUBLE_EQ(snap["h.sum"], 3);
    // Bucket bound 4, clamped to the one observation.
    EXPECT_DOUBLE_EQ(snap["h.p50"], 3);
    EXPECT_FALSE(snap.count("t"));
    EXPECT_FALSE(snap.count("g"));
}

TEST(Json, ParserHandlesTheUsualShapes)
{
    json::Value v;
    std::string error;
    ASSERT_TRUE(json::parse(
        R"({"a": [1, 2.5, -3e2], "b": {"c": true, "d": null},
            "e": "esc\"\nA"})",
        v, &error))
        << error;
    EXPECT_DOUBLE_EQ(v.find("a")->array()[2].number(), -300);
    EXPECT_TRUE(v.find("b")->find("c")->boolean());
    EXPECT_TRUE(v.find("b")->find("d")->isNull());
    EXPECT_EQ(v.find("e")->str(), "esc\"\nA");

    EXPECT_FALSE(json::parse("{", v, &error));
    EXPECT_FALSE(json::parse("[1,]", v, &error));
    EXPECT_FALSE(json::parse("1 2", v, &error));
}

} // namespace hippo::test
