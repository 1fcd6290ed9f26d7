#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <string_view>

#include "support/metrics.hh"

namespace perfbench
{

namespace
{

/** Every per-layer metric of BENCHMARK.json; a workload that does
 *  not exercise a layer reports it as 0. */
const char *const kLayerMetrics[] = {
    "ir.parse_us",
    "ir.verify_us",
    "analysis.static_check_us",
    "analysis.static_candidates",
    "pmem.pool_construct_us",
    "vm.construct_us",
    "vm.run_us",
    "vm.steps",
    "trace.events",
    "pmcheck.detect_us",
    "pmcheck.bugs",
    "core.fix_us",
    "core.fixes",
    "pmcheck.explore_us",
    "explorer.crash_points",
    "explorer.replay_us_per_point",
    "explorer.profile_us",
    "explorer.recovery_steps_per_point",
    "explorer.snapshot_forks",
    "explorer.pages_copied",
    "explorer.unverified_frac",
    "explorer.sched.executed",
    "explorer.sched.race_crashes",
    "explorer.sched.degraded",
    "explorer.sched.visible_ops",
    "vm.sched.wait_us",
    "apps.execute_us",
    "vm.steps_per_op",
    "vm.dispatches_per_op",
    "vm.ns_per_step",
    "pmem.flushes_per_op",
    "pmem.fences_per_op",
    "ycsb.gen_us",
    "request_us",
    "other_us",
    "trace_overhead_pct",
};

/** Spans written to the span file at most (the per-layer metrics
 *  always use every span). */
constexpr size_t kMaxSpansWritten = 20000;

/** Set-up repetitions whose median is setup_s. */
constexpr int kSetupRepeats = 5;

/** Share of a run's cycles, fastest first, that the end-to-end
 *  timings are taken over. The host's other tenants slow this VM's
 *  caches in spells that come and go within a run; the cost of a
 *  request in the quietest tenth of the run moved least between runs
 *  (see perfbench/README.md, "Noise"). */
constexpr double kQuietShare = 0.1;

/** Requests the end-to-end timings are taken over at least, so that
 *  ten lie beyond p90. */
constexpr size_t kMinTimedRequests = 100;

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * (double)(v.size() - 1);
    size_t lo = (size_t)pos;
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - (double)lo);
}

/**
 * The CPU times of the requests of the run's fastest cycles: the
 * kQuietShare of all cycles with the least CPU time, and at least
 * kMinTimedRequests requests. @p us holds whole cycles in run order.
 */
std::vector<double>
quietCycles(const std::vector<double> &us, size_t cycle)
{
    const size_t cycles = us.size() / cycle;
    std::vector<std::pair<double, size_t>> byTime; // (CPU time, start)
    for (size_t c = 0; c < cycles; c++) {
        double sum = 0;
        for (size_t k = c * cycle; k < (c + 1) * cycle; k++)
            sum += us[k];
        byTime.push_back({sum, c * cycle});
    }
    std::sort(byTime.begin(), byTime.end());
    size_t keep = std::max((size_t)std::ceil(kQuietShare * (double)cycles),
                           (kMinTimedRequests + cycle - 1) / cycle);
    std::vector<double> out;
    for (size_t c = 0; c < std::min(keep, cycles); c++)
        out.insert(out.end(), us.begin() + byTime[c].second,
                   us.begin() + byTime[c].second + cycle);
    return out;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return (double)ru.ru_maxrss / 1024.0;
}

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const Metrics &metrics,
            const std::map<std::string, std::string> &units)
{
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed);
    line += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, value] : metrics) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(value) ? value : 0.0);
        auto u = units.find(name);
        line += (first ? "\"" : ", \"") + name +
                "\": {\"value\": " + buf + ", \"unit\": \"" +
                (u == units.end() ? "count" : u->second) + "\"}";
        first = false;
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

/** Unit of a per-layer metric, from its name. */
std::string
layerUnit(std::string_view name)
{
    if (name.ends_with("_us") || name.ends_with("_us_per_point"))
        return "us";
    if (name.ends_with("_ns") || name == "vm.ns_per_step")
        return "ns";
    if (name.ends_with("_pct"))
        return "%";
    if (name.ends_with("_frac"))
        return "ratio";
    return "count";
}

/** Chrome trace-event JSON ("X" events), viewable in Perfetto. */
void
writeSpans(const std::string &path, const std::vector<SpanRecord> &spans)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     path.c_str());
        return;
    }
    int64_t origin = spans.empty() ? 0 : spans.front().startNs;
    size_t n = std::min(spans.size(), kMaxSpansWritten);
    std::fprintf(f, "{\"spansRecorded\": %zu, \"spansWritten\": %zu, "
                    "\"traceEvents\": [\n",
                 spans.size(), n);
    for (size_t i = 0; i < n; i++) {
        const SpanRecord &s = spans[i];
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"request\": %llu, \"span\": %zu, "
                     "\"parent\": %d}}\n",
                     i ? "," : "", s.name,
                     (double)(s.startNs - origin) / 1e3,
                     (double)(s.endNs - s.startNs) / 1e3,
                     (unsigned long long)s.request, i, s.parent);
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
}

} // namespace

int64_t
processCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

int32_t
Tracer::open(const char *name)
{
    SpanRecord s;
    s.name = name;
    s.request = request_;
    s.parent = stack_.empty() ? -1 : stack_.back();
    auto index = (int32_t)spans_.size();
    stack_.push_back(index);
    s.startNs = nowNs();
    spans_.push_back(s);
    return index;
}

void
Tracer::close(int32_t index)
{
    spans_[index].endNs = nowNs();
    stack_.pop_back();
}

RegistryDelta::RegistryDelta(const std::vector<std::string> &paths)
    : paths_(paths), counters_(paths.size(), nullptr),
      timers_(paths.size(), nullptr), before_(paths.size(), 0)
{
    auto &reg = hippo::support::MetricsRegistry::global();
    for (size_t i = 0; i < paths.size(); i++) {
        std::string_view p = paths[i];
        if (p.starts_with("timer:"))
            timers_[i] = &reg.timer(std::string(p.substr(6)));
        else
            counters_[i] = &reg.counter(paths[i]);
    }
}

uint64_t
RegistryDelta::read(size_t i) const
{
    return timers_[i] ? timers_[i]->totalNs() : counters_[i]->value();
}

void
RegistryDelta::begin()
{
    for (size_t i = 0; i < paths_.size(); i++)
        before_[i] = read(i);
}

void
RegistryDelta::addTo(LayerSums &sums) const
{
    for (size_t i = 0; i < paths_.size(); i++)
        sums[paths_[i]] += (double)(read(i) - before_[i]);
}

int
runBenchmark(const RunOptions &opt, WorkloadFactory factory)
{
    // Set-up: build the workload several times, each build paying
    // its own warm-up request; keep the last build. Set-up and
    // requests are timed in process CPU time: on a shared host, wall
    // time also counts the time the host or the guest kernel gave
    // this process's CPU to someone else, which moved whole runs by
    // 2x (see perfbench/README.md, "Noise").
    std::unique_ptr<Workload> w;
    std::vector<double> setups;
    for (int k = 0; k < kSetupRepeats; k++) {
        w.reset();
        int64_t c0 = processCpuNs();
        w = factory(opt);
        w->warmUp();
        setups.push_back((double)(processCpuNs() - c0) / 1e9);
    }

    const uint64_t cycle = w->cycleLength();
    const uint64_t fixed = w->fixedRequests();
    Tracer tracer;
    LayerSums sums;
    // Untraced requests land in latUs (wall) and cpuUs (CPU time),
    // the traced cycles of the traced run in tracedUs (wall).
    std::vector<double> latUs, cpuUs, tracedUs;
    uint64_t failed = 0, tracedRequests = 0;

    const int64_t deadline = nowNs() + (int64_t)(opt.seconds * 1e9);
    bool traced = false;
    uint64_t i = 0;
    for (;; i++) {
        if (i % cycle == 0) {
            if (fixed ? i >= fixed : (i > 0 && nowNs() >= deadline))
                break;
            // The traced run alternates traced and untraced cycles
            // over the same inputs; their medians give the overhead.
            traced = opt.trace && (i / cycle) % 2 == 0;
        }
        Tracer *t = traced ? &tracer : nullptr;
        LayerSums *layers = traced ? &sums : nullptr;
        tracer.setRequest(i);
        w->prepare(i, t, layers);
        int64_t t0 = nowNs(), c0 = processCpuNs();
        bool ok;
        {
            Scope root(t, "request");
            ok = w->request(i, t, layers);
        }
        double cpu = (double)(processCpuNs() - c0) / 1e3;
        double us = (double)(nowNs() - t0) / 1e3;
        failed += !ok;
        (traced ? tracedUs : latUs).push_back(us);
        if (!traced)
            cpuUs.push_back(cpu);
        tracedRequests += traced;
    }
    const uint64_t requests = i;
    const Workload::Checks checks = w->finish();
    const uint64_t attempted = requests + checks.attempted;
    failed += checks.failed;

    Metrics metrics;
    std::map<std::string, std::string> units;
    if (!opt.trace) {
        const std::vector<double> quiet = quietCycles(cpuUs, cycle);
        double quietS = 0;
        for (double us : quiet)
            quietS += us / 1e6;
        metrics["setup_s"] = percentile(setups, 0.5);
        metrics["req_per_cpu_s"] = (double)quiet.size() / quietS;
        metrics["req_cpu_us_p50"] = percentile(quiet, 0.5);
        metrics["req_cpu_us_p90"] = percentile(quiet, 0.9);
        metrics["peak_rss_mb"] = peakRssMb();
        metrics["correct_frac"] =
            1.0 - std::min(1.0, (double)failed / (double)attempted);
        metrics["sim_ops_per_s"] = w->simOpsPerSecond(requests);
        units = {{"setup_s", "s"},          {"req_per_cpu_s", "1/s"},
                 {"req_cpu_us_p50", "us"},  {"req_cpu_us_p90", "us"},
                 {"peak_rss_mb", "MB"},     {"correct_frac", "ratio"},
                 {"sim_ops_per_s", "1/s"}};
    } else {
        for (const char *name : kLayerMetrics)
            metrics[name] = 0;
        // Self time: a span's duration minus its children's.
        const auto &spans = tracer.spans();
        std::vector<double> self(spans.size());
        for (size_t s = 0; s < spans.size(); s++) {
            double d = (double)(spans[s].endNs - spans[s].startNs);
            self[s] += d;
            if (spans[s].parent >= 0)
                self[spans[s].parent] -= d;
        }
        LayerSums spanNs;
        double requestNs = 0;
        for (size_t s = 0; s < spans.size(); s++) {
            spanNs[spans[s].name] += self[s];
            if (std::string_view(spans[s].name) == "request")
                requestNs += (double)(spans[s].endNs - spans[s].startNs);
        }
        double n = (double)std::max<uint64_t>(tracedRequests, 1);
        for (const auto &[name, ns] : spanNs) {
            sums[name + "_ns"] += ns;
            metrics[name == "request" ? "other_us" : name + "_us"] =
                ns / 1e3 / n;
        }
        metrics["request_us"] = requestNs / 1e3 / n;
        double plain = percentile(latUs, 0.5);
        metrics["trace_overhead_pct"] =
            plain > 0 ? (percentile(tracedUs, 0.5) - plain) / plain * 100
                      : 0;
        w->layerMetrics(sums, n, metrics);
        for (const auto &[name, value] : metrics)
            units[name] = layerUnit(name);
        if (!opt.spansOut.empty())
            writeSpans(opt.spansOut, spans);
    }
    printResult(failed == 0, attempted, failed, metrics, units);
    return 0;
}

} // namespace perfbench
