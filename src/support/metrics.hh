/**
 * @file
 * hippo_metrics: the pipeline-wide measurement substrate. Every
 * stage of the repro (VM, PM pool, detector, crash explorer,
 * Andersen analysis, fixer, benches) records into a hierarchical
 * registry of cheap thread-safe instruments:
 *
 *  - Counter     monotonically increasing uint64 (deterministic:
 *                byte-identical at every `jobs` setting, because
 *                increments are order-independent sums);
 *  - DoubleSum   accumulating double for deterministic simulated
 *                quantities (sim ns, throughput) — compared by the
 *                CI gate like a counter, modulo fp association;
 *  - Gauge       last-written double (peak RSS and other
 *                point-in-time probes; informational only);
 *  - Timer       wall-clock accumulation (count + total ns) with a
 *                ScopedTimer RAII helper; informational only —
 *                never compared against baselines by default;
 *  - Histogram   count/sum/min/max plus sparse log2 buckets, for
 *                size distributions (points-to set sizes, replay
 *                step counts).
 *
 * Paths are '.'-separated ("vm.flush.clwb"); the JSON serializer
 * nests them into the per-phase tree documented in docs/FORMATS.md
 * §5. Instruments are created on first use and live as long as the
 * registry; references returned by the accessors stay valid until
 * the registry is destroyed (reset() zeroes values in place, so
 * held references survive it).
 */

#ifndef HIPPO_SUPPORT_METRICS_HH
#define HIPPO_SUPPORT_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/json.hh"
#include "support/stopwatch.hh"

namespace hippo::support
{

/** Instrument flavors (the "kind" member of every JSON leaf). */
enum class MetricKind : uint8_t
{
    Counter,
    DoubleSum,
    Gauge,
    Timer,
    Histogram,
};

const char *metricKindName(MetricKind k);

/** Base class: every instrument serializes and resets itself. */
class Metric
{
  public:
    explicit Metric(MetricKind kind) : kind_(kind) {}
    virtual ~Metric() = default;

    MetricKind kind() const { return kind_; }

    /** True when the CI regression gate compares this instrument
     *  against a committed baseline (counters, sums, histograms —
     *  the deterministic ones). */
    bool
    comparable() const
    {
        return kind_ == MetricKind::Counter ||
               kind_ == MetricKind::DoubleSum ||
               kind_ == MetricKind::Histogram;
    }

    virtual json::Value toJson() const = 0;
    virtual void reset() = 0;

  private:
    MetricKind kind_;
};

/** Monotonic uint64 counter. */
class Counter : public Metric
{
  public:
    Counter() : Metric(MetricKind::Counter) {}

    void
    inc(uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    json::Value toJson() const override;
    void reset() override { value_.store(0); }

  private:
    std::atomic<uint64_t> value_{0};
};

/** Accumulating double (for deterministic simulated quantities). */
class DoubleSum : public Metric
{
  public:
    DoubleSum() : Metric(MetricKind::DoubleSum) {}

    void
    add(double v)
    {
        double cur = value_.load(std::memory_order_relaxed);
        while (!value_.compare_exchange_weak(
            cur, cur + v, std::memory_order_relaxed))
            ;
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    json::Value toJson() const override;
    void reset() override { value_.store(0); }

  private:
    std::atomic<double> value_{0};
};

/** Last-written double (point-in-time probes; informational). */
class Gauge : public Metric
{
  public:
    Gauge() : Metric(MetricKind::Gauge) {}

    void
    set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    /** Keep the maximum of the current and @p v (peak trackers). */
    void
    setMax(double v)
    {
        double cur = value_.load(std::memory_order_relaxed);
        while (cur < v &&
               !value_.compare_exchange_weak(
                   cur, v, std::memory_order_relaxed))
            ;
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    json::Value toJson() const override;
    void reset() override { value_.store(0); }

  private:
    std::atomic<double> value_{0};
};

/** Wall-clock accumulator: number of timed spans and total ns. */
class Timer : public Metric
{
  public:
    Timer() : Metric(MetricKind::Timer) {}

    void
    addNanos(uint64_t ns)
    {
        count_.fetch_add(1, std::memory_order_relaxed);
        totalNs_.fetch_add(ns, std::memory_order_relaxed);
    }

    uint64_t
    count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    uint64_t
    totalNs() const
    {
        return totalNs_.load(std::memory_order_relaxed);
    }

    json::Value toJson() const override;

    void
    reset() override
    {
        count_.store(0);
        totalNs_.store(0);
    }

  private:
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> totalNs_{0};
};

/** RAII span: charges the enclosed wall time to a Timer. */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Timer &timer) : timer_(timer) {}

    ~ScopedTimer()
    {
        timer_.addNanos(
            (uint64_t)(watch_.elapsedSeconds() * 1e9));
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    Timer &timer_;
    Stopwatch watch_;
};

/**
 * count/sum/min/max plus sparse power-of-two buckets. Bucket i
 * counts observations in (2^(i-1), 2^i] (bucket 0: values <= 1).
 * All fields are order-independent aggregates, so histograms are
 * deterministic across `jobs` settings for deterministic inputs.
 */
class Histogram : public Metric
{
  public:
    static constexpr int numBuckets = 64;

    Histogram() : Metric(MetricKind::Histogram) {}

    void observe(double v);

    uint64_t
    count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    double
    sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }

    double min() const;
    double max() const;

    /**
     * Quantile estimate with fixed log-bucket resolution: the upper
     * bound of the bucket holding the ceil(q*count)-th observation
     * (bucket 0 -> 1.0, bucket i -> 2^i), clamped to the observed
     * [min, max]. Because the bounds are fixed and the rank is
     * computed from order-independent bucket counts, the result is a
     * deterministic, baseline-comparable value — not a wall-clock
     * measurement — so bench_check gates p50/p95/p99 like any
     * counter. Returns 0 on an empty histogram; @p q is clamped to
     * [0, 1].
     */
    double percentile(double q) const;

    json::Value toJson() const override;
    void reset() override;

  private:
    std::atomic<uint64_t> count_{0};
    std::atomic<double> sum_{0};
    std::atomic<double> min_{0};
    std::atomic<double> max_{0};
    std::atomic<uint64_t> buckets_[numBuckets] = {};
};

/**
 * The hierarchical instrument registry. Accessors create the
 * instrument on first use (under a mutex) and return a stable
 * reference; the instruments themselves are lock-free. Mixing
 * kinds at one path is a fatal error.
 *
 * `global()` is the process-wide registry the pipeline stages
 * record into; tests build private registries for isolation.
 */
class MetricsRegistry
{
  public:
    Counter &counter(const std::string &path);
    DoubleSum &doubleSum(const std::string &path);
    Gauge &gauge(const std::string &path);
    Timer &timer(const std::string &path);
    Histogram &histogram(const std::string &path);

    /** Instrument at @p path, or null when absent. */
    const Metric *find(const std::string &path) const;

    /** Number of registered instruments. */
    size_t size() const;

    /** Zero every instrument in place (references stay valid). */
    void reset();

    /**
     * Serialize to the nested per-phase tree: each '.'-separated
     * path component becomes an object level, each instrument a
     * leaf object carrying a "kind" member.
     */
    json::Value toJson() const;

    /**
     * Flat view of the deterministic (comparable) instruments:
     * counters and sums map path -> value, histograms contribute
     * "<path>.count" and "<path>.sum". This is what the
     * determinism tests compare across `jobs` settings.
     */
    std::map<std::string, double> deterministicSnapshot() const;

    /** The process-wide registry. */
    static MetricsRegistry &global();

  private:
    template <typename T>
    T &instrument(const std::string &path, MetricKind kind);

    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Metric>> metrics_;
};

/**
 * The stats-file schema version (docs/FORMATS.md §5). Bump when a
 * serialized field changes meaning; bench_check refuses to compare
 * files with mismatched versions.
 *
 * v2: the fault-injection counter families (pmem .fault.*,
 * explorer.fault.* / explorer.degraded.*, fixer.degraded.*,
 * vm.watchdog.*) joined the tree, and `recovered` values from
 * unverified crash points no longer feed the explorer recovery
 * aggregates — v1 baselines that gated those aggregates are not
 * comparable and must be regenerated.
 *
 * v2 -> v3: the verified flush/fence optimizer landed (fixer.opt.*,
 * fixer.clean.*, fig4.opt.*, flushopt.* families) and the fig4
 * bench grew an optimized-Redis leg, shifting its flush/fence
 * counters — v2 baselines are not comparable and were regenerated.
 *
 * v3 -> v4: histograms now export deterministic log-bucket
 * percentiles (p50/p95/p99 in both the JSON leaf and the
 * deterministic snapshot), the sharded-execution counter families
 * (shard.*, router.*, ycsb.latency.*, shardscale.*) joined the
 * tree, and the fig4 bench grew a sharded leg — v3 baselines lack
 * the new histogram leaves and were regenerated.
 *
 * v4 -> v5: the thread model landed: the scheduler counters
 * (vm.sched.*), the interleaving-bounded exploration families
 * (explorer.sched.*, interleave.*), and the
 * explorer.wallclock.retries gauge joined the tree, and wall-clock-
 * cut recovery attempts no longer feed explorer.recovery.steps (they
 * are retried under a deterministic step cap instead) — v4 baselines
 * predate those leaves and were regenerated.
 *
 * Within v5, the sharded-execution families were removed and
 * histogram percentiles clamped to the observed [min, max]. No
 * remaining leaf changed its meaning, so the version stayed. Later
 * the explorer's degradation ladder lost its second rung (and
 * explorer.degraded.retries with it), so an unverified crash point
 * counts one recovery attempt instead of two; no baseline had such
 * a point, so the version stayed again.
 */
constexpr int statsSchemaVersion = 5;

/**
 * Assemble the full stats document: schema version, the build/host
 * environment block, optional caller-provided env entries, and the
 * registry's metric tree.
 */
json::Value statsDocument(
    const MetricsRegistry &reg,
    const std::vector<std::pair<std::string, std::string>>
        &extraEnv = {});

/**
 * Write the stats document to @p path (pretty-printed, trailing
 * newline). @retval false (with @p error set) when the file cannot
 * be written.
 */
bool writeStatsJson(
    const std::string &path, const MetricsRegistry &reg,
    const std::vector<std::pair<std::string, std::string>>
        &extraEnv = {},
    std::string *error = nullptr);

} // namespace hippo::support

#endif // HIPPO_SUPPORT_METRICS_HH
