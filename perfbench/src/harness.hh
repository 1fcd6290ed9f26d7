/**
 * @file
 * The benchmark harness: the workload interface, the in-memory span
 * tracer of the traced run, and the timed request loop that turns
 * per-request CPU times into the end-to-end metrics.
 *
 * Every span is recorded here, around calls into the hippo libraries'
 * public functions; nothing inside the libraries is traced.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace hippo::support
{
class Counter;
class Timer;
} // namespace hippo::support

namespace perfbench
{

/** Monotonic nanoseconds. */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** CPU time of the whole process (all threads), in nanoseconds. */
int64_t processCpuNs();

/** One recorded span; parent is an index into the span list. */
struct SpanRecord
{
    const char *name = nullptr; ///< static string: the layer call
    uint64_t request = 0;
    int64_t startNs = 0;
    int64_t endNs = 0;
    int32_t parent = -1;
};

/**
 * Records spans in memory. Spans nest through an open-span stack, so
 * a span's parent is the innermost span open when it started.
 */
class Tracer
{
  public:
    void setRequest(uint64_t id) { request_ = id; }

    int32_t open(const char *name);
    void close(int32_t index);

    const std::vector<SpanRecord> &spans() const { return spans_; }

  private:
    std::vector<SpanRecord> spans_;
    std::vector<int32_t> stack_;
    uint64_t request_ = 0;
};

/** RAII span around one layer call; free when @p t is null. */
class Scope
{
  public:
    Scope(Tracer *t, const char *name)
        : tracer_(t), index_(t ? t->open(name) : -1)
    {}

    ~Scope()
    {
        if (tracer_)
            tracer_->close(index_);
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tracer_;
    int32_t index_;
};

/** Per-layer sums a workload accumulates over its traced requests. */
using LayerSums = std::map<std::string, double>;

/** Named metric values. */
using Metrics = std::map<std::string, double>;

/**
 * Before/after reader of library registry instruments (counters, or
 * timer totals in ns), for per-request deltas.
 */
class RegistryDelta
{
  public:
    /** Counter paths; a "timer:" prefix reads a Timer's total ns. */
    explicit RegistryDelta(const std::vector<std::string> &paths);

    void begin();

    /** Add each instrument's change since begin() to @p sums, keyed
     *  by its path. */
    void addTo(LayerSums &sums) const;

  private:
    uint64_t read(size_t i) const;

    std::vector<std::string> paths_;
    std::vector<const hippo::support::Counter *> counters_;
    std::vector<const hippo::support::Timer *> timers_;
    std::vector<uint64_t> before_;
};

/**
 * One workload. The harness builds it (several times, to take the
 * median set-up time), calls warmUp() once per build, and then runs
 * request(i) for i = 0, 1, 2, ... in whole cycles.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Requests per cycle; the loop stops only at cycle ends. */
    virtual uint64_t cycleLength() const = 0;

    /** Total requests a run executes, or 0 to run whole cycles until
     *  the measuring time is up. */
    virtual uint64_t fixedRequests() const { return 0; }

    /** The untimed request that absorbs first-use costs. */
    virtual void warmUp() = 0;

    /** Per-request preparation (e.g. input generation), counted in
     *  neither the request's latency nor the request rate. */
    virtual void prepare(uint64_t, Tracer *, LayerSums *) {}

    /**
     * Run request @p i. With a tracer, record spans and add
     * per-layer counts to @p layers. Returns true when the request's
     * verdict matches the workload's reference.
     */
    virtual bool request(uint64_t i, Tracer *tracer,
                         LayerSums *layers) = 0;

    /** Checks made outside the requests (e.g. between rounds), run
     *  or tallied after the timed loop. Each counts as one attempted
     *  item in the result, and each that fails as one failed item. */
    struct Checks
    {
        uint64_t attempted = 0;
        uint64_t failed = 0;
    };
    virtual Checks finish() { return {}; }

    /** Operations per simulated second over the @p requests timed
     *  requests (the VM's deterministic cost model). */
    virtual double simOpsPerSecond(uint64_t requests) const = 0;

    /** Per-layer metrics from the sums of @p requests traced
     *  requests; the harness has added each span name's self time
     *  to @p sums as "<name>_ns". */
    virtual void layerMetrics(const LayerSums &sums, double requests,
                              Metrics &out) const = 0;
};

/** Options of one benchmark run. */
struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool corrupt = false; ///< falsify one reference value
    std::string spansOut; ///< traced run: span file ("" = none)
};

/** Builds one workload; every input derives from opt.seed, and
 *  opt.corrupt falsifies one reference value (the checker
 *  self-test). */
using WorkloadFactory = std::unique_ptr<Workload> (*)(const RunOptions &);

/** Run one workload; prints the result line. Returns the exit code. */
int runBenchmark(const RunOptions &opt, WorkloadFactory factory);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
