#include "metrics.hh"

#include <cmath>
#include <fstream>

#include "support/logging.hh"
#include "support/strings.hh"
#include "support/parallel.hh"

namespace hippo::support
{

const char *
metricKindName(MetricKind k)
{
    switch (k) {
      case MetricKind::Counter: return "counter";
      case MetricKind::DoubleSum: return "sum";
      case MetricKind::Gauge: return "gauge";
      case MetricKind::Timer: return "timer";
      case MetricKind::Histogram: return "hist";
    }
    hippo_panic("bad metric kind");
}

json::Value
Counter::toJson() const
{
    json::Value v = json::Value::makeObject();
    v["kind"] = metricKindName(kind());
    v["value"] = value();
    return v;
}

json::Value
DoubleSum::toJson() const
{
    json::Value v = json::Value::makeObject();
    v["kind"] = metricKindName(kind());
    v["value"] = value();
    return v;
}

json::Value
Gauge::toJson() const
{
    json::Value v = json::Value::makeObject();
    v["kind"] = metricKindName(kind());
    v["value"] = value();
    return v;
}

json::Value
Timer::toJson() const
{
    json::Value v = json::Value::makeObject();
    v["kind"] = metricKindName(kind());
    v["count"] = count();
    v["total_ns"] = totalNs();
    return v;
}

void
Histogram::observe(double v)
{
    uint64_t n = count_.fetch_add(1, std::memory_order_relaxed);
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed))
        ;
    // First observation seeds min and max; later ones CAS toward
    // the extremes. The n==0 seed races only against other
    // observations, which drive the same CAS loops, so the final
    // min/max are exact either way.
    if (n == 0) {
        min_.store(v, std::memory_order_relaxed);
        max_.store(v, std::memory_order_relaxed);
    }
    double mn = min_.load(std::memory_order_relaxed);
    while (v < mn && !min_.compare_exchange_weak(
                         mn, v, std::memory_order_relaxed))
        ;
    double mx = max_.load(std::memory_order_relaxed);
    while (v > mx && !max_.compare_exchange_weak(
                         mx, v, std::memory_order_relaxed))
        ;

    int bucket = 0;
    if (v > 1) {
        bucket = 1 + (int)std::floor(std::log2(v - 0.5));
        bucket = std::min(std::max(bucket, 1), numBuckets - 1);
    }
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
}

double
Histogram::min() const
{
    return min_.load(std::memory_order_relaxed);
}

double
Histogram::max() const
{
    return max_.load(std::memory_order_relaxed);
}

double
Histogram::percentile(double q) const
{
    uint64_t n = count();
    if (!n)
        return 0;
    q = std::min(std::max(q, 0.0), 1.0);
    // Rank of the requested observation, 1-based: p0 is the first
    // observation, p100 the last.
    uint64_t target = (uint64_t)std::ceil(q * (double)n);
    if (target < 1)
        target = 1;
    uint64_t seen = 0;
    int i = 0;
    for (; i < numBuckets - 1; i++) {
        seen += buckets_[i].load(std::memory_order_relaxed);
        if (seen >= target)
            break;
    }
    // A bucket bound can lie outside what was observed (all 0s land
    // in bucket 0, bound 1); a percentile never leaves [min, max].
    double bound = i == 0 ? 1.0 : std::ldexp(1.0, i);
    return std::min(std::max(bound, min()), max());
}

json::Value
Histogram::toJson() const
{
    json::Value v = json::Value::makeObject();
    v["kind"] = metricKindName(kind());
    v["count"] = count();
    v["sum"] = sum();
    v["min"] = min();
    v["max"] = max();
    v["p50"] = percentile(0.50);
    v["p95"] = percentile(0.95);
    v["p99"] = percentile(0.99);
    json::Value buckets = json::Value::makeArray();
    for (int i = 0; i < numBuckets; i++) {
        uint64_t n = buckets_[i].load(std::memory_order_relaxed);
        if (!n)
            continue;
        json::Value entry = json::Value::makeArray();
        entry.append(json::Value((uint64_t)i));
        entry.append(json::Value(n));
        buckets.append(std::move(entry));
    }
    v["buckets"] = std::move(buckets);
    return v;
}

void
Histogram::reset()
{
    count_.store(0);
    sum_.store(0);
    min_.store(0);
    max_.store(0);
    for (auto &b : buckets_)
        b.store(0);
}

template <typename T>
T &
MetricsRegistry::instrument(const std::string &path, MetricKind kind)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = metrics_.find(path);
    if (it == metrics_.end())
        it = metrics_.emplace(path, std::make_unique<T>()).first;
    hippo_assert(it->second->kind() == kind,
                 "metric '%s' re-registered as %s (was %s)",
                 path.c_str(), metricKindName(kind),
                 metricKindName(it->second->kind()));
    return static_cast<T &>(*it->second);
}

Counter &
MetricsRegistry::counter(const std::string &path)
{
    return instrument<Counter>(path, MetricKind::Counter);
}

DoubleSum &
MetricsRegistry::doubleSum(const std::string &path)
{
    return instrument<DoubleSum>(path, MetricKind::DoubleSum);
}

Gauge &
MetricsRegistry::gauge(const std::string &path)
{
    return instrument<Gauge>(path, MetricKind::Gauge);
}

Timer &
MetricsRegistry::timer(const std::string &path)
{
    return instrument<Timer>(path, MetricKind::Timer);
}

Histogram &
MetricsRegistry::histogram(const std::string &path)
{
    return instrument<Histogram>(path, MetricKind::Histogram);
}

const Metric *
MetricsRegistry::find(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = metrics_.find(path);
    return it == metrics_.end() ? nullptr : it->second.get();
}

size_t
MetricsRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return metrics_.size();
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &[path, metric] : metrics_)
        metric->reset();
}

json::Value
MetricsRegistry::toJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    json::Value root = json::Value::makeObject();
    for (const auto &[path, metric] : metrics_) {
        json::Value *node = &root;
        for (const std::string &part : split(path, '.'))
            node = &(*node)[part];
        *node = metric->toJson();
    }
    return root;
}

std::map<std::string, double>
MetricsRegistry::deterministicSnapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, double> out;
    for (const auto &[path, metric] : metrics_) {
        switch (metric->kind()) {
          case MetricKind::Counter:
            out[path] = (double)static_cast<const Counter &>(
                            *metric)
                            .value();
            break;
          case MetricKind::DoubleSum:
            out[path] =
                static_cast<const DoubleSum &>(*metric).value();
            break;
          case MetricKind::Histogram: {
            const auto &h =
                static_cast<const Histogram &>(*metric);
            out[path + ".count"] = (double)h.count();
            out[path + ".sum"] = h.sum();
            out[path + ".p50"] = h.percentile(0.50);
            out[path + ".p95"] = h.percentile(0.95);
            out[path + ".p99"] = h.percentile(0.99);
            break;
          }
          case MetricKind::Gauge:
          case MetricKind::Timer:
            break; // wall-clock / point-in-time: not deterministic
        }
    }
    return out;
}

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry reg;
    return reg;
}

json::Value
statsDocument(
    const MetricsRegistry &reg,
    const std::vector<std::pair<std::string, std::string>>
        &extraEnv)
{
    json::Value doc = json::Value::makeObject();
    doc["schema_version"] = json::Value((uint64_t)statsSchemaVersion);

    json::Value env = json::Value::makeObject();
#if defined(__clang__) || defined(__GNUC__)
    env["compiler"] = __VERSION__;
#else
    env["compiler"] = "unknown";
#endif
#ifdef NDEBUG
    env["assertions"] = false;
#else
    env["assertions"] = true;
#endif
#ifdef __linux__
    env["os"] = "linux";
#elif defined(__APPLE__)
    env["os"] = "darwin";
#else
    env["os"] = "other";
#endif
#if defined(__SANITIZE_ADDRESS__)
    env["sanitizer"] = "address";
#elif defined(__SANITIZE_THREAD__)
    env["sanitizer"] = "thread";
#else
    env["sanitizer"] = "none";
#endif
    env["pointer_bits"] = json::Value((uint64_t)(sizeof(void *) * 8));
    env["hardware_threads"] =
        json::Value((uint64_t)hardwareConcurrency());
    for (const auto &[key, value] : extraEnv)
        env[key] = value;
    doc["env"] = std::move(env);

    doc["metrics"] = reg.toJson();
    return doc;
}

bool
writeStatsJson(
    const std::string &path, const MetricsRegistry &reg,
    const std::vector<std::pair<std::string, std::string>>
        &extraEnv,
    std::string *error)
{
    std::ofstream out(path);
    if (!out) {
        if (error)
            *error = format("cannot open %s for writing",
                            path.c_str());
        return false;
    }
    out << statsDocument(reg, extraEnv).dump(2) << "\n";
    out.flush();
    if (!out) {
        if (error)
            *error = format("write to %s failed", path.c_str());
        return false;
    }
    return true;
}

} // namespace hippo::support
