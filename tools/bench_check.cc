/**
 * @file
 * bench_check — the CI regression gate over bench --stats documents.
 *
 *   bench_check <baseline.json> <fresh.json>
 *
 * Compares every *comparable* instrument (counters, sums,
 * histograms — the deterministic ones; see src/support/metrics.hh)
 * in the baseline against the fresh run and fails when one differs
 * or when a baseline metric is missing from the fresh run. Counter
 * and histogram leaves must be equal; floating-point sums must agree
 * within a relative 1e-9, which absorbs only floating-point rounding
 * (summation order, printed digits). Any looser margin would let a
 * deterministic figure (say, the share of flushes an optimization
 * removes) regress unnoticed. Wall-clock timers and gauges are
 * host-dependent and are never compared.
 *
 * Files with different schema_version values are never compared:
 * refresh the baseline instead (docs/FORMATS.md §5). Newly added
 * counters (e.g. the snapshot-engine family: explorer.snapshot.*,
 * explorer.replay.steps_saved, explorer.engine.*, pmpool
 * <prefix>.snapshot.*) are deterministic and ride the standard
 * counter path here — they start gating as soon as they appear in a
 * refreshed baseline; until then they are reported as "no baseline
 * yet".
 *
 * Exit codes: 0 pass, 1 regression, 2 usage/parse error.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "support/json.hh"
#include "support/metrics.hh"

using namespace hippo;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s <baseline.json> <fresh.json>\n",
                 argv0);
    std::exit(2);
}

json::Value
loadStats(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "bench_check: cannot open %s\n",
                     path.c_str());
        std::exit(2);
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    json::Value doc;
    std::string error;
    if (!json::parse(ss.str(), doc, &error)) {
        std::fprintf(stderr, "bench_check: %s: %s\n", path.c_str(),
                     error.c_str());
        std::exit(2);
    }
    if (!doc.isObject() || !doc.find("metrics") ||
        !doc.find("schema_version")) {
        std::fprintf(stderr,
                     "bench_check: %s: not a stats document\n",
                     path.c_str());
        std::exit(2);
    }
    return doc;
}

/** Relative deviation a floating-point sum may show. */
constexpr double sumTolerance = 1e-9;

/** One scalar to compare: "<path>" or "<path>.count" etc. */
struct Leaf
{
    std::string path;
    double value = 0;
    double tolerance = 0; ///< allowed relative deviation
};

/** True when @p node is a serialized instrument (has a "kind"). */
bool
isInstrument(const json::Value &node, std::string &kind)
{
    if (!node.isObject())
        return false;
    const json::Value *k = node.find("kind");
    if (!k || !k->isString())
        return false;
    kind = k->str();
    return true;
}

void
collectLeaves(const json::Value &node, const std::string &path,
              std::vector<Leaf> &out)
{
    std::string kind;
    if (isInstrument(node, kind)) {
        auto num = [&](const char *member) {
            const json::Value *v = node.find(member);
            return v && v->isNumber() ? v->number() : 0.0;
        };
        if (kind == "counter") {
            out.push_back({path, num("value")});
        } else if (kind == "sum") {
            out.push_back({path, num("value"), sumTolerance});
        } else if (kind == "hist") {
            out.push_back({path + ".count", num("count")});
            out.push_back({path + ".sum", num("sum")});
            // Log-bucket percentiles (schema v4): deterministic
            // comparable counters, absent from older files.
            for (const char *p : {"p50", "p95", "p99"})
                if (node.find(p))
                    out.push_back({path + "." + p, num(p)});
        }
        // timers and gauges are informational only
        return;
    }
    if (!node.isObject())
        return;
    for (const auto &[key, child] : node.object())
        collectLeaves(child, path.empty() ? key : path + "." + key,
                      out);
}

/** Symmetric relative deviation: 0 when both are 0. */
double
deviation(double a, double b)
{
    double scale = std::max(std::fabs(a), std::fabs(b));
    return scale == 0 ? 0 : std::fabs(a - b) / scale;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> files;
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        if (arg[0] == '-')
            usage(argv[0]);
        files.push_back(arg);
    }
    if (files.size() != 2)
        usage(argv[0]);

    json::Value base = loadStats(files[0]);
    json::Value fresh = loadStats(files[1]);

    double base_ver = base.find("schema_version")->number();
    double fresh_ver = fresh.find("schema_version")->number();
    if (base_ver != fresh_ver) {
        std::fprintf(stderr,
                     "bench_check: schema_version mismatch (%g vs "
                     "%g); refresh the baseline\n",
                     base_ver, fresh_ver);
        return 2;
    }

    std::vector<Leaf> base_leaves, fresh_leaves;
    collectLeaves(*base.find("metrics"), "", base_leaves);
    collectLeaves(*fresh.find("metrics"), "", fresh_leaves);

    // Index both sides by path: stats documents now carry hundreds
    // of leaves, so the pairing is done via maps rather than a
    // quadratic scan.
    std::map<std::string, double> fresh_by_path, base_by_path;
    for (const Leaf &l : fresh_leaves)
        fresh_by_path[l.path] = l.value;
    for (const Leaf &l : base_leaves)
        base_by_path[l.path] = l.value;

    int failures = 0;
    for (const Leaf &b : base_leaves) {
        auto it = fresh_by_path.find(b.path);
        if (it == fresh_by_path.end()) {
            std::printf("FAIL %-50s missing from fresh run\n",
                        b.path.c_str());
            failures++;
            continue;
        }
        if (deviation(b.value, it->second) > b.tolerance) {
            std::printf("FAIL %-50s baseline %.17g, fresh %.17g\n",
                        b.path.c_str(), b.value, it->second);
            failures++;
        }
    }
    size_t extra = 0;
    for (const Leaf &f : fresh_leaves)
        extra += base_by_path.find(f.path) == base_by_path.end();
    if (extra) {
        std::printf("note: %zu metric(s) in the fresh run have no "
                    "baseline yet (not a failure; refresh the "
                    "baseline to gate them)\n",
                    extra);
    }

    std::printf("%s: %zu metric(s) compared, %d failure(s)\n",
                failures ? "FAIL" : "OK", base_leaves.size(),
                failures);
    return failures ? 1 : 0;
}
