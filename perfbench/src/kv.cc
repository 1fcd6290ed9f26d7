/**
 * @file
 * kv-ycsb: YCSB-A (50% read, 50% update, zipfian) on the pmkv module
 * that buildRedisVariants repairs and then runs through the
 * flush/fence optimizer, after a Load phase. One request is a batch
 * of kBatch operations issued back to back: a read takes about half
 * as long as an update, so the median of single operations falls in
 * the gap between the two and jumps between seeds, while the median
 * of a batch does not.
 *
 * A run executes a fixed number of operations however fast it goes,
 * and the value log is sized for them. pmkv's log is append-only:
 * every insert and update consumes one entry, and the default 8 MiB
 * log fills (aborting the process) after about 60 000 appends. The
 * log can be at most about 60 MiB, because buildRedisVariants maps it
 * in a 64 MiB pool, so the run is split into rounds of kOpsPerRound
 * operations, each on a freshly loaded store whose log holds all of
 * them. The store rebuild between rounds is untimed.
 */

#include <array>
#include <unordered_map>

#include "apps/kv_driver.hh"
#include "support/random.hh"
#include "workloads.hh"
#include "ycsb/ycsb.hh"

namespace perfbench
{

namespace
{

using namespace hippo;

/** YCSB records loaded into each store. */
constexpr uint64_t kRecords = 10000;

/** Operations on one store; its log holds this many appends. */
constexpr uint64_t kOpsPerRound = 400000;

/** Operations per second of --seconds, rounded up to whole rounds. */
constexpr uint64_t kOpsPerSecond = 160000;

/** Operations per request. */
constexpr uint64_t kBatch = 10;

/** Requests per cycle (the traced run alternates by cycle). */
constexpr uint64_t kCycle = 100;

/** Value length KvDriver writes. */
constexpr uint64_t kValLen = 100;

/** One pmkv log entry: 32-byte header plus the 8-byte-rounded value. */
constexpr uint64_t kEntryBytes = 32 + ((kValLen + 7) & ~7ULL);

/** Log bytes: the 8-byte head, then one entry per load insert and
 *  per operation of a round (plus the warm-up request). */
constexpr uint64_t kLogBytes =
    (8 + (kRecords + kOpsPerRound + kBatch) * kEntryBytes + 4095) &
    ~4095ULL;

class KvYcsb : public Workload
{
  public:
    KvYcsb(const RunOptions &opt)
        : seed_(opt.seed), corrupt_(opt.corrupt),
          rounds_((uint64_t)(opt.seconds * kOpsPerSecond +
                             kOpsPerRound - 1) /
                  kOpsPerRound)
    {
        apps::PmkvConfig cfg;
        cfg.logCapacity = kLogBytes;
        poolBytes_ = kLogBytes + cfg.buckets * 8 + (1u << 20);
        variants_ = apps::buildRedisVariants(
            cfg, analysis::AaMode::FullAA, /*optimized=*/true);
        newStore(0);
    }

    uint64_t cycleLength() const override { return kCycle; }

    uint64_t
    fixedRequests() const override
    {
        return std::max<uint64_t>(rounds_, 1) * kOpsPerRound / kBatch;
    }

    void
    warmUp() override
    {
        prepare(0, nullptr, nullptr);
        request(0, nullptr, nullptr);
        simStart_ = kv_->vm().simNanos();
    }

    void
    prepare(uint64_t i, Tracer *t, LayerSums *) override
    {
        if (i > 0 && i * kBatch % kOpsPerRound == 0) {
            checkRecovery();
            simDone_ += kv_->vm().simNanos() - simStart_;
            newStore(i * kBatch / kOpsPerRound);
            simStart_ = kv_->vm().simNanos();
        }
        Scope s(t, "ycsb.gen");
        for (ycsb::Op &op : batch_)
            op = gen_->next();
    }

    bool
    request(uint64_t, Tracer *t, LayerSums *layers) override
    {
        vm::Vm &m = kv_->vm();
        uint64_t steps = m.steps(), dispatches = m.fastDispatches(),
                 flushes = m.flushesExecuted(),
                 fences = m.fencesExecuted();
        bool ok = true;
        {
            Scope s(t, "apps.execute");
            for (const ycsb::Op &op : batch_) {
                if (op.type == ycsb::OpType::Read) {
                    // KvDriver::execute's read, keeping the returned
                    // value length for the check.
                    auto it = model_.find(op.key);
                    ok &= m.run("kv_handle_get", {op.key}).returnValue ==
                          (it == model_.end() ? 0 : it->second);
                } else {
                    kv_->execute(op);
                    model_[op.key] = kValLen;
                    appends_++;
                }
            }
        }
        if (layers) {
            auto &l = *layers;
            l["vm.steps"] += m.steps() - steps;
            l["vm.dispatches"] += m.fastDispatches() - dispatches;
            l["pmem.flushes"] += m.flushesExecuted() - flushes;
            l["pmem.fences"] += m.fencesExecuted() - fences;
        }
        return ok;
    }

    Checks
    finish() override
    {
        checkRecovery();
        return checks_;
    }

    double
    simOpsPerSecond(uint64_t requests) const override
    {
        double ns = simDone_ + kv_->vm().simNanos() - simStart_;
        return ns > 0 ? (double)(requests * kBatch) / (ns * 1e-9) : 0;
    }

    void
    layerMetrics(const LayerSums &s, double n, Metrics &out) const override
    {
        auto get = [&](const char *k) {
            return s.count(k) ? s.at(k) : 0.0;
        };
        double ops = n * kBatch, steps = get("vm.steps");
        out["vm.steps_per_op"] = steps / ops;
        out["vm.dispatches_per_op"] = get("vm.dispatches") / ops;
        out["vm.ns_per_step"] =
            steps > 0 ? get("apps.execute_ns") / steps : 0;
        out["pmem.flushes_per_op"] = get("pmem.flushes") / ops;
        out["pmem.fences_per_op"] = get("pmem.fences") / ops;
        out["ycsb.gen_us"] = get("ycsb.gen_ns") / 1e3 / ops;
    }

  private:
    /** A fresh pool and store, loaded with kRecords records, and the
     *  operation stream of round @p round. */
    void
    newStore(uint64_t round)
    {
        kv_.reset();
        pool_ = std::make_unique<pmem::PmPool>(poolBytes_);
        kv_ = std::make_unique<apps::KvDriver>(
            variants_.hippoOpt.get(), pool_.get(), vm::VmConfig{},
            kValLen);
        kv_->init();
        model_.clear();
        appends_ = 0;
        ycsb::Generator load(ycsb::Workload::Load, kRecords, kRecords,
                             deriveSeed(seed_, 1));
        while (load.hasNext()) {
            ycsb::Op op = load.next();
            kv_->execute(op);
            model_[op.key] = corrupt_ ? kValLen - 1 : kValLen;
            appends_++;
        }
        gen_ = std::make_unique<ycsb::Generator>(
            ycsb::Workload::A, kRecords, kOpsPerRound + kBatch,
            deriveSeed(seed_, 2 + round));
    }

    /** The end-of-round check: after a crash, recovery finds every
     *  appended entry. */
    void
    checkRecovery()
    {
        pool_->crash();
        vm::Vm recovery(variants_.hippoOpt.get(), pool_.get());
        checks_.attempted++;
        checks_.failed +=
            recovery.run("kv_recover").returnValue != appends_;
    }

    uint64_t seed_;
    bool corrupt_;
    uint64_t rounds_;
    uint64_t poolBytes_ = 0;
    apps::RedisVariants variants_;
    std::unique_ptr<pmem::PmPool> pool_;
    std::unique_ptr<apps::KvDriver> kv_;
    std::unique_ptr<ycsb::Generator> gen_;
    /** Host-side model of the store: key -> value length, and the
     *  number of log appends. */
    std::unordered_map<uint64_t, uint64_t> model_;
    uint64_t appends_ = 0;
    Checks checks_;
    std::array<ycsb::Op, kBatch> batch_;
    double simStart_ = 0, simDone_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeKvYcsb(const RunOptions &opt)
{
    return std::make_unique<KvYcsb>(opt);
}

} // namespace perfbench
