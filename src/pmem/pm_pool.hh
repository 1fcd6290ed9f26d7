/**
 * @file
 * Persistent-memory pool with a CPU-cache persistency model.
 *
 * The paper's experiments ran on Intel Optane DC NVDIMMs; this repo
 * substitutes a DRAM-backed simulation that implements the x86
 * persistency semantics the paper defines in §2.1/§4.2:
 *
 *  - stores land in the (volatile) cache image and mark their cache
 *    line dirty;
 *  - CLWB / CLFLUSHOPT snapshot the line into a write-back queue that
 *    only reaches the persistent image at the next fence (weakly
 *    ordered);
 *  - CLFLUSH is ordered with respect to stores and other CLFLUSHes,
 *    so it persists the line immediately (no fence required);
 *  - non-temporal stores enter the write-combining queue directly and
 *    also require a fence;
 *  - SFENCE / MFENCE drain the write-back queue into the persistent
 *    image;
 *  - a crash discards the cache image: only the persistent image
 *    survives;
 *  - optional random eviction persists dirty lines spontaneously,
 *    modeling why an unflushed store *may* still become durable
 *    (the possibility used in the safety proofs of Lemmas 1 and 2).
 *
 * Both images are sparse copy-on-write page tables (see CowImage), so
 * snapshot(), crash(), and forking a pool are O(pages) pointer copies
 * rather than O(capacity) byte copies. This is what makes the crash
 * explorer's snapshot engine affordable (DESIGN.md "Snapshot replay
 * engine").
 */

#ifndef HIPPO_PMEM_PM_POOL_HH
#define HIPPO_PMEM_PM_POOL_HH

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "support/random.hh"
#include "support/zero_array.hh"

namespace hippo::support
{
class MetricsRegistry;
} // namespace hippo::support

namespace hippo::pmem
{

/** Cache-line size used throughout the simulator. */
constexpr uint64_t cacheLineSize = 64;

/** COW page granularity of the pool images (a multiple of the line
 *  size, so a cache line never straddles two pages). */
constexpr uint64_t pmPageSize = 4096;

/** Base virtual address at which PM regions are mapped. */
constexpr uint64_t pmBaseAddr = 0x20000000ULL;

/** Flush instruction flavor (mirrors ir::FlushKind). */
enum class FlushOp : uint8_t { Clwb, ClflushOpt, Clflush };

/**
 * Adversarial crash-fault model (DESIGN.md "Fault model & graceful
 * degradation"). The default whole-line crash model is conservative
 * about *what* persists (only fenced/flushed lines) but optimistic
 * about *how*: a line either persists completely or not at all. Real
 * PM guarantees only 8-byte store atomicity, so a power failure can
 * tear an in-flight line, persisting some of its 8-byte chunks and
 * not others.
 *
 * When a plan with tornChance > 0 (or bitRotChance > 0) is attached
 * to a pool, crash() additionally considers every line that was
 * in-flight at the boundary — dirty lines and write-back-queue
 * entries — and, per line, persists a random subset of its
 * atomicityBytes-sized chunks. Unflushed (dirty) lines may also
 * suffer a single-bit flip per persisted chunk, modeling media
 * bit-rot on data that never went through the flush path.
 *
 * Everything is driven by the plan's own seed (never the pool's
 * eviction RNG), and the candidate lines are visited in a
 * deterministic order (dirty-index order, then write-back-queue
 * first-queued order), so a fixed plan yields a byte-identical
 * post-crash image regardless of scheduling or engine.
 */
struct FaultPlan
{
    uint64_t seed = 1;        ///< RNG seed for all fault decisions
    double tornChance = 0;    ///< per-line probability of tearing
    uint32_t atomicityBytes = 8; ///< persist granularity (divides 64)
    uint32_t maxTornLines = ~0u; ///< cap on torn lines per crash
    double bitRotChance = 0;  ///< per-chunk bit-flip odds (dirty lines)

    /** True when crash() must run the fault pass at all. */
    bool enabled() const { return tornChance > 0 || bitRotChance > 0; }
};

/** Counters exposed for benchmarks and the detector. */
struct PmPoolStats
{
    uint64_t stores = 0;
    uint64_t storedBytes = 0;
    uint64_t flushes = 0;
    uint64_t redundantFlushes = 0; ///< flush of a clean line
    uint64_t fences = 0;
    uint64_t evictions = 0;
    uint64_t ntStores = 0;

    /// @name Cache-line state transitions (the persistency model's
    /// clean -> dirty -> write-back-pending -> persisted walk)
    /// @{
    uint64_t linesDirtied = 0;     ///< clean -> dirty
    uint64_t linesWbQueued = 0;    ///< dirty -> pending (CLWB/OPT)
    uint64_t linesNtQueued = 0;    ///< NT store -> pending
    uint64_t linesClflushed = 0;   ///< dirty -> persisted (CLFLUSH)
    uint64_t linesFenceDrained = 0; ///< pending -> persisted
    uint64_t linesEvicted = 0;     ///< dirty -> persisted (evict)
    /// @}

    /// @name Snapshot / copy-on-write accounting
    /// @{
    uint64_t snapshots = 0;   ///< snapshot() calls on this pool
    uint64_t restores = 0;    ///< restoreFrom() calls on this pool
    uint64_t pagesCopied = 0; ///< COW page clones (shared page written)
    /// @}

    /// @name Fault injection (FaultPlan; zero without a plan)
    /// @{
    uint64_t faultedCrashes = 0; ///< crashes with the fault pass run
    uint64_t tornLines = 0;      ///< lines partially persisted
    uint64_t tornChunks = 0;     ///< atomicity chunks persisted by tears
    uint64_t bitRotFlips = 0;    ///< bits flipped in persisted chunks
    /// @}
};

/** A named region inside the pool. */
struct PmRegion
{
    std::string name;
    uint64_t base = 0; ///< absolute address
    uint64_t size = 0;
};

/**
 * A sparse, copy-on-write byte image. Pages are allocated lazily (an
 * absent page reads as zeros) and shared between images by reference;
 * a write to a shared page clones it first. Copying a CowImage copies
 * the page table only, so snapshots and crash() are cheap, and a page
 * is never mutated while shared — concurrent readers of forked images
 * are race-free (DESIGN.md "Snapshot replay engine").
 */
class CowImage
{
  public:
    using Page = std::array<uint8_t, pmPageSize>;
    using PageRef = std::shared_ptr<Page>;

    CowImage() = default;
    explicit CowImage(uint64_t capacity)
        : pages_((capacity + pmPageSize - 1) / pmPageSize)
    {}

    void read(uint64_t off, uint8_t *out, uint64_t n) const;

    /**
     * Write @p n bytes at @p off, cloning any shared page touched.
     * Returns the number of pages cloned (COW copies; fresh zero
     * pages are not counted).
     */
    uint64_t write(uint64_t off, const uint8_t *data, uint64_t n);

    /**
     * Borrow a read-only pointer to the @p n bytes at @p off. The
     * range must not straddle a page boundary (cache lines never
     * do); absent pages yield a pointer into a shared zero page.
     */
    const uint8_t *peek(uint64_t off, uint64_t n) const;

    /** Bytewise equality against @p o over [off, off+n). Shared
     *  pages compare equal by pointer without touching bytes. */
    bool rangeEquals(const CowImage &o, uint64_t off, uint64_t n) const;

    size_t pageCount() const { return pages_.size(); }

  private:
    Page *writablePage(size_t idx, uint64_t &copies);

    std::vector<PageRef> pages_;
};

/**
 * The flushed-but-unfenced line snapshots, keyed by line: a repeated
 * flush of the same line before the fence replaces the pending
 * snapshot (the write-backs coalesce in the memory subsystem), so the
 * fence drains each distinct line exactly once. Entries carry inline
 * 64-byte buffers in first-queued order — no per-line heap
 * allocation, and the drain order is deterministic.
 */
class WbQueue
{
  public:
    struct Entry
    {
        uint64_t line = 0;
        std::array<uint8_t, cacheLineSize> data{};
    };

    /** Insert or overwrite the snapshot for @p line; true = new. */
    bool put(uint64_t line, const uint8_t *bytes);

    size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }
    void clear();

    /** Pending entries in drain (first-queued) order. */
    const std::vector<Entry> &entries() const { return entries_; }

  private:
    /** Open-addressing index into entries_: a slot is live only when
     *  its generation matches gen_, so clear() is O(1). */
    struct Slot
    {
        uint32_t gen = 0;
        uint32_t idx = 0;
    };

    void grow();

    std::vector<Entry> entries_;
    std::vector<Slot> slots_; ///< power-of-two size
    uint32_t gen_ = 1;
};

class PmPool;

/**
 * A replayable record of every pool-mutating call (map / store /
 * flush / fence). The crash explorer's checkpointed-replay mode
 * records one log during the master run and replays prefixes of it
 * against fresh pools: because random evictions never change the
 * cache image (only the persistent image and dirty flags), the
 * program's instruction stream — and therefore this op stream — is
 * identical for every eviction seed, so replaying ops [0, k) through
 * the public pool API reproduces the pool state a full re-execution
 * with that seed would reach, RNG draws included.
 */
class PmOpLog
{
  public:
    explicit PmOpLog(uint64_t max_bytes = ~0ULL) : maxBytes_(max_bytes)
    {}

    /** Current log position (op count); a replay cursor. */
    size_t position() const { return ops_.size(); }

    /** True when the byte budget stopped recording: positions taken
     *  after the overflow are unusable. */
    bool overflowed() const { return overflowed_; }

    uint64_t approxBytes() const { return bytes_; }

    /// @name Recording (PmPool calls these when a log is attached)
    /// @{
    void recordMap(const std::string &name, uint64_t size);
    void recordStore(uint64_t addr, const uint8_t *data, uint64_t size,
                     bool non_temporal);
    void recordFlush(uint64_t addr, FlushOp op);
    void recordFence();
    /// @}

    /** Apply ops [0, end) to @p pool through its public API. */
    void replayTo(PmPool &pool, size_t end) const;

  private:
    struct Op
    {
        enum class Kind : uint8_t { Map, Store, Flush, Fence };
        Kind kind = Kind::Fence;
        bool nonTemporal = false;
        FlushOp flushOp = FlushOp::Clwb;
        uint32_t size = 0;
        uint64_t addr = 0;    ///< store/flush address; map size
        uint64_t dataOff = 0; ///< store payload offset / map name idx
    };

    bool charge(uint64_t add);

    std::vector<Op> ops_;
    std::vector<uint8_t> data_;       ///< store payload arena
    std::vector<std::string> names_;  ///< region names (Map ops)
    uint64_t bytes_ = 0;
    uint64_t maxBytes_;
    bool overflowed_ = false;
};

/**
 * The simulated persistent pool. Addresses handed out are absolute
 * (>= pmBaseAddr) so they can share the VM's single address space
 * with volatile memory.
 *
 * Not thread-safe: a pool belongs to one worker at a time (each
 * parallel crash replay builds its own pool; see DESIGN.md
 * "Threading model"). Pools *forked* from one Snapshot may run
 * concurrently: the shared COW pages are immutable while shared.
 * The eviction RNG is per-pool, seeded by the constructor, so replay
 * randomness is independent of scheduling.
 */
class PmPool
{
  public:
    /**
     * A cheap point-in-time copy of the complete pool state (both
     * images by page reference, dirty set, write-back queue, region
     * table, RNG, stats). Restore it into the originating pool or
     * fork any number of independent pools from it.
     */
    struct Snapshot
    {
        uint64_t capacity = 0;
        CowImage cache;
        CowImage persist;
        std::vector<uint32_t> dirtyLines;
        WbQueue wbQueue;
        std::map<std::string, PmRegion> regions;
        uint64_t allocCursor = 0;
        double evictChance = 0;
        Rng rng{1};
        PmPoolStats stats;
        uint64_t persistEpoch = 0;
    };

    /**
     * @param capacity Pool capacity in bytes (rounded up to a line).
     * @param evict_chance Per-store probability of evicting a random
     *        dirty line (0 disables eviction injection).
     * @param seed RNG seed for eviction injection.
     */
    explicit PmPool(uint64_t capacity, double evict_chance = 0.0,
                    uint64_t seed = 1);

    /** Fork: a pool whose state is @p s (stats and persist epoch
     *  included). */
    explicit PmPool(const Snapshot &s);

    /**
     * Map (or re-map) the named region. Mapping the same name twice
     * returns the same base address; the size must match.
     */
    uint64_t mapRegion(const std::string &name, uint64_t size);

    /** Look up a mapped region; null when absent. */
    const PmRegion *findRegion(const std::string &name) const;

    /** All mapped regions by name. */
    const std::map<std::string, PmRegion> &regions() const
    {
        return regions_;
    }

    /** True when [addr, addr+size) lies inside the pool. */
    bool contains(uint64_t addr, uint64_t size = 1) const;

    /// @name Memory operations (the VM calls these)
    /// @{
    void store(uint64_t addr, const uint8_t *data, uint64_t size,
               bool non_temporal = false);
    void load(uint64_t addr, uint8_t *out, uint64_t size) const;
    void flush(uint64_t addr, FlushOp op);
    void fence();
    /// @}

    /**
     * Simulate a power failure: the cache image is discarded and
     * reloaded from the persistent image; all line state clears.
     * O(dirty lines + pages) — no byte copying. With a FaultPlan
     * attached, in-flight lines may first tear into the persistent
     * image at sub-line granularity (see FaultPlan).
     */
    void crash();

    /**
     * Attach the adversarial crash-fault model. Not part of
     * Snapshot: forked pools start fault-free and callers (the crash
     * explorer) attach a per-replay plan explicitly, which is what
     * keeps exploration byte-identical at any jobs setting.
     * atomicityBytes must be a nonzero divisor of the line size.
     */
    void setFaultPlan(const FaultPlan &plan);

    const FaultPlan &faultPlan() const { return faultPlan_; }

    /** Capture the complete pool state. O(pages) pointer copies. */
    Snapshot snapshot();

    /**
     * Rewind this pool to @p s (which must come from a pool of the
     * same capacity). Stats rewind too; the restore itself is then
     * counted on top of the restored figures.
     */
    void restoreFrom(const Snapshot &s);

    /** Read bytes as they would appear after a crash right now. */
    void loadPersisted(uint64_t addr, uint8_t *out,
                       uint64_t size) const;

    /** True when every byte of [addr, addr+size) is persisted (cache
     *  image and persistent image agree). */
    bool isPersisted(uint64_t addr, uint64_t size) const;

    /** Number of cache lines currently dirty (unflushed). O(1). */
    uint64_t dirtyLineCount() const { return dirtyLines_.size(); }

    /** Entries waiting in the write-back queue (flushed, unfenced). */
    uint64_t pendingWritebacks() const { return wbQueue_.size(); }

    /**
     * Attach (or detach, with null) an op log; every subsequent
     * mutating call is recorded. The log must outlive the
     * attachment. Recording does not alter pool behavior.
     */
    void setOpLog(PmOpLog *log) { opLog_ = log; }

    const PmPoolStats &stats() const { return stats_; }
    void resetStats() { stats_ = PmPoolStats(); }

    /**
     * A counter that rises whenever what a crash would leave behind
     * may change: every write to the persistent image (CLFLUSH,
     * fence drain, eviction, torn crash chunks) and every newly
     * mapped region. restoreFrom() moves it to a value this pool has
     * never held, so within one pool's history two equal epochs mean
     * an identical persistent image and region table. Values are not
     * comparable across pools.
     */
    uint64_t persistEpoch() const { return epoch_; }

    /**
     * Accumulate this pool's operation and line-state-transition
     * counters into @p reg under "<prefix>.". Deterministic: every
     * value is an order-independent sum.
     */
    void exportMetrics(support::MetricsRegistry &reg,
                       const std::string &prefix = "pmem") const;

    uint64_t capacity() const { return capacity_; }

  private:
    uint64_t lineIndex(uint64_t addr) const
    {
        return (addr - pmBaseAddr) / cacheLineSize;
    }

    bool isDirty(uint64_t line) const
    {
        return dirtyPos_[line] != 0;
    }
    void markDirty(uint64_t line);
    void clearDirty(uint64_t line);
    void clearAllDirty();
    void adoptDirty(const std::vector<uint32_t> &lines);

    void persistLine(uint64_t line, const uint8_t *snapshot);
    void bumpEpoch() { epoch_ = ++epochMax_; }
    void maybeEvict();
    void applyCrashFaults();

    uint64_t capacity_;
    CowImage cacheImage_;   ///< what loads observe
    CowImage persistImage_; ///< what survives a crash

    /** Dirty-line index: the unordered line list plus each line's
     *  position in it + 1 (0 = clean), for O(1) membership, count,
     *  insert, and swap-removal. Clean reads as 0 so the position
     *  array can be a lazily zero-filled mapping: building or forking
     *  a pool touches only the entries of dirty lines. */
    std::vector<uint32_t> dirtyLines_;
    support::ZeroArray<uint32_t> dirtyPos_;

    WbQueue wbQueue_;

    std::map<std::string, PmRegion> regions_;
    uint64_t allocCursor_ = 0;

    double evictChance_;
    Rng rng_;
    FaultPlan faultPlan_;
    PmPoolStats stats_;
    PmOpLog *opLog_ = nullptr;

    uint64_t epoch_ = 0;    ///< see persistEpoch()
    uint64_t epochMax_ = 0; ///< largest epoch this pool has held
};

} // namespace hippo::pmem

#endif // HIPPO_PMEM_PM_POOL_HH
