#include "pmem/pm_pool.hh"

#include <algorithm>
#include <cstring>

#include "support/errors.hh"
#include "support/logging.hh"
#include "support/metrics.hh"

namespace hippo::pmem
{

namespace
{

/** Backing bytes for absent (all-zero) pages, borrowed by peek(). */
const CowImage::Page zeroPage{};

/** splitmix64 finalizer — the wb-queue slot hash. */
uint64_t
hashLine(uint64_t line)
{
    uint64_t z = line + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

// -------------------------------------------------------- CowImage

CowImage::Page *
CowImage::writablePage(size_t idx, uint64_t &copies)
{
    PageRef &ref = pages_[idx];
    if (!ref) {
        ref = std::make_shared<Page>(); // value-init: zeros
    } else if (ref.use_count() != 1) {
        // Shared with a snapshot or fork: clone before writing. A
        // count of 1 can only mean this image is the sole owner, so
        // in-place writes are safe even with concurrent forks.
        ref = std::make_shared<Page>(*ref);
        copies++;
    }
    return ref.get();
}

void
CowImage::read(uint64_t off, uint8_t *out, uint64_t n) const
{
    while (n) {
        size_t idx = off / pmPageSize;
        uint64_t in_page = off % pmPageSize;
        uint64_t chunk = std::min(n, pmPageSize - in_page);
        const PageRef &ref = pages_[idx];
        if (ref)
            std::memcpy(out, ref->data() + in_page, chunk);
        else
            std::memset(out, 0, chunk);
        out += chunk;
        off += chunk;
        n -= chunk;
    }
}

uint64_t
CowImage::write(uint64_t off, const uint8_t *data, uint64_t n)
{
    uint64_t copies = 0;
    while (n) {
        size_t idx = off / pmPageSize;
        uint64_t in_page = off % pmPageSize;
        uint64_t chunk = std::min(n, pmPageSize - in_page);
        Page *page = writablePage(idx, copies);
        std::memcpy(page->data() + in_page, data, chunk);
        data += chunk;
        off += chunk;
        n -= chunk;
    }
    return copies;
}

const uint8_t *
CowImage::peek(uint64_t off, uint64_t n) const
{
    uint64_t in_page = off % pmPageSize;
    hippo_assert(in_page + n <= pmPageSize,
                 "peek straddles a page boundary");
    const PageRef &ref = pages_[off / pmPageSize];
    return ref ? ref->data() + in_page : zeroPage.data() + in_page;
}

bool
CowImage::rangeEquals(const CowImage &o, uint64_t off, uint64_t n) const
{
    while (n) {
        size_t idx = off / pmPageSize;
        uint64_t in_page = off % pmPageSize;
        uint64_t chunk = std::min(n, pmPageSize - in_page);
        const PageRef &a = pages_[idx];
        const PageRef &b = o.pages_[idx];
        if (a != b) {
            const uint8_t *pa =
                a ? a->data() + in_page : zeroPage.data() + in_page;
            const uint8_t *pb =
                b ? b->data() + in_page : zeroPage.data() + in_page;
            if (std::memcmp(pa, pb, chunk) != 0)
                return false;
        }
        off += chunk;
        n -= chunk;
    }
    return true;
}

// --------------------------------------------------------- WbQueue

void
WbQueue::grow()
{
    size_t target = slots_.empty() ? 64 : slots_.size() * 2;
    slots_.assign(target, Slot());
    gen_ = 1;
    size_t mask = slots_.size() - 1;
    for (uint32_t e = 0; e < entries_.size(); e++) {
        size_t i = hashLine(entries_[e].line) & mask;
        while (slots_[i].gen == gen_)
            i = (i + 1) & mask;
        slots_[i] = {gen_, e};
    }
}

bool
WbQueue::put(uint64_t line, const uint8_t *bytes)
{
    // Grow at 3/4 load so probe chains stay short.
    if ((entries_.size() + 1) * 4 > slots_.size() * 3)
        grow();
    size_t mask = slots_.size() - 1;
    size_t i = hashLine(line) & mask;
    while (slots_[i].gen == gen_) {
        Entry &e = entries_[slots_[i].idx];
        if (e.line == line) {
            std::memcpy(e.data.data(), bytes, cacheLineSize);
            return false;
        }
        i = (i + 1) & mask;
    }
    slots_[i] = {gen_, (uint32_t)entries_.size()};
    Entry e;
    e.line = line;
    std::memcpy(e.data.data(), bytes, cacheLineSize);
    entries_.push_back(e);
    return true;
}

void
WbQueue::clear()
{
    entries_.clear();
    // Stale slots are invalidated by bumping the generation; only a
    // (4-billion-clear) wraparound pays for a table wipe.
    if (++gen_ == 0) {
        slots_.assign(slots_.size(), Slot());
        gen_ = 1;
    }
}

// --------------------------------------------------------- PmOpLog

bool
PmOpLog::charge(uint64_t add)
{
    if (overflowed_)
        return false;
    bytes_ += sizeof(Op) + add;
    if (bytes_ > maxBytes_) {
        overflowed_ = true;
        return false;
    }
    return true;
}

void
PmOpLog::recordMap(const std::string &name, uint64_t size)
{
    if (!charge(name.size()))
        return;
    Op op;
    op.kind = Op::Kind::Map;
    op.addr = size;
    op.dataOff = names_.size();
    names_.push_back(name);
    ops_.push_back(op);
}

void
PmOpLog::recordStore(uint64_t addr, const uint8_t *data, uint64_t size,
                     bool non_temporal)
{
    if (!charge(size))
        return;
    Op op;
    op.kind = Op::Kind::Store;
    op.nonTemporal = non_temporal;
    op.size = (uint32_t)size;
    op.addr = addr;
    op.dataOff = data_.size();
    data_.insert(data_.end(), data, data + size);
    ops_.push_back(op);
}

void
PmOpLog::recordFlush(uint64_t addr, FlushOp fop)
{
    if (!charge(0))
        return;
    Op op;
    op.kind = Op::Kind::Flush;
    op.flushOp = fop;
    op.addr = addr;
    ops_.push_back(op);
}

void
PmOpLog::recordFence()
{
    if (!charge(0))
        return;
    Op op;
    op.kind = Op::Kind::Fence;
    ops_.push_back(op);
}

void
PmOpLog::replayTo(PmPool &pool, size_t end) const
{
    hippo_assert(end <= ops_.size(), "replay cursor past log end");
    for (size_t i = 0; i < end; i++) {
        const Op &op = ops_[i];
        switch (op.kind) {
          case Op::Kind::Map:
            pool.mapRegion(names_[op.dataOff], op.addr);
            break;
          case Op::Kind::Store:
            pool.store(op.addr, data_.data() + op.dataOff, op.size,
                       op.nonTemporal);
            break;
          case Op::Kind::Flush:
            pool.flush(op.addr, op.flushOp);
            break;
          case Op::Kind::Fence:
            pool.fence();
            break;
        }
    }
}

// ---------------------------------------------------------- PmPool

PmPool::PmPool(uint64_t capacity, double evict_chance, uint64_t seed)
    : capacity_((capacity + cacheLineSize - 1) & ~(cacheLineSize - 1)),
      cacheImage_(capacity_), persistImage_(capacity_),
      dirtyPos_(capacity_ / cacheLineSize),
      evictChance_(evict_chance), rng_(seed)
{
    hippo_assert(capacity_ > 0, "empty pool");
}

PmPool::PmPool(const Snapshot &s)
    : capacity_(s.capacity), cacheImage_(s.cache),
      persistImage_(s.persist), dirtyLines_(s.dirtyLines),
      dirtyPos_(s.capacity / cacheLineSize),
      wbQueue_(s.wbQueue), regions_(s.regions),
      allocCursor_(s.allocCursor), evictChance_(s.evictChance),
      rng_(s.rng), stats_(s.stats), epoch_(s.persistEpoch),
      epochMax_(s.persistEpoch)
{
    hippo_assert(capacity_ > 0, "empty snapshot");
    for (uint32_t p = 0; p < dirtyLines_.size(); p++)
        dirtyPos_[dirtyLines_[p]] = p + 1;
}

void
PmPool::markDirty(uint64_t line)
{
    dirtyLines_.push_back((uint32_t)line);
    dirtyPos_[line] = (uint32_t)dirtyLines_.size();
}

void
PmPool::clearDirty(uint64_t line)
{
    uint32_t pos = dirtyPos_[line];
    uint32_t last = dirtyLines_.back();
    dirtyLines_[pos - 1] = last;
    dirtyPos_[last] = pos;
    dirtyLines_.pop_back();
    dirtyPos_[line] = 0;
}

void
PmPool::clearAllDirty()
{
    for (uint32_t line : dirtyLines_)
        dirtyPos_[line] = 0;
    dirtyLines_.clear();
}

void
PmPool::adoptDirty(const std::vector<uint32_t> &lines)
{
    clearAllDirty();
    dirtyLines_ = lines;
    for (uint32_t p = 0; p < dirtyLines_.size(); p++)
        dirtyPos_[dirtyLines_[p]] = p + 1;
}

uint64_t
PmPool::mapRegion(const std::string &name, uint64_t size)
{
    hippo_assert(size > 0, "empty region");
    if (opLog_)
        opLog_->recordMap(name, size);
    auto it = regions_.find(name);
    if (it != regions_.end()) {
        hippo_assert(it->second.size == size,
                     "region remapped with different size");
        return it->second.base;
    }
    uint64_t aligned =
        (size + cacheLineSize - 1) & ~(cacheLineSize - 1);
    if (allocCursor_ + aligned > capacity_) {
        support::throwResourceError(
            "PM pool exhausted mapping region '%s' "
            "(%llu bytes requested, %llu of %llu free)",
            name.c_str(), (unsigned long long)size,
            (unsigned long long)(capacity_ - allocCursor_),
            (unsigned long long)capacity_);
    }
    PmRegion r{name, pmBaseAddr + allocCursor_, size};
    allocCursor_ += aligned;
    regions_[name] = r;
    bumpEpoch();
    return r.base;
}

const PmRegion *
PmPool::findRegion(const std::string &name) const
{
    auto it = regions_.find(name);
    return it == regions_.end() ? nullptr : &it->second;
}

bool
PmPool::contains(uint64_t addr, uint64_t size) const
{
    return addr >= pmBaseAddr && addr + size <= pmBaseAddr + capacity_;
}

void
PmPool::store(uint64_t addr, const uint8_t *data, uint64_t size,
              bool non_temporal)
{
    hippo_assert(contains(addr, size), "PM store out of bounds");
    if (opLog_)
        opLog_->recordStore(addr, data, size, non_temporal);
    uint64_t off = addr - pmBaseAddr;
    stats_.pagesCopied += cacheImage_.write(off, data, size);
    stats_.stores++;
    stats_.storedBytes += size;

    if (non_temporal) {
        // Non-temporal stores enter the write-combining buffer
        // directly; they drain to PM at the next fence and leave no
        // dirty data behind in the cache.
        stats_.ntStores++;
        uint64_t first = lineIndex(addr);
        uint64_t last = lineIndex(addr + size - 1);
        for (uint64_t line = first; line <= last; line++) {
            wbQueue_.put(line, cacheImage_.peek(line * cacheLineSize,
                                                cacheLineSize));
            stats_.linesNtQueued++;
        }
    } else {
        uint64_t first = lineIndex(addr);
        uint64_t last = lineIndex(addr + size - 1);
        for (uint64_t line = first; line <= last; line++) {
            if (!isDirty(line)) {
                stats_.linesDirtied++;
                markDirty(line);
            }
        }
        maybeEvict();
    }
}

void
PmPool::load(uint64_t addr, uint8_t *out, uint64_t size) const
{
    hippo_assert(contains(addr, size), "PM load out of bounds");
    cacheImage_.read(addr - pmBaseAddr, out, size);
}

void
PmPool::flush(uint64_t addr, FlushOp op)
{
    hippo_assert(contains(addr), "PM flush out of bounds");
    if (opLog_)
        opLog_->recordFlush(addr, op);
    stats_.flushes++;
    uint64_t line = lineIndex(addr);
    if (!isDirty(line)) {
        stats_.redundantFlushes++;
        return;
    }
    clearDirty(line);
    const uint8_t *snapshot =
        cacheImage_.peek(line * cacheLineSize, cacheLineSize);
    if (op == FlushOp::Clflush) {
        // CLFLUSH executions are ordered with respect to stores and
        // other CLFLUSHes (Intel SDM), so the line reaches PM without
        // waiting for a fence.
        persistLine(line, snapshot);
        stats_.linesClflushed++;
    } else {
        wbQueue_.put(line, snapshot);
        stats_.linesWbQueued++;
    }
}

void
PmPool::fence()
{
    if (opLog_)
        opLog_->recordFence();
    stats_.fences++;
    stats_.linesFenceDrained += wbQueue_.size();
    for (const WbQueue::Entry &e : wbQueue_.entries())
        persistLine(e.line, e.data.data());
    wbQueue_.clear();
}

void
PmPool::persistLine(uint64_t line, const uint8_t *snapshot)
{
    stats_.pagesCopied += persistImage_.write(line * cacheLineSize,
                                              snapshot, cacheLineSize);
    bumpEpoch();
}

void
PmPool::maybeEvict()
{
    if (evictChance_ <= 0 || !rng_.chance(evictChance_))
        return;
    // Pick a random dirty line and write it back, as a real cache
    // might under memory pressure. The legacy dense scan walked
    // cyclically from `start` to the first dirty line; the index scan
    // below selects that same line (minimal cyclic distance), so the
    // RNG draw sequence *and* the victim match seeded legacy runs.
    uint64_t nlines = capacity_ / cacheLineSize;
    uint64_t start = rng_.nextBelow(nlines);
    if (dirtyLines_.empty())
        return;
    uint64_t victim = 0;
    uint64_t best = ~0ULL;
    for (uint32_t line : dirtyLines_) {
        uint64_t dist =
            line >= start ? line - start : line + nlines - start;
        if (dist < best) {
            best = dist;
            victim = line;
        }
    }
    clearDirty(victim);
    persistLine(victim,
                cacheImage_.peek(victim * cacheLineSize, cacheLineSize));
    stats_.evictions++;
    stats_.linesEvicted++;
}

void
PmPool::setFaultPlan(const FaultPlan &plan)
{
    hippo_assert(plan.atomicityBytes > 0 &&
                     cacheLineSize % plan.atomicityBytes == 0,
                 "fault-plan atomicity must divide the line size");
    faultPlan_ = plan;
}

void
PmPool::applyCrashFaults()
{
    // A private RNG seeded from the plan alone: fault decisions never
    // perturb the eviction RNG, so attaching a plan cannot change
    // which states a seeded eviction run would otherwise explore.
    Rng rng(faultPlan_.seed);
    stats_.faultedCrashes++;
    uint64_t chunk = faultPlan_.atomicityBytes;
    uint64_t nchunks = cacheLineSize / chunk;
    uint64_t torn = 0;

    // Persist a random subset of a line's chunks. Any subset is a
    // legal crash state under 8-byte store atomicity; the empty
    // subset degenerates to the whole-line model's "lost line".
    auto tearLine = [&](uint64_t line, const uint8_t *content,
                        bool unflushed) {
        if (torn >= faultPlan_.maxTornLines)
            return;
        if (!rng.chance(faultPlan_.tornChance))
            return;
        bool any = false;
        for (uint64_t c = 0; c < nchunks; c++) {
            if (!rng.chance(0.5))
                continue;
            uint8_t buf[cacheLineSize];
            std::memcpy(buf, content + c * chunk, chunk);
            if (unflushed && faultPlan_.bitRotChance > 0 &&
                rng.chance(faultPlan_.bitRotChance)) {
                uint64_t bit = rng.nextBelow(chunk * 8);
                buf[bit / 8] ^= (uint8_t)(1u << (bit % 8));
                stats_.bitRotFlips++;
            }
            stats_.pagesCopied += persistImage_.write(
                line * cacheLineSize + c * chunk, buf, chunk);
            bumpEpoch();
            stats_.tornChunks++;
            any = true;
        }
        if (any) {
            stats_.tornLines++;
            torn++;
        }
    };

    // Deterministic candidate order: dirty lines in index order, then
    // write-back-queue entries in first-queued order. Both orders are
    // functions of the op stream alone, so every replay engine visits
    // them identically.
    for (uint32_t line : dirtyLines_)
        tearLine(line, cacheImage_.peek(line * cacheLineSize,
                                        cacheLineSize),
                 true);
    for (const WbQueue::Entry &e : wbQueue_.entries())
        tearLine(e.line, e.data.data(), false);
}

void
PmPool::crash()
{
    if (faultPlan_.enabled())
        applyCrashFaults();
    cacheImage_ = persistImage_; // page-table copy; pages now shared
    clearAllDirty();
    wbQueue_.clear();
}

PmPool::Snapshot
PmPool::snapshot()
{
    stats_.snapshots++;
    Snapshot s;
    s.capacity = capacity_;
    s.cache = cacheImage_;
    s.persist = persistImage_;
    s.dirtyLines = dirtyLines_;
    s.wbQueue = wbQueue_;
    s.regions = regions_;
    s.allocCursor = allocCursor_;
    s.evictChance = evictChance_;
    s.rng = rng_;
    s.stats = stats_;
    s.persistEpoch = epoch_;
    return s;
}

void
PmPool::restoreFrom(const Snapshot &s)
{
    hippo_assert(s.capacity == capacity_,
                 "snapshot from a different-capacity pool");
    cacheImage_ = s.cache;
    persistImage_ = s.persist;
    adoptDirty(s.dirtyLines);
    wbQueue_ = s.wbQueue;
    regions_ = s.regions;
    allocCursor_ = s.allocCursor;
    evictChance_ = s.evictChance;
    rng_ = s.rng;
    stats_ = s.stats;
    stats_.restores++;
    // The restored image may differ from every image this pool held
    // since the snapshot, so take an epoch none of them had.
    bumpEpoch();
}

void
PmPool::loadPersisted(uint64_t addr, uint8_t *out, uint64_t size) const
{
    hippo_assert(contains(addr, size),
                 "persisted load out of bounds");
    persistImage_.read(addr - pmBaseAddr, out, size);
}

bool
PmPool::isPersisted(uint64_t addr, uint64_t size) const
{
    hippo_assert(contains(addr, size), "isPersisted out of bounds");
    uint64_t off = addr - pmBaseAddr;
    return cacheImage_.rangeEquals(persistImage_, off, size);
}

void
PmPool::exportMetrics(support::MetricsRegistry &reg,
                      const std::string &prefix) const
{
    reg.counter(prefix + ".stores").inc(stats_.stores);
    reg.counter(prefix + ".stored_bytes").inc(stats_.storedBytes);
    reg.counter(prefix + ".flushes").inc(stats_.flushes);
    reg.counter(prefix + ".redundant_flushes")
        .inc(stats_.redundantFlushes);
    reg.counter(prefix + ".fences").inc(stats_.fences);
    reg.counter(prefix + ".evictions").inc(stats_.evictions);
    reg.counter(prefix + ".nt_stores").inc(stats_.ntStores);
    reg.counter(prefix + ".lines.dirtied").inc(stats_.linesDirtied);
    reg.counter(prefix + ".lines.wb_queued").inc(stats_.linesWbQueued);
    reg.counter(prefix + ".lines.nt_queued").inc(stats_.linesNtQueued);
    reg.counter(prefix + ".lines.clflushed").inc(stats_.linesClflushed);
    reg.counter(prefix + ".lines.fence_drained")
        .inc(stats_.linesFenceDrained);
    reg.counter(prefix + ".lines.evicted").inc(stats_.linesEvicted);
    reg.counter(prefix + ".snapshot.count").inc(stats_.snapshots);
    reg.counter(prefix + ".snapshot.restores").inc(stats_.restores);
    reg.counter(prefix + ".snapshot.pages_copied")
        .inc(stats_.pagesCopied);
    reg.counter(prefix + ".fault.crashes").inc(stats_.faultedCrashes);
    reg.counter(prefix + ".fault.torn_lines").inc(stats_.tornLines);
    reg.counter(prefix + ".fault.torn_chunks").inc(stats_.tornChunks);
    reg.counter(prefix + ".fault.bitrot_flips").inc(stats_.bitRotFlips);
}

} // namespace hippo::pmem
