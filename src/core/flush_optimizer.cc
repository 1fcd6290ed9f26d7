#include "core/flush_optimizer.hh"

#include <algorithm>
#include <set>

#include "analysis/durability_checker.hh"
#include "analysis/points_to.hh"
#include "core/fixer.hh"
#include "ir/basic_block.hh"
#include "ir/builder.hh"
#include "ir/dominators.hh"
#include "ir/function.hh"
#include "ir/instruction.hh"
#include "ir/module.hh"
#include "ir/parser.hh"
#include "ir/printer.hh"
#include "pmcheck/crash_explorer.hh"
#include "pmcheck/detector.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/strings.hh"
#include "vm/vm.hh"

namespace hippo::core
{

namespace
{

using namespace hippo::ir;

constexpr int64_t kLine = 64;

/**
 * A pointer folded through its constant-offset gep suffix to
 * (base, byte offset). Folding stops at the first gep with a
 * non-constant offset — that gep itself becomes the base — so the
 * offset is always exact *relative to the base*, and two pointers
 * built from the same dynamic base (e.g. a freshly allocated entry)
 * still compare by their field offsets.
 */
struct FoldedPtr
{
    const Value *base = nullptr;
    int64_t offset = 0;
};

const Instruction *
asInstr(const Value *v)
{
    return v && v->kind() == ValueKind::Instruction
               ? static_cast<const Instruction *>(v)
               : nullptr;
}

FoldedPtr
foldPtr(const Value *v)
{
    FoldedPtr fp;
    while (const Instruction *in = asInstr(v)) {
        if (in->op() != Opcode::Gep)
            break;
        const Value *off = in->operand(1);
        if (off->kind() != ValueKind::Constant)
            break; // dynamic gep: it is the base
        fp.offset +=
            (int64_t)static_cast<const Constant *>(off)->value();
        v = in->operand(0);
    }
    fp.base = v;
    return fp;
}

/** Is @p v the result of a PmMap? Region bases are 64-byte aligned
 *  (PmPool::mapRegion), so constant offsets bucket into cache lines
 *  exactly. */
bool
isPmMapBase(const Value *v)
{
    const Instruction *in = asInstr(v);
    return in && in->op() == Opcode::PmMap;
}

/** The byte interval of the cache line the flush target lies in,
 *  relative to the folded base. Unknown base alignment widens the
 *  interval to every byte the line could cover. */
void
lineInterval(const FoldedPtr &fp, int64_t *lo, int64_t *hi)
{
    if (isPmMapBase(fp.base) && fp.offset >= 0) {
        *lo = fp.offset / kLine * kLine;
        *hi = *lo + kLine;
    } else {
        *lo = fp.offset - (kLine - 1);
        *hi = fp.offset + kLine;
    }
}

/** Must @p a and @p b flush the same cache line? */
bool
mustSameLine(const FoldedPtr &a, const FoldedPtr &b)
{
    if (a.base != b.base)
        return false;
    if (a.offset == b.offset)
        return true;
    if (isPmMapBase(a.base) && a.offset >= 0 && b.offset >= 0)
        return a.offset / kLine == b.offset / kLine;
    return false;
}

/** The written range of a store/memcpy/memset, when extractable. */
struct WriteDesc
{
    const Value *ptr = nullptr;
    int64_t len = 0;
    bool lenKnown = false;
};

WriteDesc
writeDesc(const Instruction &in)
{
    WriteDesc w;
    switch (in.op()) {
      case Opcode::Store:
        w.ptr = in.operand(1);
        w.len = (int64_t)in.accessSize();
        w.lenKnown = true;
        break;
      case Opcode::Memcpy:
      case Opcode::Memset: {
        w.ptr = in.operand(0);
        const Value *len = in.operand(2);
        if (len->kind() == ValueKind::Constant) {
            w.len = (int64_t)static_cast<const Constant *>(len)
                        ->value();
            w.lenKnown = true;
        }
        break;
      }
      default:
        hippo_fatal("writeDesc on non-write opcode");
    }
    return w;
}

/** May executing write @p in dirty the cache line flushed through
 *  (@p fptr, @p ff)? Falls back to the Andersen may-alias answer
 *  when the folded forms do not resolve. */
bool
mayTouchLine(const Instruction &in, const Value *fptr,
             const FoldedPtr &ff, const analysis::PointsTo &pts)
{
    WriteDesc w = writeDesc(in);
    FoldedPtr wp = foldPtr(w.ptr);
    if (wp.base == ff.base) {
        if (w.lenKnown) {
            int64_t lo, hi;
            lineInterval(ff, &lo, &hi);
            return wp.offset < hi && wp.offset + w.len > lo;
        }
        return true;
    }
    return pts.mayAlias(w.ptr, fptr);
}

enum class Ev : uint8_t { Cover, Kill, Thru };

/**
 * Thread and atomic ops are scheduler-visible interleaving points:
 * another VM thread may store, flush, fence, or observe persistence
 * while this thread is preempted there, so every event model treats
 * them as opaque barriers — no flush or fence may be elided, merged,
 * or moved across one.
 */
bool
isSchedBarrier(Opcode op)
{
    switch (op) {
      case Opcode::ThreadSpawn:
      case Opcode::ThreadJoin:
      case Opcode::AtomicLoad:
      case Opcode::AtomicStore:
      case Opcode::AtomicRmw:
        return true;
      default:
        return false;
    }
}

/**
 * Pass A (dominated-flush elision) event model, walking *backward*
 * from a flush F of line L: is L provably clean when F executes?
 *  - a must-same-line flush cleans L (any kind): Cover;
 *  - anything that may dirty L kills: a may-touching store/memcpy/
 *    memset, any call (callees may store), a PmMap (maps fresh
 *    lines);
 *  - non-temporal stores bypass the cache and never dirty a line;
 *    fences, durpoints, loads, and other flushes are transparent.
 * A clean-line flush is a complete no-op in PmPool, so removal is
 * exact under every crash point, engine, eviction plan, and fault
 * plan.
 */
Ev
classifyElide(const Instruction &in, const Value *fptr,
              const FoldedPtr &ff, const analysis::PointsTo &pts)
{
    if (isSchedBarrier(in.op()))
        return Ev::Kill;
    switch (in.op()) {
      case Opcode::Flush:
        return mustSameLine(foldPtr(in.operand(0)), ff) ? Ev::Cover
                                                        : Ev::Thru;
      case Opcode::Store:
        if (in.nonTemporal())
            return Ev::Thru;
        [[fallthrough]];
      case Opcode::Memcpy:
      case Opcode::Memset:
        return mayTouchLine(in, fptr, ff, pts) ? Ev::Kill : Ev::Thru;
      case Opcode::Call:
      case Opcode::PmMap:
        return Ev::Kill;
      default:
        return Ev::Thru;
    }
}

/**
 * Pass B (same-line dedup) event model, walking *forward* from a
 * CLWB/CLFLUSHOPT flush F of line L: is F re-issued before its
 * effect can be observed?
 *  - a must-same-line CLWB/CLFLUSHOPT flush re-covers L: Cover;
 *  - anything that observes persistence or the write-back queue
 *    kills: fences and durpoints (durability observation points),
 *    calls and returns (observation may happen in the callee /
 *    caller), any other flush or non-temporal store (their queue
 *    entries would order differently without F), PmMap;
 *  - plain stores/memcpys/memsets are transparent: dirt they put on
 *    L is re-covered by the covering flush, dirt on other lines is
 *    identical with or without F.
 * Exact for durpoint-based crash exploration with eviction injection
 * off (see DESIGN.md for why eviction timing is the one observer of
 * the dirty-set difference inside the window).
 */
Ev
classifyDedup(const Instruction &in, const FoldedPtr &ff)
{
    if (isSchedBarrier(in.op()))
        return Ev::Kill;
    switch (in.op()) {
      case Opcode::Flush:
        return in.flushKind() != FlushKind::Clflush &&
                       mustSameLine(foldPtr(in.operand(0)), ff)
                   ? Ev::Cover
                   : Ev::Kill;
      case Opcode::Store:
        return in.nonTemporal() ? Ev::Kill : Ev::Thru;
      case Opcode::Fence:
      case Opcode::DurPoint:
      case Opcode::Call:
      case Opcode::PmMap:
      case Opcode::Ret:
        return Ev::Kill;
      default:
        return Ev::Thru;
    }
}

/**
 * Fence-forward event model, walking *backward* from a fence F: is
 * the write-back queue provably empty at F? A fence over an empty
 * queue is a complete no-op, so removal is exact.
 *  - any fence drains the queue: Cover;
 *  - anything that enqueues kills: flushes, non-temporal stores,
 *    calls (callees may flush), PmMap;
 *  - plain stores only dirty lines (they never enqueue), so they,
 *    durpoints, and loads are transparent.
 */
Ev
classifyFenceForward(const Instruction &in)
{
    if (isSchedBarrier(in.op()))
        return Ev::Kill;
    switch (in.op()) {
      case Opcode::Fence:
        return Ev::Cover;
      case Opcode::Flush:
      case Opcode::Call:
      case Opcode::PmMap:
        return Ev::Kill;
      case Opcode::Store:
        return in.nonTemporal() ? Ev::Kill : Ev::Thru;
      case Opcode::Memcpy:
      case Opcode::Memset:
        return Ev::Thru;
      default:
        return Ev::Thru;
    }
}

/**
 * Fence-backward event model, walking *forward* from a fence F: is
 * the queue re-drained before persistence can be observed?
 *  - any fence re-drains: Cover (the queue is FIFO and same-line
 *    puts keep their position, so delaying the drain preserves the
 *    media write order);
 *  - durpoints, calls, and returns observe persistence: Kill;
 *    PmMap conservatively kills;
 *  - flushes, stores (temporal or not), memcpys, and loads are
 *    transparent — they change what drains, not whether anything
 *    observes the delay.
 */
Ev
classifyFenceBackward(const Instruction &in)
{
    if (isSchedBarrier(in.op()))
        return Ev::Kill;
    switch (in.op()) {
      case Opcode::Fence:
        return Ev::Cover;
      case Opcode::DurPoint:
      case Opcode::Call:
      case Opcode::PmMap:
      case Opcode::Ret:
        return Ev::Kill;
      default:
        return Ev::Thru;
    }
}

/** Pass C window model: the hoist window must be free of every
 *  pool-visible operation. */
bool
isPoolVisible(const Instruction &in)
{
    if (isSchedBarrier(in.op()))
        return true;
    switch (in.op()) {
      case Opcode::Store:
      case Opcode::Memcpy:
      case Opcode::Memset:
      case Opcode::Flush:
      case Opcode::Fence:
      case Opcode::DurPoint:
      case Opcode::Call:
      case Opcode::PmMap:
      case Opcode::Ret:
        return true;
      default:
        return false;
    }
}

/** Result of scanning a block (or part of one) for events. */
struct ScanHit
{
    Ev ev = Ev::Thru;
    const Instruction *at = nullptr;
};

template <typename Classify>
ScanHit
scanBackward(BasicBlock *bb, BasicBlock::iterator from, Classify cl)
{
    for (auto it = from; it != bb->begin();) {
        --it;
        Ev e = cl(**it);
        if (e != Ev::Thru)
            return {e, it->get()};
    }
    return {};
}

template <typename Classify>
ScanHit
scanForward(BasicBlock *bb, BasicBlock::iterator from, Classify cl)
{
    for (auto it = from; it != bb->end(); ++it) {
        Ev e = cl(**it);
        if (e != Ev::Thru)
            return {e, it->get()};
    }
    return {};
}

/**
 * Is the event model's Cover hit on *every* backward path from
 * @p instr before any Kill, without reaching the function entry?
 * Blocks are memoized — each is scanned at most once — so cycles
 * terminate; a cyclic backward path only re-traverses blocks whose
 * verdict is already known.
 */
template <typename Classify>
bool
coveredBackward(const Cfg &cfg, Instruction *instr, Classify cl,
                const Instruction **cover)
{
    BasicBlock *home = instr->parent();
    ScanHit hit =
        scanBackward(home, home->iteratorTo(instr), cl);
    if (hit.ev == Ev::Kill)
        return false;
    if (hit.ev == Ev::Cover) {
        *cover = hit.at;
        return true;
    }
    BasicBlock *entry = home->parent()->entry();
    if (home == entry)
        return false;
    std::set<const BasicBlock *> visited;
    std::vector<BasicBlock *> work(cfg.preds(home).begin(),
                                   cfg.preds(home).end());
    while (!work.empty()) {
        BasicBlock *bb = work.back();
        work.pop_back();
        if (!visited.insert(bb).second)
            continue;
        ScanHit h = scanBackward(bb, bb->end(), cl);
        if (h.ev == Ev::Kill)
            return false;
        if (h.ev == Ev::Cover) {
            if (!*cover)
                *cover = h.at;
            continue;
        }
        if (bb == entry)
            return false;
        for (BasicBlock *p : cfg.preds(bb))
            work.push_back(p);
    }
    return true;
}

/** The forward dual: Cover on every forward path from @p instr
 *  before any Kill. The classifier must kill on Ret, so falling off
 *  the function is never silently treated as covered. */
template <typename Classify>
bool
coveredForward(const Cfg &cfg, Instruction *instr, Classify cl,
               const Instruction **cover)
{
    BasicBlock *home = instr->parent();
    auto start = std::next(home->iteratorTo(instr));
    ScanHit hit = scanForward(home, start, cl);
    if (hit.ev == Ev::Kill)
        return false;
    if (hit.ev == Ev::Cover) {
        *cover = hit.at;
        return true;
    }
    if (cfg.succs(home).empty())
        return false; // fell off a malformed block
    std::set<const BasicBlock *> visited;
    std::vector<BasicBlock *> work(cfg.succs(home).begin(),
                                   cfg.succs(home).end());
    while (!work.empty()) {
        BasicBlock *bb = work.back();
        work.pop_back();
        if (!visited.insert(bb).second)
            continue;
        ScanHit h = scanForward(bb, bb->begin(), cl);
        if (h.ev == Ev::Kill)
            return false;
        if (h.ev == Ev::Cover) {
            if (!*cover)
                *cover = h.at;
            continue;
        }
        if (cfg.succs(bb).empty())
            return false;
        for (BasicBlock *s : cfg.succs(bb))
            work.push_back(s);
    }
    return true;
}

/** All flush (or fence) instructions of @p f in module order. */
std::vector<Instruction *>
collectOps(Function *f, Opcode op)
{
    std::vector<Instruction *> out;
    for (auto &bb : f->blocks())
        for (auto &in : *bb)
            if (in->op() == op)
                out.push_back(in.get());
    return out;
}

void
record(FlushOptStats &stats, FlushOptRecord::Kind kind, Function *f,
       uint32_t id, uint32_t cover)
{
    FlushOptRecord r;
    r.kind = kind;
    r.function = f->name();
    r.instrId = id;
    r.coverId = cover;
    stats.records.push_back(std::move(r));
}

/** Pass B: sequential forward same-line dedup. Each removal is
 *  decided against the already-mutated function, so chains
 *  (f1 covered by f2 covered by f3) resolve soundly — a flush whose
 *  only cover was itself removed is re-judged without it. */
void
passDedup(Function *f, const Cfg &cfg, const analysis::PointsTo &pts,
          FlushOptStats &stats)
{
    (void)pts;
    for (Instruction *fl : collectOps(f, Opcode::Flush)) {
        if (fl->flushKind() == FlushKind::Clflush)
            continue; // CLFLUSH persists immediately; keep it
        if (!cfg.reachableFromEntry(fl->parent()))
            continue;
        FoldedPtr ff = foldPtr(fl->operand(0));
        const Instruction *cover = nullptr;
        auto cl = [&](const Instruction &in) {
            return classifyDedup(in, ff);
        };
        if (!coveredForward(cfg, fl, cl, &cover))
            continue;
        record(stats, FlushOptRecord::Kind::Dedup, f, fl->id(),
               cover ? cover->id() : 0);
        stats.flushesDeduped++;
        fl->parent()->erase(fl);
    }
}

/** Pass A: sequential clean-line elision. */
void
passElide(Function *f, const Cfg &cfg, const analysis::PointsTo &pts,
          FlushOptStats &stats)
{
    for (Instruction *fl : collectOps(f, Opcode::Flush)) {
        if (!cfg.reachableFromEntry(fl->parent()))
            continue;
        const Value *fptr = fl->operand(0);
        FoldedPtr ff = foldPtr(fptr);
        const Instruction *cover = nullptr;
        auto cl = [&](const Instruction &in) {
            return &in == fl ? Ev::Thru
                             : classifyElide(in, fptr, ff, pts);
        };
        if (!coveredBackward(cfg, fl, cl, &cover))
            continue;
        record(stats, FlushOptRecord::Kind::Elide, f, fl->id(),
               cover ? cover->id() : 0);
        stats.flushesElided++;
        fl->parent()->erase(fl);
    }
}

/** Pass C: hoist same-pointer sibling flushes to the nearest common
 *  dominator when the windows are pool-invisible and jointly
 *  exhaustive. */
void
passHoist(Function *f, const Cfg &cfg, const DominatorTree &dom,
          FlushOptStats &stats)
{
    // Group flushes by (pointer value, kind) in first-encounter
    // order; keyed linearly, never by pointer address, so the
    // report order is deterministic.
    struct Group
    {
        Value *ptr;
        FlushKind kind;
        std::vector<Instruction *> members;
    };
    std::vector<Group> groups;
    for (Instruction *fl : collectOps(f, Opcode::Flush)) {
        if (!cfg.reachableFromEntry(fl->parent()))
            continue;
        Value *ptr = fl->operand(0);
        auto it = std::find_if(groups.begin(), groups.end(),
                               [&](const Group &g) {
                                   return g.ptr == ptr &&
                                          g.kind == fl->flushKind();
                               });
        if (it == groups.end())
            groups.push_back({ptr, fl->flushKind(), {fl}});
        else
            it->members.push_back(fl);
    }

    for (const Group &g : groups) {
        if (g.members.size() < 2)
            continue;
        // Distinct blocks only; same-block duplicates belong to the
        // elision/dedup passes.
        std::set<const BasicBlock *> blocks;
        bool distinct = true;
        for (Instruction *m : g.members)
            distinct &= blocks.insert(m->parent()).second;
        if (!distinct)
            continue;
        const BasicBlock *ncd = g.members[0]->parent();
        for (size_t i = 1; ncd && i < g.members.size(); i++)
            ncd = dom.nearestCommonDominator(ncd,
                                             g.members[i]->parent());
        if (!ncd || blocks.count(ncd))
            continue;
        BasicBlock *dest = const_cast<BasicBlock *>(ncd);
        if (!dest->terminator())
            continue;
        // The pointer's definition must be available at the hoist
        // point (any non-terminator position in dest or above).
        if (const Instruction *def = asInstr(g.ptr)) {
            if (!dom.dominates(def->parent(), dest))
                continue;
        }
        // Never hoist into a cycle: if a sibling can reach the
        // hoist point again (a loop back edge), the hoisted flush
        // would re-execute every iteration — still correct, but a
        // dynamic pessimization, the opposite of PRE.
        {
            bool in_cycle = false;
            std::set<const BasicBlock *> seen;
            std::vector<BasicBlock *> stack;
            for (Instruction *m : g.members)
                stack.push_back(m->parent());
            while (!in_cycle && !stack.empty()) {
                BasicBlock *bb = stack.back();
                stack.pop_back();
                if (!seen.insert(bb).second)
                    continue;
                for (BasicBlock *s : cfg.succs(bb)) {
                    if (s == dest) {
                        in_cycle = true;
                        break;
                    }
                    stack.push_back(s);
                }
            }
            if (in_cycle)
                continue;
        }
        // Every path leaving dest must reach a sibling through a
        // pool-invisible window.
        std::map<const BasicBlock *, Instruction *> memberIn;
        for (Instruction *m : g.members)
            memberIn[m->parent()] = m;
        bool ok = true;
        std::set<const BasicBlock *> visited;
        std::vector<BasicBlock *> work(cfg.succs(dest).begin(),
                                       cfg.succs(dest).end());
        if (work.empty())
            ok = false;
        while (ok && !work.empty()) {
            BasicBlock *bb = work.back();
            work.pop_back();
            if (!visited.insert(bb).second)
                continue;
            auto mit = memberIn.find(bb);
            Instruction *member =
                mit == memberIn.end() ? nullptr : mit->second;
            bool fell_through = true;
            for (auto &in : *bb) {
                if (in.get() == member) {
                    fell_through = false;
                    break; // window ends at the sibling
                }
                if (isPoolVisible(*in)) {
                    ok = false;
                    fell_through = false;
                    break;
                }
            }
            if (!fell_through)
                continue;
            if (cfg.succs(bb).empty()) {
                ok = false; // fell off without meeting a sibling
                break;
            }
            for (BasicBlock *s : cfg.succs(bb))
                work.push_back(s);
        }
        if (!ok)
            continue;

        IRBuilder b(f->parent());
        b.setInsertPointBefore(dest->terminator());
        b.setLoc(g.members[0]->loc());
        Instruction *hoisted = b.createFlush(g.ptr, g.kind);

        FlushOptRecord r;
        r.kind = FlushOptRecord::Kind::Hoist;
        r.function = f->name();
        r.instrId = hoisted->id();
        r.block = dest->name();
        for (Instruction *m : g.members) {
            r.siblingIds.push_back(m->id());
            m->parent()->erase(m);
        }
        stats.flushesHoisted++;
        stats.hoistSitesRemoved += r.siblingIds.size();
        stats.records.push_back(std::move(r));
    }
}

/** Fence coalescing: exact no-op removal first, then the re-fenced
 *  (delayed-drain) direction. */
void
passFences(Function *f, const Cfg &cfg, FlushOptStats &stats)
{
    for (Instruction *fe : collectOps(f, Opcode::Fence)) {
        if (!cfg.reachableFromEntry(fe->parent()))
            continue;
        const Instruction *cover = nullptr;
        auto cl = [&](const Instruction &in) {
            return &in == fe ? Ev::Thru : classifyFenceForward(in);
        };
        if (!coveredBackward(cfg, fe, cl, &cover))
            continue;
        record(stats, FlushOptRecord::Kind::FenceForward, f,
               fe->id(), cover ? cover->id() : 0);
        stats.fencesForward++;
        fe->parent()->erase(fe);
    }
    for (Instruction *fe : collectOps(f, Opcode::Fence)) {
        if (!cfg.reachableFromEntry(fe->parent()))
            continue;
        const Instruction *cover = nullptr;
        auto cl = [&](const Instruction &in) {
            return classifyFenceBackward(in);
        };
        if (!coveredForward(cfg, fe, cl, &cover))
            continue;
        record(stats, FlushOptRecord::Kind::FenceBackward, f,
               fe->id(), cover ? cover->id() : 0);
        stats.fencesBackward++;
        fe->parent()->erase(fe);
    }
}

/**
 * Pass D: sink-and-merge over paired store/flush chains.
 *
 * A chain is a same-block run of CLWB/CLFLUSHOPT flushes of the same
 * folded base with *strictly increasing* exact offsets, where the
 * only memory writes between members are plain stores to the next
 * member's exact (base, offset) and nothing in the window observes
 * durability (no fence, durpoint, call, PmMap, Ret, NT store,
 * memcpy/memset, or foreign flush). Two facts make the rewrite safe
 * for durpoint-granularity crash exploration:
 *
 *  - sinking: the window contains no crash-explorable point, and for
 *    every line either program flushes, the last write to that line
 *    precedes the program's last covering flush (the increasing-
 *    offset + paired-store discipline guarantees it), so both
 *    programs enqueue identical final data by the window's end;
 *  - merging: after the sink the flushes are adjacent; for offsets
 *    a < m < b with b - a < 64, floor monotonicity gives
 *    line(m) in {line(a), line(b)} for EVERY base alignment, so an
 *    interior flush whose cluster endpoints are kept is a no-op.
 *
 * Members are clustered greedily (a cluster ends when the next
 * offset is >= 64 bytes past the cluster start); each cluster keeps
 * its first and last member, interior members are dropped, and the
 * kept members are re-seated at the chain tail (after every paired
 * store). Chains with nothing to drop are left untouched.
 */
void
passSinkMerge(Function *f, const Cfg &cfg, FlushOptStats &stats)
{
    struct Chain
    {
        const Value *base = nullptr;
        FlushKind kind{};
        std::vector<Instruction *> members;
        std::vector<int64_t> offsets;
        bool pendingStoreMismatch = false;
        std::vector<int64_t> pendingStoreOffsets;
    };

    auto finalize = [&](BasicBlock *bb, Chain &c) {
        if (c.members.size() < 2) {
            c = Chain{};
            return;
        }
        // Greedy clusters over the (sorted) offsets; keep first and
        // last of each, drop the interior.
        std::vector<bool> keep(c.members.size(), false);
        size_t start = 0;
        for (size_t i = 0; i < c.offsets.size(); i++) {
            bool last_in_cluster =
                i + 1 == c.offsets.size() ||
                c.offsets[i + 1] - c.offsets[start] >= kLine;
            if (i == start || last_in_cluster)
                keep[i] = true;
            if (last_in_cluster)
                start = i + 1;
        }
        size_t dropped = 0;
        for (bool k : keep)
            dropped += !k;
        if (dropped == 0) {
            c = Chain{};
            return;
        }

        Instruction *anchor = c.members.back(); // max offset: kept
        FlushOptRecord r;
        r.kind = FlushOptRecord::Kind::Sink;
        r.function = f->name();
        r.instrId = anchor->id();
        r.block = bb->name();
        IRBuilder b(f->parent());
        for (size_t i = 0; i + 1 < c.members.size(); i++) {
            Instruction *m = c.members[i];
            if (keep[i]) {
                // Re-seat at the chain tail, after every window
                // store.
                b.setInsertPointBefore(anchor);
                b.setLoc(m->loc());
                b.createFlush(m->operand(0), c.kind);
                stats.flushesSunk++;
            } else {
                r.siblingIds.push_back(m->id());
                stats.flushesMerged++;
            }
            bb->erase(m);
        }
        stats.records.push_back(std::move(r));
        c = Chain{};
    };

    for (BasicBlock *bb : cfg.blocks()) {
        if (!cfg.reachableFromEntry(bb))
            continue;
        Chain chain;
        // Iterate by id snapshot: finalize edits the block behind
        // the cursor only (members precede the current position).
        std::vector<Instruction *> instrs;
        for (auto &in : *bb)
            instrs.push_back(in.get());
        for (Instruction *in : instrs) {
            switch (in->op()) {
              case Opcode::Flush: {
                FoldedPtr fp = foldPtr(in->operand(0));
                bool extends =
                    chain.base == fp.base &&
                    chain.kind == in->flushKind() &&
                    !chain.offsets.empty() &&
                    fp.offset > chain.offsets.back() &&
                    !chain.pendingStoreMismatch;
                if (extends) {
                    for (int64_t so : chain.pendingStoreOffsets)
                        extends &= so == fp.offset;
                }
                if (extends) {
                    chain.members.push_back(in);
                    chain.offsets.push_back(fp.offset);
                    chain.pendingStoreOffsets.clear();
                } else {
                    finalize(bb, chain);
                    if (in->flushKind() != FlushKind::Clflush) {
                        chain.base = fp.base;
                        chain.kind = in->flushKind();
                        chain.members = {in};
                        chain.offsets = {fp.offset};
                    }
                }
                break;
              }
              case Opcode::Store: {
                if (in->nonTemporal()) {
                    finalize(bb, chain);
                    break;
                }
                if (chain.members.empty())
                    break;
                FoldedPtr sp = foldPtr(in->operand(1));
                if (sp.base == chain.base)
                    chain.pendingStoreOffsets.push_back(sp.offset);
                else
                    chain.pendingStoreMismatch = true;
                break;
              }
              case Opcode::Memcpy:
              case Opcode::Memset:
              case Opcode::Fence:
              case Opcode::DurPoint:
              case Opcode::Call:
              case Opcode::PmMap:
              case Opcode::Ret:
                finalize(bb, chain);
                break;
              default:
                if (isSchedBarrier(in->op()))
                    finalize(bb, chain);
                break;
            }
        }
        finalize(bb, chain);
    }
}

/**
 * Pass E: loop-range promotion. Matches the canonical per-word loop
 * flush the fixer emits —
 *
 *   header:  %i = load %iv ; %c = cmp ult %i, LEN
 *            condbr %c, %body, %exit
 *   body:    ... flush KIND (gep BASE, %i) ... ; br %header
 *
 * with BASE and LEN defined outside the loop, no other durability-
 * relevant operation in either loop block, %exit reached only from
 * the header — and replaces the flush with one
 * __hippo_flush_range(BASE, LEN) call at the top of %exit. Every
 * line the loop dirtied through gep(BASE, %i) has %i <u LEN, so the
 * range call covers it with final data; extra (clean) lines in the
 * range flush as no-ops. Like pass D this holds at durpoint
 * granularity: neither loop block may contain a crash-explorable
 * point. Applied only when the fixer's helper is already in the
 * module, so the optimizer never grows the static flush count.
 */
void
passLoopRange(Function *f, const Cfg &cfg, FlushOptStats &stats)
{
    if (f->name() == flushRangeHelperName)
        return;
    Function *helper =
        f->parent()->findFunction(flushRangeHelperName);
    if (!helper)
        return;

    for (BasicBlock *body : cfg.blocks()) {
        if (!cfg.reachableFromEntry(body))
            continue;
        Instruction *bterm = body->terminator();
        if (!bterm || bterm->op() != Opcode::Br)
            continue;
        BasicBlock *header = bterm->target(0);
        if (header == body)
            continue;
        Instruction *hterm = header->terminator();
        if (!hterm || hterm->op() != Opcode::CondBr)
            continue;
        if (hterm->target(0) != body)
            continue; // loop must be entered on the TRUE edge
        BasicBlock *exitBb = hterm->target(1);
        if (exitBb == body || exitBb == header)
            continue;
        if (cfg.preds(exitBb).size() != 1)
            continue;

        // Guard: cmp ult %i, LEN with LEN defined outside the loop.
        const Instruction *guard = asInstr(hterm->operand(0));
        if (!guard || guard->op() != Opcode::Cmp ||
            guard->cmpPred() != CmpPred::Ult)
            continue;
        Value *iv = guard->operand(0);
        Value *len = guard->operand(1);
        auto outsideLoop = [&](const Value *v) {
            const Instruction *in = asInstr(v);
            return !in ||
                   (in->parent() != header && in->parent() != body);
        };
        if (!outsideLoop(len))
            continue;

        // Exactly one flush in the loop, in the body, of
        // gep(BASE, %i); nothing else durability-relevant.
        Instruction *flush = nullptr;
        bool clean = true;
        for (BasicBlock *bb : {header, body}) {
            for (auto &owned : *bb) {
                Instruction &in = *owned;
                switch (in.op()) {
                  case Opcode::Flush:
                    if (flush || bb != body ||
                        in.flushKind() == FlushKind::Clflush)
                        clean = false;
                    else
                        flush = &in;
                    break;
                  case Opcode::Store:
                    clean &= !in.nonTemporal();
                    break;
                  case Opcode::Memcpy:
                  case Opcode::Memset:
                  case Opcode::Fence:
                  case Opcode::DurPoint:
                  case Opcode::Call:
                  case Opcode::PmMap:
                  case Opcode::Ret:
                    clean = false;
                    break;
                  default:
                    clean &= !isSchedBarrier(in.op());
                    break;
                }
            }
        }
        if (!clean || !flush)
            continue;
        const Instruction *gep = asInstr(flush->operand(0));
        if (!gep || gep->op() != Opcode::Gep ||
            gep->operand(1) != iv)
            continue;
        Value *base = gep->operand(0);
        if (!outsideLoop(base))
            continue;

        IRBuilder b(f->parent());
        b.setInsertPoint(exitBb, exitBb->begin());
        b.setLoc(flush->loc());
        Instruction *call = b.createCall(helper, {base, len});

        FlushOptRecord r;
        r.kind = FlushOptRecord::Kind::LoopRange;
        r.function = f->name();
        r.instrId = flush->id();
        r.coverId = call->id();
        r.block = exitBb->name();
        stats.records.push_back(std::move(r));
        stats.loopRanges++;
        body->erase(flush);
    }
}

size_t
countOps(const Module &m, Opcode op)
{
    size_t n = 0;
    for (const auto &f : m.functions())
        for (const auto &bb : f->blocks())
            for (const auto &in : *bb)
                n += in->op() == op;
    return n;
}

} // namespace

std::string
FlushOptRecord::str() const
{
    switch (kind) {
      case Kind::Dedup:
        return format("OPT dedup @%s#%u covered-by #%u",
                      function.c_str(), instrId, coverId);
      case Kind::Elide:
        return format("OPT elide @%s#%u covered-by #%u",
                      function.c_str(), instrId, coverId);
      case Kind::Hoist: {
        std::string ids;
        for (uint32_t id : siblingIds)
            ids += (ids.empty() ? "#" : ",#") + std::to_string(id);
        return format("OPT hoist @%s block=%s new=#%u removed=[%s]",
                      function.c_str(), block.c_str(), instrId,
                      ids.c_str());
      }
      case Kind::FenceForward:
        return format("OPT fence-fwd @%s#%u covered-by #%u",
                      function.c_str(), instrId, coverId);
      case Kind::FenceBackward:
        return format("OPT fence-bwd @%s#%u covered-by #%u",
                      function.c_str(), instrId, coverId);
      case Kind::Sink: {
        std::string ids;
        for (uint32_t id : siblingIds)
            ids += (ids.empty() ? "#" : ",#") + std::to_string(id);
        return format(
            "OPT sink @%s block=%s anchor=#%u merged=[%s]",
            function.c_str(), block.c_str(), instrId, ids.c_str());
      }
      case Kind::LoopRange:
        return format(
            "OPT loop-range @%s#%u -> call#%u block=%s",
            function.c_str(), instrId, coverId, block.c_str());
    }
    return "OPT ?";
}

std::string
FlushOptStats::str() const
{
    return format("flushes %zu->%zu, fences %zu->%zu "
                  "(dedup %zu, elide %zu, hoist %zu/%zu, "
                  "fence-fwd %zu, fence-bwd %zu, merge %zu, "
                  "loop-range %zu)",
                  flushesBefore, flushesAfter, fencesBefore,
                  fencesAfter, flushesDeduped, flushesElided,
                  flushesHoisted, hoistSitesRemoved, fencesForward,
                  fencesBackward, flushesMerged, loopRanges);
}

std::string
FlushOptStats::writeText() const
{
    std::string out = format(
        "OPT-SUMMARY flushes=%zu->%zu fences=%zu->%zu dedup=%zu "
        "elide=%zu hoist=%zu/%zu fence-fwd=%zu fence-bwd=%zu "
        "sink=%zu merge=%zu loop-range=%zu\n",
        flushesBefore, flushesAfter, fencesBefore, fencesAfter,
        flushesDeduped, flushesElided, flushesHoisted,
        hoistSitesRemoved, fencesForward, fencesBackward,
        flushesSunk, flushesMerged, loopRanges);
    for (const FlushOptRecord &r : records)
        out += r.str() + "\n";
    return out;
}

void
FlushOptStats::exportMetrics(support::MetricsRegistry &reg,
                             const std::string &prefix) const
{
    reg.counter(prefix + ".runs").inc();
    reg.counter(prefix + ".flushes_before").inc(flushesBefore);
    reg.counter(prefix + ".flushes_after").inc(flushesAfter);
    reg.counter(prefix + ".fences_before").inc(fencesBefore);
    reg.counter(prefix + ".fences_after").inc(fencesAfter);
    reg.counter(prefix + ".dedup").inc(flushesDeduped);
    reg.counter(prefix + ".elide").inc(flushesElided);
    reg.counter(prefix + ".hoist_inserted").inc(flushesHoisted);
    reg.counter(prefix + ".hoist_removed").inc(hoistSitesRemoved);
    reg.counter(prefix + ".fence_forward").inc(fencesForward);
    reg.counter(prefix + ".fence_backward").inc(fencesBackward);
    reg.counter(prefix + ".sink").inc(flushesSunk);
    reg.counter(prefix + ".merge").inc(flushesMerged);
    reg.counter(prefix + ".loop_range").inc(loopRanges);
}

void
FlushOptStats::merge(const FlushOptStats &o)
{
    flushesBefore += o.flushesBefore;
    flushesAfter += o.flushesAfter;
    fencesBefore += o.fencesBefore;
    fencesAfter += o.fencesAfter;
    flushesDeduped += o.flushesDeduped;
    flushesElided += o.flushesElided;
    flushesHoisted += o.flushesHoisted;
    hoistSitesRemoved += o.hoistSitesRemoved;
    fencesForward += o.fencesForward;
    fencesBackward += o.fencesBackward;
    flushesSunk += o.flushesSunk;
    flushesMerged += o.flushesMerged;
    loopRanges += o.loopRanges;
    records.insert(records.end(), o.records.begin(),
                   o.records.end());
}

FlushOptStats
optimizeFlushes(ir::Module *m, const FlushOptConfig &cfg)
{
    FlushOptStats stats;
    stats.flushesBefore = countOps(*m, Opcode::Flush);
    stats.fencesBefore = countOps(*m, Opcode::Fence);

    analysis::PointsTo pts(*m);
    for (const auto &f : m->functions()) {
        if (f->blocks().empty())
            continue;
        Cfg cfgv(*f);
        DominatorTree dom(cfgv);
        if (cfg.loopRange)
            passLoopRange(f.get(), cfgv, stats);
        if (cfg.sinkAndMerge)
            passSinkMerge(f.get(), cfgv, stats);
        if (cfg.dedupSameLine)
            passDedup(f.get(), cfgv, pts, stats);
        if (cfg.elideDominated)
            passElide(f.get(), cfgv, pts, stats);
        if (cfg.hoistPartial) {
            passHoist(f.get(), cfgv, dom, stats);
            // Hoisted flushes dominate their old siblings' suffixes;
            // a second elision pass folds now-clean-line leftovers.
            if (cfg.elideDominated)
                passElide(f.get(), cfgv, pts, stats);
        }
        if (cfg.coalesceFences)
            passFences(f.get(), cfgv, stats);
    }

    stats.flushesAfter = countOps(*m, Opcode::Flush);
    stats.fencesAfter = countOps(*m, Opcode::Fence);
    return stats;
}

namespace
{

/** One observable capture of a module for the differential check. */
struct Probe
{
    bool ok = true;
    std::string diag;
    std::set<std::string> bugKeys;
    std::set<std::string> staticKeys;
    uint64_t digest = 0;
    uint64_t chaosDigest = 0;
};

Probe
probeModule(ir::Module *m, const FlushOptVerifyConfig &cfg)
{
    Probe p;
    try {
        vm::VmConfig vc;
        if (cfg.stepBudget || cfg.heapBudget || cfg.timeBudgetMs) {
            vc.sandbox = true;
            vc.stepBudget = cfg.stepBudget;
            vc.heapBudget = cfg.heapBudget;
            vc.timeBudgetMs = cfg.timeBudgetMs;
        }
        if (cfg.checkDetector) {
            pmem::PmPool pool(64u << 20);
            vm::VmConfig tvc = vc;
            tvc.traceEnabled = true;
            vm::Vm machine(m, &pool, tvc);
            auto run = machine.run(cfg.entry, cfg.entryArgs);
            if (!run.ok()) {
                p.ok = false;
                p.diag = "entry run: " + run.diag;
                return p;
            }
            auto report = pmcheck::analyze(machine.trace());
            for (const auto &bug : report.bugs)
                p.bugKeys.insert(bug.storeSiteKey());
        }
        if (cfg.checkStatic) {
            analysis::StaticCheckerConfig sc;
            sc.entry = cfg.entry;
            auto sreport = analysis::checkDurability(*m, sc);
            for (const auto &c : sreport.candidates)
                p.staticKeys.insert(c.storeSiteKey());
        }
        pmcheck::CrashExplorerConfig cc;
        cc.entry = cfg.entry;
        cc.entryArgs = cfg.entryArgs;
        if (cfg.recovery.empty()) {
            cc.recovery = cfg.entry;
            cc.recoveryArgs = cfg.entryArgs;
        } else {
            cc.recovery = cfg.recovery;
            cc.recoveryArgs = cfg.recoveryArgs;
        }
        cc.jobs = cfg.jobs;
        cc.stepBudget = cfg.stepBudget;
        cc.heapBudget = cfg.heapBudget;
        cc.timeBudgetMs = cfg.timeBudgetMs;
        p.digest = pmcheck::recoveryDigest(
            pmcheck::exploreCrashes(m, cc));
        if (cfg.faults.tornChance > 0) {
            cc.faults = cfg.faults;
            cc.seed = cfg.faults.seed;
            p.chaosDigest = pmcheck::recoveryDigest(
                pmcheck::exploreCrashes(m, cc));
        }
    } catch (const std::exception &e) {
        p.ok = false;
        p.diag = e.what();
    }
    return p;
}

/** First key in @p after missing from @p before, if any. */
std::string
firstNewKey(const std::set<std::string> &before,
            const std::set<std::string> &after)
{
    for (const std::string &k : after)
        if (!before.count(k))
            return k;
    return {};
}

} // namespace

void
FlushOptOutcome::exportMetrics(support::MetricsRegistry &reg,
                               const std::string &prefix) const
{
    if (!reverted)
        stats.exportMetrics(reg, prefix);
    reg.counter(prefix + ".verify.kept").inc(verified && changed);
    reg.counter(prefix + ".verify.unchanged").inc(!changed);
    reg.counter(prefix + ".verify.reverts").inc(reverted);
}

FlushOptOutcome
optimizeAndVerify(std::unique_ptr<ir::Module> &m,
                  const FlushOptVerifyConfig &cfg)
{
    FlushOptOutcome out;

    Probe before = probeModule(m.get(), cfg);
    if (!before.ok) {
        // Cannot establish the baseline; do no harm — leave the
        // module untouched.
        out.failReason = "baseline capture failed: " + before.diag;
        return out;
    }
    out.digestBefore = before.digest;
    out.chaosDigestBefore = before.chaosDigest;

    std::string snapshot = ir::moduleToString(*m);
    out.stats = optimizeFlushes(m.get(), cfg.opt);
    out.changed = out.stats.flushesRemoved() +
                      out.stats.fencesRemoved() +
                      out.stats.flushesHoisted +
                      out.stats.flushesSunk + out.stats.loopRanges >
                  0;
    if (!out.changed) {
        out.verified = true;
        out.digestAfter = before.digest;
        out.chaosDigestAfter = before.chaosDigest;
        return out;
    }

    Probe after = probeModule(m.get(), cfg);
    out.digestAfter = after.digest;
    out.chaosDigestAfter = after.chaosDigest;

    std::string reason;
    if (!after.ok) {
        reason = "optimized " + after.diag;
    } else if (std::string k =
                   firstNewKey(before.bugKeys, after.bugKeys);
               !k.empty()) {
        reason = "pmcheck found a new bug at " + k;
    } else if (std::string k = firstNewKey(before.staticKeys,
                                           after.staticKeys);
               !k.empty()) {
        reason = "static checker found a new candidate at " + k;
    } else if (after.digest != before.digest) {
        reason = format("recovery digest changed "
                        "%016llx -> %016llx",
                        (unsigned long long)before.digest,
                        (unsigned long long)after.digest);
    } else if (cfg.faults.tornChance > 0 &&
               after.chaosDigest != before.chaosDigest) {
        reason = format("chaos recovery digest changed "
                        "%016llx -> %016llx",
                        (unsigned long long)before.chaosDigest,
                        (unsigned long long)after.chaosDigest);
    }

    if (!reason.empty()) {
        std::string err;
        auto restored = ir::parseModule(snapshot, &err);
        hippo_assert(restored != nullptr,
                     "optimizer snapshot does not re-parse: %s",
                     err.c_str());
        m = std::move(restored);
        out.reverted = true;
        out.failReason = reason;
        return out;
    }
    out.verified = true;
    return out;
}

} // namespace hippo::core
