#include "core/fixer.hh"

#include <algorithm>
#include <limits>
#include <set>

#include "analysis/call_graph.hh"
#include "analysis/points_to.hh"
#include "ir/builder.hh"
#include "pmem/pm_pool.hh"
#include "ir/cloner.hh"
#include "ir/verifier.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/stopwatch.hh"
#include "support/strings.hh"

namespace hippo::core
{

const char *
fixKindName(FixKind k)
{
    switch (k) {
      case FixKind::IntraFlush: return "intra-flush";
      case FixKind::IntraFence: return "intra-fence";
      case FixKind::IntraFlushFence: return "intra-flush+fence";
      case FixKind::Interprocedural: return "interprocedural";
      case FixKind::CrossPublish: return "cross-publish";
    }
    return "?";
}

std::string
AppliedFix::str() const
{
    std::string s = format("%s in @%s at %%v%u", fixKindName(kind),
                           function.c_str(), anchorInstrId);
    if (kind == FixKind::Interprocedural) {
        s += format(" (subprogram @%s, %d frame(s) above the store)",
                    clonedSubprogram.c_str(), hoistLevels);
    }
    s += format(" [%zu bug(s), +%u flush, +%u fence]",
                bugIndexes.size(), flushesInserted, fencesInserted);
    return s;
}

size_t
FixSummary::hoistedAtLevel(int levels) const
{
    size_t n = 0;
    for (const auto &f : fixes) {
        n += f.kind == FixKind::Interprocedural &&
             f.hoistLevels == levels;
    }
    return n;
}

std::string
FixSummary::str() const
{
    return format(
        "fixed %zu bug(s) with %zu fix(es) (%zu intra, %zu inter); "
        "+%u flush(es), +%u fence(s), %u clone(s); IR %zu -> %zu "
        "instrs",
        bugsFixed, fixes.size(), intraproceduralCount(),
        interproceduralCount(), flushesInserted, fencesInserted,
        functionsCloned, irInstrsBefore, irInstrsAfter);
}

void
FixSummary::exportMetrics(support::MetricsRegistry &reg,
                          const std::string &prefix) const
{
    reg.counter(prefix + ".runs").inc();
    reg.counter(prefix + ".bugs").inc(bugsFixed);
    reg.counter(prefix + ".fixes_planned").inc(fixesPlanned);
    reg.counter(prefix + ".fixes_after_reduction")
        .inc(fixesAfterReduction);
    reg.counter(prefix + ".fixes_applied").inc(fixes.size());
    reg.counter(prefix + ".fixes_intra").inc(intraproceduralCount());
    reg.counter(prefix + ".fixes_inter").inc(interproceduralCount());
    reg.counter(prefix + ".flushes_inserted").inc(flushesInserted);
    reg.counter(prefix + ".fences_inserted").inc(fencesInserted);
    reg.counter(prefix + ".functions_cloned").inc(functionsCloned);
    reg.counter(prefix + ".ir_instrs_added")
        .inc(irInstrsAfter - irInstrsBefore);
    reg.counter(prefix + ".verifier_problems")
        .inc(verifierProblems.size());
    reg.timer(prefix + ".run_ns")
        .addNanos((uint64_t)(elapsedSeconds * 1e9));
    reg.gauge(prefix + ".peak_rss_bytes").setMax((double)peakRssBytes);
}

/** One reduced fix plan (possibly covering several bugs). */
struct Fixer::PlannedFix
{
    ir::Instruction *anchor = nullptr; ///< store/memcpy (flush) or
                                       ///< flush instr (fence-only)
    bool addFlush = false;
    /** Unconditional fence (missing-fence plans, anchored at the
     *  existing flush). Flush plans decide fence need per locus. */
    bool addFence = false;
    /** Cross-thread plan anchored at the publishing atomic: insert
     *  *before* the anchor and flush @ref flushPtr (the buggy
     *  store's pointer), not the anchor's own operand. */
    bool beforeAnchor = false;
    ir::Value *flushPtr = nullptr;
    std::vector<size_t> bugs;
    const pmcheck::Bug *rep = nullptr; ///< representative bug

    /// Hoisting decision (phase 3)
    ir::Instruction *interCallSite = nullptr;
    int hoistLevels = 0;
};

/** Internal pipeline state for one fix() run. */
class Fixer::Impl
{
  public:
    Impl(ir::Module *m, const FixerConfig &cfg,
         const pmcheck::Report &report, const trace::Trace &trace,
         const vm::DynPointsTo *dyn)
        : module_(m), cfg_(cfg), report_(report), pts_(*m),
          callGraph_(*m),
          scorer_(pts_, cfg.aaMode, trace, dyn)
    {}

    FixSummary
    run()
    {
        Stopwatch watch;
        FixSummary summary;
        summary.irInstrsBefore = module_->instrCount();

        collectBugStores();
        planIntraFixes();   // Phase 1
        summary.fixesPlanned = plans_.size();
        reduceFixes();      // Phase 2
        summary.fixesAfterReduction = plans_.size();
        if (cfg_.enableHoisting)
            hoistFixes();   // Phase 3
        applyFixes(summary);

        // Deterministic output order regardless of pointer values:
        // interprocedural fixes first, then by (function, anchor).
        std::sort(summary.fixes.begin(), summary.fixes.end(),
                  [](const AppliedFix &a, const AppliedFix &b) {
                      bool ai = a.kind == FixKind::Interprocedural;
                      bool bi = b.kind == FixKind::Interprocedural;
                      if (ai != bi)
                          return ai;
                      if (a.function != b.function)
                          return a.function < b.function;
                      return a.anchorInstrId < b.anchorInstrId;
                  });

        summary.bugsFixed = report_.bugs.size();
        summary.functionsCloned = (uint32_t)cloneOf_.size();
        summary.irInstrsAfter = module_->instrCount();
        summary.verifierProblems = ir::verifyModule(*module_);
        summary.elapsedSeconds = watch.elapsedSeconds();
        summary.peakRssBytes = peakRssBytes();
        return summary;
    }

  private:
    /// @name Step 2: bug localization
    /// @{
    ir::Instruction *
    resolveInstr(const trace::StackFrame &frame) const
    {
        ir::Function *f = module_->findFunction(frame.function);
        if (!f)
            return nullptr;
        return f->findInstr(frame.instrId);
    }

    void
    collectBugStores()
    {
        for (const pmcheck::Bug &bug : report_.bugs) {
            if (bug.storeStack.empty())
                continue;
            if (ir::Instruction *instr =
                    resolveInstr(bug.storeStack[0]))
                bugStores_.insert(instr);
        }
    }
    /// @}

    /// @name Phase 1: intraprocedural fixes
    /// @{
    /** Does @p a execute before @p b within their shared block? */
    static bool
    precedesInBlock(const ir::Instruction *a, const ir::Instruction *b)
    {
        for (const auto &owned : *a->parent()) {
            if (owned.get() == a)
                return true;
            if (owned.get() == b)
                return false;
        }
        return false;
    }

    void
    planIntraFixes()
    {
        for (size_t i = 0; i < report_.bugs.size(); i++) {
            const pmcheck::Bug &bug = report_.bugs[i];
            ir::Instruction *store = bug.storeStack.empty()
                                         ? nullptr
                                         : resolveInstr(
                                               bug.storeStack[0]);
            if (!store) {
                hippo_fatal("cannot locate bug store %s",
                            bug.storeStack.empty()
                                ? "<empty stack>"
                                : bug.storeStack[0].str().c_str());
            }
            if (!modifiedPointer(store)) {
                hippo_fatal(
                    "bug store %s does not resolve to a memory "
                    "write (stale trace or duplicate ids?)",
                    bug.storeStack[0].str().c_str());
            }

            PlannedFix fix;
            fix.bugs = {i};
            fix.rep = &bug;
            switch (bug.kind) {
              case pmcheck::BugKind::MissingFlush:
              case pmcheck::BugKind::MissingFlushFence:
                fix.anchor = store;
                fix.addFlush = true;
                break;
              case pmcheck::BugKind::MissingFence: {
                ir::Instruction *flush =
                    bug.flushStack.empty()
                        ? nullptr
                        : resolveInstr(bug.flushStack[0]);
                if (flush) {
                    // Insert the fence right after the existing
                    // flush (Listing 3 of the paper).
                    fix.anchor = flush;
                    fix.addFence = true;
                } else {
                    // Conservative fallback: flush+fence after the
                    // store, safe by Theorem 3.
                    fix.anchor = store;
                    fix.addFlush = true;
                    fix.addFence = true;
                }
                break;
              }
              case pmcheck::BugKind::CrossThread: {
                // Cross-thread publication race: the payload store's
                // line must be durable before the release-ordered
                // atomic makes it observable. Preferred locus: flush
                // the payload pointer + fence immediately BEFORE the
                // publishing atomic — valid when the publication is
                // in the same block as the store (program order
                // guarantees the pointer value dominates the locus).
                // Fallback: flush+fence right after the store, which
                // precedes the publication on every same-thread
                // path. Both are add-only (do-no-harm).
                ir::Instruction *pub =
                    bug.durStack.empty()
                        ? nullptr
                        : resolveInstr(bug.durStack[0]);
                ir::Value *ptr = modifiedPointer(store);
                bool at_pub =
                    pub &&
                    (pub->op() == ir::Opcode::AtomicStore ||
                     pub->op() == ir::Opcode::AtomicRmw) &&
                    pub->parent() == store->parent() &&
                    precedesInBlock(store, pub);
                if (at_pub) {
                    fix.anchor = pub;
                    fix.beforeAnchor = true;
                    fix.addFlush = true;
                    fix.addFence = true;
                    fix.flushPtr = ptr;
                } else {
                    fix.anchor = store;
                    fix.addFlush = true;
                    fix.addFence = true;
                }
                break;
              }
            }
            plans_.push_back(std::move(fix));
        }
    }
    /// @}

    /// @name Phase 2: fix reduction
    /// @{
    static bool
    sameCallPath(const pmcheck::Bug &a, const pmcheck::Bug &b)
    {
        if (a.storeStack.size() != b.storeStack.size())
            return false;
        for (size_t i = 0; i < a.storeStack.size(); i++) {
            if (a.storeStack[i].function !=
                    b.storeStack[i].function ||
                a.storeStack[i].instrId != b.storeStack[i].instrId)
                return false;
        }
        return a.durStack.empty() == b.durStack.empty() &&
               (a.durStack.empty() ||
                a.durStack[0].function == b.durStack[0].function);
    }

    void
    reduceFixes()
    {
        if (!cfg_.enableReduction)
            return;
        // Merge plans that share both the anchor and the dynamic
        // call path; plans for the same anchor reached via distinct
        // paths stay separate so each path can hoist independently
        // (they re-deduplicate at application time if they land on
        // the same insertion point).
        std::vector<PlannedFix> reduced;
        for (PlannedFix &fix : plans_) {
            PlannedFix *merged = nullptr;
            for (PlannedFix &dst : reduced) {
                if (dst.anchor == fix.anchor &&
                    dst.addFlush == fix.addFlush &&
                    dst.beforeAnchor == fix.beforeAnchor &&
                    dst.flushPtr == fix.flushPtr &&
                    sameCallPath(*dst.rep, *fix.rep)) {
                    merged = &dst;
                    break;
                }
            }
            if (!merged) {
                reduced.push_back(std::move(fix));
                continue;
            }
            merged->addFence |= fix.addFence;
            merged->bugs.insert(merged->bugs.end(), fix.bugs.begin(),
                                fix.bugs.end());
        }
        plans_ = std::move(reduced);
    }

    /**
     * Is the bug's pre-existing fence (the first fence between X and
     * I) visible in the frame of @p locus_function? Only then can an
     * inserted flush rely on it; relying on a fence in a *different*
     * function would be interprocedural reasoning, which the safe
     * intraprocedural fix avoids (§3.3, §4.2).
     */
    static bool
    fenceVisibleIn(const pmcheck::Bug &b,
                   const std::string &locus_function)
    {
        return !b.fenceStack.empty() &&
               b.fenceStack[0].function == locus_function;
    }

    /** Does @p fix need a new fence when its flush lands with locus
     *  function @p locus_function? */
    bool
    flushPlanNeedsFenceAt(const PlannedFix &fix,
                          const std::string &locus_function) const
    {
        for (size_t i : fix.bugs) {
            const pmcheck::Bug &b = report_.bugs[i];
            if (b.kind == pmcheck::BugKind::MissingFence)
                continue;
            if (!fenceVisibleIn(b, locus_function))
                return true;
        }
        return false;
    }
    /// @}

    /// @name Phase 3: hoisting heuristic
    /// @{
    static constexpr int64_t minusInfinity =
        std::numeric_limits<int64_t>::min();

    /** Pointer operand whose target the memory op modifies. */
    static ir::Value *
    modifiedPointer(const ir::Instruction *instr)
    {
        switch (instr->op()) {
          case ir::Opcode::Store:
          case ir::Opcode::AtomicStore:
            return instr->operand(1);
          case ir::Opcode::Memcpy:
          case ir::Opcode::Memset:
          case ir::Opcode::AtomicRmw:
            return instr->operand(0);
          default:
            return nullptr;
        }
    }

    void
    hoistFixes()
    {
        for (PlannedFix &fix : plans_) {
            if (!fix.addFlush)
                continue;
            // Cross-thread fixes never hoist: the persistent-
            // subprogram transformation would put the fence after
            // the hoisted call site, which may fall after the
            // publishing atomic — re-opening the race window.
            if (fix.beforeAnchor ||
                fix.rep->kind == pmcheck::BugKind::CrossThread)
                continue;
            const pmcheck::Bug &bug = *fix.rep;
            if (bug.durStack.empty() || bug.storeStack.empty())
                continue;

            // Intraprocedural baseline score.
            ir::Value *ptr = modifiedPointer(fix.anchor);
            if (!ptr)
                continue;
            int64_t best = scorer_.score(
                bug.storeStack[0].function, ptr);
            ir::Instruction *best_site = nullptr;
            int best_level = 0;

            // Candidates: call sites on the stack between the
            // store's function and the function called by the
            // function containing I (paper §4.2.4).
            const std::string &i_func = bug.durStack[0].function;
            size_t k = 0;
            for (size_t j = 1; j < bug.storeStack.size(); j++) {
                if (bug.storeStack[j].function == i_func)
                    k = j;
            }
            for (size_t c = 1; c <= k; c++) {
                ir::Instruction *site =
                    resolveInstr(bug.storeStack[c]);
                if (!site || site->op() != ir::Opcode::Call ||
                    site->callee()->name() !=
                        bug.storeStack[c - 1].function)
                    break;
                int64_t s = 0;
                bool has_ptr_arg = false;
                ir::Function *callee = site->callee();
                for (size_t ai = 0; ai < site->numOperands(); ai++) {
                    ir::Value *arg = site->operand(ai);
                    if (arg->type() != ir::Type::Ptr)
                        continue;
                    // Only arguments whose pointee can flow into the
                    // buggy store's address are scored: they are the
                    // channel the persistent subprogram will flush
                    // through. A volatile *source* pointer of a copy
                    // does not make the transformation touch
                    // volatile data.
                    if (!pts_.flowsTo(callee->param(ai), ptr))
                        continue;
                    has_ptr_arg = true;
                    s += scorer_.score(bug.storeStack[c].function,
                                       arg);
                }
                if (!has_ptr_arg) {
                    // Score -inf, and all parents of this call site
                    // too: stop scanning outward (§4.3).
                    break;
                }
                if (s > best) {
                    best = s;
                    best_site = site;
                    best_level = (int)c;
                }
            }

            if (best_site) {
                fix.interCallSite = best_site;
                fix.hoistLevels = best_level;
            }
        }
    }
    /// @}

    /// @name Step 4: fix application
    /// @{
    ir::Function *
    flushRangeHelper()
    {
        if (flushRange_)
            return flushRange_;
        if ((flushRange_ =
                 module_->findFunction(flushRangeHelperName)))
            return flushRange_;

        // func @__hippo_flush_range(%p: ptr, %len: i64) flushes every
        // cache line overlapping [p, p+len); the libpmem pmem_flush
        // analog the paper's developers reach for.
        ir::Function *f = module_->addFunction(flushRangeHelperName,
                                               ir::Type::Void);
        ir::Argument *p = f->addParam(ir::Type::Ptr, "p");
        ir::Argument *len = f->addParam(ir::Type::Int, "len");
        ir::BasicBlock *entry = f->addBlock("entry");
        ir::BasicBlock *loop = f->addBlock("loop");
        ir::BasicBlock *body = f->addBlock("body");
        ir::BasicBlock *tail = f->addBlock("tail");
        ir::BasicBlock *exit = f->addBlock("exit");

        ir::IRBuilder b(module_);
        b.setInsertPoint(entry);
        ir::Instruction *iv = b.createAlloca(8);
        b.createStore(b.getInt(0), iv, 8);
        ir::Instruction *empty =
            b.createCmp(ir::CmpPred::Eq, len, b.getInt(0));
        b.createCondBr(empty, exit, loop);

        b.setInsertPoint(loop);
        ir::Instruction *i = b.createLoad(iv, 8);
        ir::Instruction *more = b.createCmp(ir::CmpPred::Ult, i, len);
        b.createCondBr(more, body, tail);

        b.setInsertPoint(body);
        ir::Instruction *q = b.createGep(p, i);
        b.createFlush(q, cfg_.flushKind);
        b.createStore(b.createAdd(i, b.getInt(pmem::cacheLineSize)),
                      iv, 8);
        b.createBr(loop);

        b.setInsertPoint(tail);
        ir::Instruction *last = b.createSub(len, b.getInt(1));
        b.createFlush(b.createGep(p, last), cfg_.flushKind);
        b.createBr(exit);

        b.setInsertPoint(exit);
        b.createRet();
        flushRange_ = f;
        return f;
    }

    /** Does @p f directly contain a PM-modifying memory op? */
    bool
    hasDirectPmStore(ir::Function *f)
    {
        auto it = directPm_.find(f);
        if (it != directPm_.end())
            return it->second;
        bool found = false;
        for (const auto &bb : f->blocks()) {
            for (const auto &instr : *bb) {
                ir::Value *ptr = modifiedPointer(instr.get());
                if (!ptr)
                    continue;
                if (bugStores_.count(instr.get()) ||
                    scorer_.mayPointToPm(f->name(), ptr)) {
                    found = true;
                    break;
                }
            }
            if (found)
                break;
        }
        directPm_[f] = found;
        return found;
    }

    /** Does @p f (transitively) contain a PM-modifying memory op? */
    bool
    needsClone(ir::Function *f)
    {
        if (hasDirectPmStore(f))
            return true;
        for (const auto &fn : module_->functions()) {
            if (fn.get() != f && callGraph_.reaches(f, fn.get()) &&
                hasDirectPmStore(fn.get()))
                return true;
        }
        return false;
    }

    std::string
    uniqueCloneName(const std::string &base)
    {
        std::string name = base + persistentCloneSuffix;
        int n = 2;
        while (module_->findFunction(name))
            name = base + persistentCloneSuffix + format("_%d", n++);
        return name;
    }

    /**
     * The persistent subprogram transformation (§4.2.4): clone @p g
     * and everything it reaches that touches PM, inserting a flush
     * after every PM-modifying memory op. Clones are memoized and
     * reused across fixes to bound code growth (§6.4).
     */
    ir::Function *
    getPersistentClone(ir::Function *g, FixSummary &summary)
    {
        auto memo = cloneOf_.find(g);
        if (memo != cloneOf_.end())
            return memo->second;

        // Collect the subprogram members needing clones.
        std::vector<ir::Function *> members{g};
        for (const auto &fn : module_->functions()) {
            ir::Function *h = fn.get();
            if (h != g && callGraph_.reaches(g, h) && needsClone(h))
                members.push_back(h);
        }

        // Clone pass (no callee rewrite yet; handles recursion).
        std::vector<std::pair<ir::Function *, ir::CloneResult>>
            created;
        for (ir::Function *h : members) {
            if (cloneOf_.count(h))
                continue;
            ir::CloneResult r = ir::cloneFunction(
                h, uniqueCloneName(h->name()));
            cloneOf_[h] = r.clone;
            created.emplace_back(h, std::move(r));
        }

        // Redirect calls inside new clones to persistent versions.
        for (auto &[orig, r] : created) {
            for (const auto &bb : r.clone->blocks()) {
                for (const auto &instr : *bb) {
                    if (instr->op() != ir::Opcode::Call)
                        continue;
                    auto it = cloneOf_.find(instr->callee());
                    if (it != cloneOf_.end())
                        instr->setCallee(it->second);
                }
            }
        }

        // Insert flushes after PM-modifying ops inside new clones.
        for (auto &[orig, r] : created) {
            for (const auto &bb : orig->blocks()) {
                for (const auto &instr : *bb) {
                    ir::Value *ptr = modifiedPointer(instr.get());
                    if (!ptr)
                        continue;
                    if (!bugStores_.count(instr.get()) &&
                        !scorer_.mayPointToPm(orig->name(), ptr))
                        continue;
                    ir::Instruction *clone_instr =
                        r.instrMap.at(instr.get());
                    summary.flushesInserted +=
                        insertFlushAfter(clone_instr);
                }
            }
        }
        return cloneOf_.at(g);
    }

    /** Insert the flush matching @p mem_op right after it. */
    uint32_t
    insertFlushAfter(ir::Instruction *mem_op)
    {
        ir::IRBuilder b(module_);
        b.setInsertPointAfter(mem_op);
        b.setLoc(mem_op->loc());
        if (mem_op->op() == ir::Opcode::Store ||
            mem_op->op() == ir::Opcode::AtomicStore) {
            b.createFlush(mem_op->operand(1), cfg_.flushKind);
        } else if (mem_op->op() == ir::Opcode::AtomicRmw) {
            b.createFlush(mem_op->operand(0), cfg_.flushKind);
        } else {
            b.createCall(flushRangeHelper(),
                         {mem_op->operand(0), mem_op->operand(2)});
        }
        return 1;
    }

    void
    applyFixes(FixSummary &summary)
    {
        // Interprocedural fixes grouped by call site.
        struct SiteGroup
        {
            std::vector<PlannedFix *> plans;
            bool needFence = false;
        };
        std::map<ir::Instruction *, SiteGroup> sites;
        for (PlannedFix &fix : plans_) {
            if (fix.interCallSite) {
                SiteGroup &g = sites[fix.interCallSite];
                g.plans.push_back(&fix);
                g.needFence |= flushPlanNeedsFenceAt(
                    fix,
                    fix.interCallSite->function()->name());
            }
        }

        for (auto &[site, group] : sites) {
            uint32_t flushes_before = summary.flushesInserted;
            ir::Function *clone =
                getPersistentClone(site->callee(), summary);
            site->setCallee(clone);

            AppliedFix applied;
            applied.kind = FixKind::Interprocedural;
            applied.function = site->function()->name();
            applied.anchorInstrId = site->id();
            applied.clonedSubprogram = clone->name();
            for (PlannedFix *p : group.plans) {
                applied.bugIndexes.insert(applied.bugIndexes.end(),
                                          p->bugs.begin(),
                                          p->bugs.end());
                applied.hoistLevels =
                    std::max(applied.hoistLevels, p->hoistLevels);
            }
            if (group.needFence) {
                ir::IRBuilder b(module_);
                b.setInsertPointAfter(site);
                b.setLoc(site->loc());
                b.createFence(cfg_.fenceKind);
                applied.fencesInserted++;
                summary.fencesInserted++;
            }
            applied.flushesInserted =
                summary.flushesInserted - flushes_before;
            summary.fixes.push_back(std::move(applied));
        }

        // Cross-thread fixes anchored at the publishing atomic: one
        // flush per distinct payload pointer plus one fence, all
        // inserted immediately before the publication so the data
        // is durable before it becomes observable.
        struct PublishGroup
        {
            std::vector<PlannedFix *> plans;
        };
        std::map<ir::Instruction *, PublishGroup> publishes;
        for (PlannedFix &fix : plans_) {
            if (fix.beforeAnchor)
                publishes[fix.anchor].plans.push_back(&fix);
        }
        for (auto &[anchor, group] : publishes) {
            AppliedFix applied;
            applied.kind = FixKind::CrossPublish;
            applied.function = anchor->function()->name();
            applied.anchorInstrId = anchor->id();

            ir::IRBuilder b(module_);
            b.setInsertPointBefore(anchor);
            b.setLoc(anchor->loc());
            std::set<ir::Value *> flushed;
            for (PlannedFix *p : group.plans) {
                applied.bugIndexes.insert(applied.bugIndexes.end(),
                                          p->bugs.begin(),
                                          p->bugs.end());
                if (p->flushPtr &&
                    flushed.insert(p->flushPtr).second) {
                    b.createFlush(p->flushPtr, cfg_.flushKind);
                    applied.flushesInserted++;
                    summary.flushesInserted++;
                }
            }
            b.createFence(cfg_.fenceKind);
            applied.fencesInserted++;
            summary.fencesInserted++;
            summary.fixes.push_back(std::move(applied));
        }

        // Remaining intraprocedural fixes, deduplicated per anchor
        // (plans for the same anchor via distinct call paths that
        // all stayed intra collapse to one insertion).
        struct AnchorGroup
        {
            std::vector<PlannedFix *> plans;
            bool addFlush = false;
            bool addFence = false;
        };
        std::map<ir::Instruction *, AnchorGroup> anchors;
        for (PlannedFix &fix : plans_) {
            if (fix.interCallSite || fix.beforeAnchor)
                continue;
            AnchorGroup &g = anchors[fix.anchor];
            g.plans.push_back(&fix);
            g.addFlush |= fix.addFlush;
            g.addFence |= fix.addFence;
            if (fix.addFlush) {
                g.addFence |= flushPlanNeedsFenceAt(
                    fix, fix.anchor->function()->name());
            }
        }

        for (auto &[anchor, group] : anchors) {
            AppliedFix applied;
            applied.function = anchor->function()->name();
            applied.anchorInstrId = anchor->id();
            for (PlannedFix *p : group.plans) {
                applied.bugIndexes.insert(applied.bugIndexes.end(),
                                          p->bugs.begin(),
                                          p->bugs.end());
            }

            ir::IRBuilder b(module_);
            ir::Instruction *after = anchor;
            if (group.addFlush) {
                applied.flushesInserted += insertFlushAfter(after);
                summary.flushesInserted += applied.flushesInserted;
                // The fence must follow the flush: F(X) -> M.
                auto it = after->parent()->iteratorTo(after);
                ++it;
                after = it->get();
            }
            if (group.addFence) {
                b.setInsertPointAfter(after);
                b.setLoc(anchor->loc());
                b.createFence(cfg_.fenceKind);
                applied.fencesInserted++;
                summary.fencesInserted++;
            }
            applied.kind =
                group.addFlush && group.addFence
                    ? FixKind::IntraFlushFence
                    : (group.addFlush ? FixKind::IntraFlush
                                      : FixKind::IntraFence);
            summary.fixes.push_back(std::move(applied));
        }
    }
    /// @}

    ir::Module *module_;
    const FixerConfig &cfg_;
    const pmcheck::Report &report_;

    analysis::PointsTo pts_;
    analysis::CallGraph callGraph_;
    analysis::AliasScorer scorer_;

    std::set<const ir::Instruction *> bugStores_;
    std::vector<PlannedFix> plans_;

    std::map<ir::Function *, bool> directPm_;
    std::map<ir::Function *, ir::Function *> cloneOf_;
    ir::Function *flushRange_ = nullptr;
};

Fixer::Fixer(ir::Module *module, FixerConfig cfg)
    : module_(module), cfg_(cfg)
{}

FixSummary
Fixer::fix(const pmcheck::Report &report, const trace::Trace &trace,
           const vm::DynPointsTo *dyn)
{
    Impl impl(module_, cfg_, report, trace, dyn);
    return impl.run();
}

pmcheck::ExplorationResult
Fixer::verifyFixed(pmcheck::CrashExplorerConfig vc) const
{
    if (vc.jobs == 0)
        vc.jobs = cfg_.jobs;
    if (cfg_.staticReport && vc.priorityDurLabels.empty())
        vc.priorityDurLabels = cfg_.staticReport->durLabels();
    // Chaos mode: forward the fixer's fault plan and watchdog budgets
    // unless the caller configured its own.
    if (!vc.faults.enabled())
        vc.faults = cfg_.faults;
    if (vc.stepBudget == 0)
        vc.stepBudget = cfg_.stepBudget;
    if (vc.heapBudget == 0)
        vc.heapBudget = cfg_.heapBudget;
    if (vc.timeBudgetMs == 0)
        vc.timeBudgetMs = cfg_.timeBudgetMs;
    auto &reg = support::MetricsRegistry::global();
    support::ScopedTimer t(reg.timer("fixer.verify_ns"));
    pmcheck::ExplorationResult res = pmcheck::exploreCrashes(module_, vc);
    reg.counter("fixer.verify.runs").inc();
    reg.counter("fixer.verify.crash_points").inc(res.outcomes.size());
    reg.counter("fixer.verify.durpoint_monotonic")
        .inc(res.durPointRecoveryNonDecreasing());
    // Graceful degradation accounting: crash points the explorer's
    // ladder could not verify are reported, not fatal.
    uint64_t unverified = res.unverifiedCount();
    reg.counter("fixer.degraded.unverified").inc(unverified);
    if (unverified)
        reg.counter("fixer.degraded.runs").inc();
    return res;
}

} // namespace hippo::core
