#include "apps/bugsuite.hh"

#include <algorithm>

#include "ir/builder.hh"
#include "ir/verifier.hh"
#include "pmem/pm_pool.hh"
#include "support/logging.hh"
#include "support/parallel.hh"
#include "vm/vm.hh"

namespace hippo::apps
{

using namespace hippo::ir;

const char *
devFixStyleName(DevFixStyle s)
{
    switch (s) {
      case DevFixStyle::InterproceduralFlushFence:
        return "interprocedural flush+fence";
      case DevFixStyle::PortableRangedFlush:
        return "interprocedural flush (portable)";
    }
    return "?";
}

namespace
{

/** libpmem-style helpers the PMDK developers reach for. */
struct LibPmem
{
    Function *flush;   ///< @pmem_flush(p, len): ranged flush
    Function *persist; ///< @pmem_persist(p, len): flush + fence
};

LibPmem
addLibPmem(Module *m)
{
    IRBuilder b(m);
    LibPmem lib;

    auto build_range_flush = [&](const std::string &name,
                                 bool with_fence) {
        Function *f = m->addFunction(name, Type::Void);
        Argument *p = f->addParam(Type::Ptr, "p");
        Argument *len = f->addParam(Type::Int, "len");
        BasicBlock *entry = f->addBlock("entry");
        BasicBlock *loop = f->addBlock("loop");
        BasicBlock *body = f->addBlock("body");
        BasicBlock *done = f->addBlock("done");
        b.setInsertPoint(entry);
        b.setLoc("libpmem.c", 1);
        Instruction *iv = b.createAlloca(8);
        b.createStore(m->getInt(0), iv, 8);
        b.createBr(loop);
        b.setInsertPoint(loop);
        Instruction *i = b.createLoad(iv, 8);
        b.createCondBr(b.createCmp(CmpPred::Ult, i, len), body,
                       done);
        b.setInsertPoint(body);
        b.createFlush(b.createGep(p, i), FlushKind::Clwb);
        b.createStore(b.createAdd(i, m->getInt(64)), iv, 8);
        b.createBr(loop);
        b.setInsertPoint(done);
        Instruction *last = b.createSub(len, m->getInt(1));
        b.createFlush(b.createGep(p, last), FlushKind::Clwb);
        if (with_fence)
            b.createFence(FenceKind::Sfence);
        b.createRet();
        return f;
    };

    lib.flush = build_range_flush("pmem_flush", false);
    lib.persist = build_range_flush("pmem_persist", true);
    return lib;
}

/**
 * Shared skeleton for the "helper with mixed callers" cases
 * (Group A: interprocedural developer fixes). The knobs produce
 * materially different reproducers per issue while keeping the
 * corpus maintainable.
 */
struct HelperCaseShape
{
    const char *region;     ///< pool region name
    uint64_t poolBytes = 4096;
    const char *file;       ///< synthetic source file name
};

/** pmdk-447: pool-header memcpy through a shared copy helper. */
std::unique_ptr<Module>
build447(bool dev_fixed)
{
    auto m = std::make_unique<Module>("pmdk-447");
    LibPmem lib = addLibPmem(m.get());
    IRBuilder b(m.get());

    Function *hdr_copy = m->addFunction("hdr_copy", Type::Void);
    {
        Argument *dst = hdr_copy->addParam(Type::Ptr, "dst");
        Argument *src = hdr_copy->addParam(Type::Ptr, "src");
        Argument *len = hdr_copy->addParam(Type::Int, "len");
        b.setInsertPoint(hdr_copy->addBlock("entry"));
        b.setLoc("pool_hdr.c", 12);
        b.createMemcpy(dst, src, len);
        b.createRet();
    }

    Function *main = m->addFunction("test_main", Type::Int);
    b.setInsertPoint(main->addBlock("entry"));
    b.setLoc("pool_hdr.c", 40);
    Instruction *pool = b.createPmMap("pool447", 4096);
    Instruction *scratch = b.createAlloca(128);
    Instruction *shadow = b.createAlloca(128);
    b.createMemset(scratch, m->getInt(0x5A), m->getInt(64));
    // Volatile use of the helper: the in-memory shadow header.
    b.createCall(hdr_copy, {shadow, scratch, m->getInt(64)});
    // PM use: write the pool header. Never flushed (the bug).
    b.setLoc("pool_hdr.c", 44);
    b.createCall(hdr_copy, {pool, scratch, m->getInt(64)});
    if (dev_fixed)
        b.createCall(lib.persist, {pool, m->getInt(64)});
    b.createDurPoint("pmdk-447");
    Instruction *check = b.createLoad(pool, 8);
    b.createPrint("hdr0", check);
    b.createRet(check);

    verifyOrDie(*m);
    return m;
}

/** pmdk-458: persistent list insert-at-head via a slot-store helper. */
std::unique_ptr<Module>
build458(bool dev_fixed)
{
    auto m = std::make_unique<Module>("pmdk-458");
    LibPmem lib = addLibPmem(m.get());
    IRBuilder b(m.get());

    Function *slot_store = m->addFunction("slot_store", Type::Void);
    {
        Argument *p = slot_store->addParam(Type::Ptr, "p");
        Argument *v = slot_store->addParam(Type::Int, "v");
        b.setInsertPoint(slot_store->addBlock("entry"));
        b.setLoc("list.c", 8);
        b.createStore(v, p, 8);
        b.createRet();
    }

    Function *main = m->addFunction("test_main", Type::Int);
    b.setInsertPoint(main->addBlock("entry"));
    b.setLoc("list.c", 30);
    Instruction *pool = b.createPmMap("pool458", 4096);
    Instruction *tmp = b.createAlloca(64);
    // Volatile bookkeeping through the same helper.
    b.createCall(slot_store, {tmp, m->getInt(1)});
    // New node at offset 64: value, next; then head publish.
    b.setLoc("list.c", 34);
    b.createCall(slot_store,
                 {b.createGep(pool, m->getInt(64)), m->getInt(77)});
    b.setLoc("list.c", 35);
    b.createCall(slot_store,
                 {b.createGep(pool, m->getInt(72)), m->getInt(0)});
    b.setLoc("list.c", 36);
    b.createCall(slot_store, {pool, m->getInt(64)});
    if (dev_fixed)
        b.createCall(lib.persist, {pool, m->getInt(128)});
    b.createDurPoint("pmdk-458");
    Instruction *head = b.createLoad(pool, 8);
    b.createPrint("head", head);
    b.createRet(head);

    verifyOrDie(*m);
    return m;
}

/** pmdk-459: insert-at-tail, two frames deep (hoist level 2). */
std::unique_ptr<Module>
build459(bool dev_fixed)
{
    auto m = std::make_unique<Module>("pmdk-459");
    LibPmem lib = addLibPmem(m.get());
    IRBuilder b(m.get());

    Function *slot_store = m->addFunction("slot_store", Type::Void);
    {
        Argument *p = slot_store->addParam(Type::Ptr, "p");
        Argument *v = slot_store->addParam(Type::Int, "v");
        b.setInsertPoint(slot_store->addBlock("entry"));
        b.setLoc("list.c", 8);
        b.createStore(v, p, 8);
        b.createRet();
    }

    // list_insert(list, val): tail node write + tail pointer swing.
    Function *list_insert = m->addFunction("list_insert", Type::Void);
    {
        Argument *list = list_insert->addParam(Type::Ptr, "list");
        Argument *val = list_insert->addParam(Type::Int, "val");
        b.setInsertPoint(list_insert->addBlock("entry"));
        b.setLoc("list.c", 18);
        Instruction *tail =
            b.createLoad(b.createGep(list, m->getInt(8)), 8);
        Instruction *node = b.createGep(
            list, b.createAdd(m->getInt(64),
                              b.createMul(tail, m->getInt(16))));
        b.createCall(slot_store, {node, val});
        b.setLoc("list.c", 20);
        b.createCall(slot_store,
                     {b.createGep(list, m->getInt(8)),
                      b.createAdd(tail, m->getInt(1))});
        b.createRet();
    }

    Function *main = m->addFunction("test_main", Type::Int);
    b.setInsertPoint(main->addBlock("entry"));
    b.setLoc("list.c", 40);
    Instruction *pool = b.createPmMap("pool459", 4096);
    Instruction *shadow = b.createAlloca(512);
    // The volatile shadow list exercises both helper levels.
    b.createCall(list_insert, {shadow, m->getInt(5)});
    b.setLoc("list.c", 43);
    b.createCall(list_insert, {pool, m->getInt(41)});
    if (dev_fixed)
        b.createCall(lib.persist, {pool, m->getInt(256)});
    b.createDurPoint("pmdk-459");
    Instruction *tail =
        b.createLoad(b.createGep(pool, m->getInt(8)), 8);
    b.createPrint("tail", tail);
    b.createRet(tail);

    verifyOrDie(*m);
    return m;
}

/** pmdk-460: list remove via an unlink helper with mixed callers. */
std::unique_ptr<Module>
build460(bool dev_fixed)
{
    auto m = std::make_unique<Module>("pmdk-460");
    LibPmem lib = addLibPmem(m.get());
    IRBuilder b(m.get());

    Function *unlink = m->addFunction("list_unlink", Type::Void);
    {
        Argument *headp = unlink->addParam(Type::Ptr, "headp");
        Argument *next = unlink->addParam(Type::Int, "next");
        b.setInsertPoint(unlink->addBlock("entry"));
        b.setLoc("list.c", 60);
        b.createStore(next, headp, 8);
        b.createRet();
    }

    Function *main = m->addFunction("test_main", Type::Int);
    b.setInsertPoint(main->addBlock("entry"));
    b.setLoc("list.c", 80);
    Instruction *pool = b.createPmMap("pool460", 4096);
    Instruction *shadow = b.createAlloca(64);
    // Seed: head -> node@64 -> node@128 (pre-existing, persisted).
    b.createStore(m->getInt(64), pool, 8);
    b.createStore(m->getInt(128),
                  b.createGep(pool, m->getInt(64)), 8);
    b.createFlush(pool, FlushKind::Clwb);
    b.createFlush(b.createGep(pool, m->getInt(64)),
                  FlushKind::Clwb);
    b.createFence(FenceKind::Sfence);
    // Volatile shadow unlink through the same helper.
    b.createCall(unlink, {shadow, m->getInt(0)});
    // Remove the head node: head = head->next. The bug.
    b.setLoc("list.c", 86);
    b.createCall(unlink, {pool, m->getInt(128)});
    if (dev_fixed)
        b.createCall(lib.persist, {pool, m->getInt(8)});
    b.createDurPoint("pmdk-460");
    Instruction *head = b.createLoad(pool, 8);
    b.createPrint("head", head);
    b.createRet(head);

    verifyOrDie(*m);
    return m;
}

/** pmdk-461: object user-data memcpy via a shared od_copy helper. */
std::unique_ptr<Module>
build461(bool dev_fixed)
{
    auto m = std::make_unique<Module>("pmdk-461");
    LibPmem lib = addLibPmem(m.get());
    IRBuilder b(m.get());

    Function *od_copy = m->addFunction("od_copy", Type::Void);
    {
        Argument *obj = od_copy->addParam(Type::Ptr, "obj");
        Argument *buf = od_copy->addParam(Type::Ptr, "buf");
        Argument *n = od_copy->addParam(Type::Int, "n");
        b.setInsertPoint(od_copy->addBlock("entry"));
        b.setLoc("obj.c", 15);
        b.createMemcpy(b.createGep(obj, m->getInt(16)), buf, n);
        b.createRet();
    }

    Function *main = m->addFunction("test_main", Type::Int);
    b.setInsertPoint(main->addBlock("entry"));
    b.setLoc("obj.c", 44);
    Instruction *pool = b.createPmMap("pool461", 4096);
    Instruction *payload = b.createAlloca(128);
    Instruction *volobj = b.createAlloca(160);
    b.createMemset(payload, m->getInt(0x33), m->getInt(96));
    b.createCall(od_copy, {volobj, payload, m->getInt(96)});
    b.setLoc("obj.c", 47);
    b.createCall(od_copy, {pool, payload, m->getInt(96)});
    if (dev_fixed)
        b.createCall(lib.persist, {pool, m->getInt(128)});
    b.createDurPoint("pmdk-461");
    Instruction *w =
        b.createLoad(b.createGep(pool, m->getInt(16)), 8);
    b.createPrint("userdata0", w);
    b.createRet(w);

    verifyOrDie(*m);
    return m;
}

/** pmdk-585: pool-tool metadata writer loop with mixed callers. */
std::unique_ptr<Module>
build585(bool dev_fixed)
{
    auto m = std::make_unique<Module>("pmdk-585");
    LibPmem lib = addLibPmem(m.get());
    IRBuilder b(m.get());

    Function *meta_write = m->addFunction("meta_write", Type::Void);
    {
        Argument *dst = meta_write->addParam(Type::Ptr, "dst");
        Argument *n = meta_write->addParam(Type::Int, "n");
        BasicBlock *entry = meta_write->addBlock("entry");
        BasicBlock *loop = meta_write->addBlock("loop");
        BasicBlock *body = meta_write->addBlock("body");
        BasicBlock *done = meta_write->addBlock("done");
        b.setInsertPoint(entry);
        b.setLoc("spoil.c", 22);
        Instruction *iv = b.createAlloca(8);
        b.createStore(m->getInt(0), iv, 8);
        b.createBr(loop);
        b.setInsertPoint(loop);
        Instruction *i = b.createLoad(iv, 8);
        b.createCondBr(b.createCmp(CmpPred::Ult, i, n), body, done);
        b.setInsertPoint(body);
        b.setLoc("spoil.c", 25);
        b.createStore(b.createMul(i, m->getInt(0x9E37)),
                      b.createGep(dst, b.createMul(i, m->getInt(8))),
                      8);
        b.createStore(b.createAdd(i, m->getInt(1)), iv, 8);
        b.createBr(loop);
        b.setInsertPoint(done);
        b.createRet();
    }

    Function *main = m->addFunction("test_main", Type::Int);
    b.setInsertPoint(main->addBlock("entry"));
    b.setLoc("spoil.c", 50);
    Instruction *pool = b.createPmMap("pool585", 4096);
    Instruction *preview = b.createAlloca(256);
    b.createCall(meta_write, {preview, m->getInt(8)});
    b.setLoc("spoil.c", 53);
    b.createCall(meta_write, {pool, m->getInt(16)});
    if (dev_fixed)
        b.createCall(lib.persist, {pool, m->getInt(128)});
    b.createDurPoint("pmdk-585");
    Instruction *w = b.createLoad(pool, 8);
    b.createPrint("meta0", w);
    b.createRet(w);

    verifyOrDie(*m);
    return m;
}

/** pmdk-942: API misuse — ranged object copy without persist. */
std::unique_ptr<Module>
build942(bool dev_fixed)
{
    auto m = std::make_unique<Module>("pmdk-942");
    LibPmem lib = addLibPmem(m.get());
    IRBuilder b(m.get());

    Function *obj_memcpy = m->addFunction("obj_memcpy", Type::Void);
    {
        Argument *dst = obj_memcpy->addParam(Type::Ptr, "dst");
        Argument *src = obj_memcpy->addParam(Type::Ptr, "src");
        Argument *n = obj_memcpy->addParam(Type::Int, "n");
        b.setInsertPoint(obj_memcpy->addBlock("entry"));
        b.setLoc("ut942.c", 10);
        b.createMemcpy(dst, src, n);
        b.createRet();
    }

    Function *main = m->addFunction("test_main", Type::Int);
    b.setInsertPoint(main->addBlock("entry"));
    b.setLoc("ut942.c", 30);
    Instruction *pool = b.createPmMap("pool942", 2048);
    Instruction *input = b.createAlloca(256);
    Instruction *reply = b.createAlloca(256);
    b.createMemset(input, m->getInt(0x42), m->getInt(200));
    b.setLoc("ut942.c", 33);
    b.createCall(obj_memcpy, {pool, input, m->getInt(200)});
    if (dev_fixed)
        b.createCall(lib.persist, {pool, m->getInt(200)});
    // Build the (volatile) reply through the same helper.
    b.createCall(obj_memcpy, {reply, input, m->getInt(200)});
    b.createDurPoint("pmdk-942");
    Instruction *w = b.createLoad(pool, 8);
    b.createPrint("obj0", w);
    b.createRet(w);

    verifyOrDie(*m);
    return m;
}

/** pmdk-945: util_buf field writes via a shared fill helper. */
std::unique_ptr<Module>
build945(bool dev_fixed)
{
    auto m = std::make_unique<Module>("pmdk-945");
    LibPmem lib = addLibPmem(m.get());
    IRBuilder b(m.get());

    Function *buf_fill = m->addFunction("buf_fill", Type::Void);
    {
        Argument *buf = buf_fill->addParam(Type::Ptr, "buf");
        Argument *seed = buf_fill->addParam(Type::Int, "seed");
        b.setInsertPoint(buf_fill->addBlock("entry"));
        b.setLoc("ut945.c", 14);
        b.createStore(seed, buf, 8);
        b.createStore(b.createMul(seed, m->getInt(3)),
                      b.createGep(buf, m->getInt(8)), 8);
        b.createStore(b.createAdd(seed, m->getInt(9)),
                      b.createGep(buf, m->getInt(16)), 8);
        b.createStore(m->getInt(0xB0F),
                      b.createGep(buf, m->getInt(24)), 8);
        b.createRet();
    }

    Function *main = m->addFunction("test_main", Type::Int);
    b.setInsertPoint(main->addBlock("entry"));
    b.setLoc("ut945.c", 40);
    Instruction *pool = b.createPmMap("pool945", 2048);
    Instruction *scratch = b.createAlloca(64);
    b.createCall(buf_fill, {scratch, m->getInt(2)});
    b.setLoc("ut945.c", 42);
    b.createCall(buf_fill, {pool, m->getInt(11)});
    if (dev_fixed)
        b.createCall(lib.persist, {pool, m->getInt(32)});
    b.createDurPoint("pmdk-945");
    Instruction *w = b.createLoad(pool, 8);
    b.createPrint("buf0", w);
    b.createRet(w);

    verifyOrDie(*m);
    return m;
}

/** pmdk-452: "*oid = NULL" — direct store, fence already present. */
std::unique_ptr<Module>
build452(bool dev_fixed)
{
    auto m = std::make_unique<Module>("pmdk-452");
    LibPmem lib = addLibPmem(m.get());
    IRBuilder b(m.get());

    Function *main = m->addFunction("test_main", Type::Int);
    b.setInsertPoint(main->addBlock("entry"));
    b.setLoc("tx.c", 1103);
    Instruction *pool = b.createPmMap("pool452", 2048);
    Instruction *oidp = b.createGep(pool, m->getInt(128));
    // Seed a non-null oid, persisted.
    b.createStore(m->getInt(0xDEAD), oidp, 8);
    b.createFlush(oidp, FlushKind::Clwb);
    b.createFence(FenceKind::Sfence);
    // if_free: clear the oid. Flush forgotten; fence below remains.
    b.setLoc("tx.c", 1107);
    b.createStore(m->getInt(0), oidp, 8);
    if (dev_fixed)
        b.createCall(lib.flush, {oidp, m->getInt(8)});
    b.createFence(FenceKind::Sfence);
    b.createDurPoint("pmdk-452");
    Instruction *w = b.createLoad(oidp, 8);
    b.createPrint("oid", w);
    b.createRet(w);

    verifyOrDie(*m);
    return m;
}

/** pmdk-940: unit-test region write right after mapping. */
std::unique_ptr<Module>
build940(bool dev_fixed)
{
    auto m = std::make_unique<Module>("pmdk-940");
    LibPmem lib = addLibPmem(m.get());
    IRBuilder b(m.get());

    Function *main = m->addFunction("test_main", Type::Int);
    b.setInsertPoint(main->addBlock("entry"));
    b.setLoc("ut940.c", 21);
    Instruction *pool = b.createPmMap("pool940", 2048);
    Instruction *slotp = b.createGep(pool, m->getInt(512));
    b.createStore(m->getInt(0xFACE), slotp, 8);
    if (dev_fixed)
        b.createCall(lib.flush, {slotp, m->getInt(8)});
    b.createFence(FenceKind::Sfence);
    b.createDurPoint("pmdk-940");
    Instruction *w = b.createLoad(slotp, 8);
    b.createPrint("slot", w);
    b.createRet(w);

    verifyOrDie(*m);
    return m;
}

/** pmdk-943: header field update with the fence already placed. */
std::unique_ptr<Module>
build943(bool dev_fixed)
{
    auto m = std::make_unique<Module>("pmdk-943");
    LibPmem lib = addLibPmem(m.get());
    IRBuilder b(m.get());

    Function *main = m->addFunction("test_main", Type::Int);
    b.setInsertPoint(main->addBlock("entry"));
    b.setLoc("ut943.c", 33);
    Instruction *pool = b.createPmMap("pool943", 2048);
    Instruction *verp = b.createGep(pool, m->getInt(40));
    Instruction *old = b.createLoad(verp, 8);
    b.createStore(b.createAdd(old, m->getInt(1)), verp, 8);
    if (dev_fixed)
        b.createCall(lib.flush, {verp, m->getInt(8)});
    b.createFence(FenceKind::Sfence);
    b.createDurPoint("pmdk-943");
    Instruction *w = b.createLoad(verp, 8);
    b.createPrint("version", w);
    b.createRet(w);

    verifyOrDie(*m);
    return m;
}

} // namespace

const std::vector<BugCase> &
pmdkBugCases()
{
    using BK = pmcheck::BugKind;
    using FK = core::FixKind;
    using DS = DevFixStyle;
    static const std::vector<BugCase> cases = {
        {"pmdk-447", "pool header memcpy never persisted",
         BK::MissingFlushFence, DS::InterproceduralFlushFence,
         FK::Interprocedural, "test_main", build447},
        {"pmdk-452", "oid cleared without a flush (Listing 1)",
         BK::MissingFlush, DS::PortableRangedFlush, FK::IntraFlush,
         "test_main", build452},
        {"pmdk-458", "list insert-at-head unflushed publishes",
         BK::MissingFlushFence, DS::InterproceduralFlushFence,
         FK::Interprocedural, "test_main", build458},
        {"pmdk-459", "list insert-at-tail, two frames deep",
         BK::MissingFlushFence, DS::InterproceduralFlushFence,
         FK::Interprocedural, "test_main", build459},
        {"pmdk-460", "list remove: head unlink not persisted",
         BK::MissingFlushFence, DS::InterproceduralFlushFence,
         FK::Interprocedural, "test_main", build460},
        {"pmdk-461", "object user-data copy not persisted",
         BK::MissingFlushFence, DS::InterproceduralFlushFence,
         FK::Interprocedural, "test_main", build461},
        {"pmdk-585", "pool tool metadata writer not persisted",
         BK::MissingFlushFence, DS::InterproceduralFlushFence,
         FK::Interprocedural, "test_main", build585},
        {"pmdk-940", "unit test writes region without flush",
         BK::MissingFlush, DS::PortableRangedFlush, FK::IntraFlush,
         "test_main", build940},
        {"pmdk-942", "ranged object copy without persist",
         BK::MissingFlushFence, DS::InterproceduralFlushFence,
         FK::Interprocedural, "test_main", build942},
        {"pmdk-943", "header version bump without flush",
         BK::MissingFlush, DS::PortableRangedFlush, FK::IntraFlush,
         "test_main", build943},
        {"pmdk-945", "util_buf field writes not persisted",
         BK::MissingFlushFence, DS::InterproceduralFlushFence,
         FK::Interprocedural, "test_main", build945},
    };
    return cases;
}

namespace
{

/** Persisted bytes of every region after a crash at durpoint 0. */
std::vector<uint8_t>
crashImage(ir::Module *m, const std::string &entry)
{
    pmem::PmPool pool(1 << 20);
    vm::VmConfig vc;
    vc.crashAtDurPoint = 0;
    vm::Vm machine(m, &pool, vc);
    machine.run(entry);
    pool.crash();
    std::vector<uint8_t> image;
    for (const auto &[name, region] : pool.regions()) {
        size_t off = image.size();
        image.resize(off + region.size);
        pool.load(region.base, image.data() + off, region.size);
    }
    return image;
}

} // namespace

CaseResult
evaluateCase(const BugCase &c, core::FixerConfig cfg)
{
    CaseResult res;
    res.id = c.id;

    auto buggy = c.build(false);
    {
        pmem::PmPool pool(1 << 20);
        vm::VmConfig vc;
        vc.traceEnabled = true;
        vm::Vm machine(buggy.get(), &pool, vc);
        machine.run(c.entry);
        auto report = pmcheck::analyze(machine.trace());
        res.detected = !report.clean();
        if (res.detected)
            res.foundKind = report.bugs[0].kind;

        core::Fixer fixer(buggy.get(), cfg);
        res.summary = fixer.fix(report, machine.trace(),
                                &machine.dynPointsTo());
    }

    // Re-check the repaired module.
    {
        pmem::PmPool pool(1 << 20);
        vm::VmConfig vc;
        vc.traceEnabled = true;
        vm::Vm machine(buggy.get(), &pool, vc);
        machine.run(c.entry);
        res.fixedClean = pmcheck::analyze(machine.trace()).clean();
    }

    // Classify: interprocedural if any fix hoisted.
    res.hippoKind = core::FixKind::IntraFlush;
    for (const auto &f : res.summary.fixes) {
        if (f.kind == core::FixKind::Interprocedural) {
            res.hippoKind = core::FixKind::Interprocedural;
            break;
        }
        res.hippoKind = f.kind;
    }

    // Developer build must be clean, and both fixed builds must
    // persist the same state across a crash at the durability point.
    auto dev = c.build(true);
    {
        pmem::PmPool pool(1 << 20);
        vm::VmConfig vc;
        vc.traceEnabled = true;
        vm::Vm machine(dev.get(), &pool, vc);
        machine.run(c.entry);
        res.devClean = pmcheck::analyze(machine.trace()).clean();
    }
    res.persistedStateMatches =
        crashImage(buggy.get(), c.entry) ==
        crashImage(dev.get(), c.entry);
    return res;
}

std::vector<CaseResult>
evaluateCases(const std::vector<BugCase> &cases,
              core::FixerConfig cfg)
{
    std::vector<CaseResult> results(cases.size());
    support::parallelFor(cfg.jobs, 0, cases.size(), [&](uint64_t i) {
        results[i] = evaluateCase(cases[i], cfg);
    });
    return results;
}

} // namespace hippo::apps
