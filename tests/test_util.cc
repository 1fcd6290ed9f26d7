#include "test_util.hh"

#include <fstream>
#include <map>

#include "support/logging.hh"
#include "support/random.hh"
#include "support/strings.hh"

namespace hippo::test
{

using namespace hippo::ir;

std::unique_ptr<Module>
buildListing5(bool with_fence, uint64_t vol_iters)
{
    auto m = std::make_unique<Module>("listing5");
    IRBuilder b(m.get());

    // update(addr, idx, val): addr[idx] = val
    Function *update = m->addFunction("update", Type::Void);
    {
        Argument *addr = update->addParam(Type::Ptr, "addr");
        Argument *idx = update->addParam(Type::Int, "idx");
        Argument *val = update->addParam(Type::Int, "val");
        b.setInsertPoint(update->addBlock("entry"));
        b.setLoc("listing5.c", 2);
        Instruction *p = b.createGep(addr, idx);
        b.createStore(val, p, 1);
        b.createRet();
    }

    // modify(addr): update(addr, 0, 42)
    Function *modify = m->addFunction("modify", Type::Void);
    {
        Argument *addr = modify->addParam(Type::Ptr, "addr");
        b.setInsertPoint(modify->addBlock("entry"));
        b.setLoc("listing5.c", 5);
        b.createCall(update, {addr, b.getInt(0), b.getInt(42)});
        b.createRet();
    }

    // foo()
    Function *foo = m->addFunction("foo", Type::Void);
    {
        BasicBlock *entry = foo->addBlock("entry");
        BasicBlock *loop = foo->addBlock("loop");
        BasicBlock *body = foo->addBlock("body");
        BasicBlock *done = foo->addBlock("done");

        b.setInsertPoint(entry);
        b.setLoc("listing5.c", 17);
        Instruction *vol = b.createAlloca(64);
        Instruction *pm = b.createPmMap("pool", 64);
        Instruction *iv = b.createAlloca(8);
        b.createStore(b.getInt(0), iv, 8);
        b.createBr(loop);

        b.setInsertPoint(loop);
        Instruction *i = b.createLoad(iv, 8);
        Instruction *more =
            b.createCmp(CmpPred::Ult, i, b.getInt(vol_iters));
        b.createCondBr(more, body, done);

        b.setInsertPoint(body);
        b.setLoc("listing5.c", 18);
        b.createCall(modify, {vol});
        b.createStore(b.createAdd(i, b.getInt(1)), iv, 8);
        b.createBr(loop);

        b.setInsertPoint(done);
        b.setLoc("listing5.c", 19);
        b.createCall(modify, {pm});
        if (with_fence) {
            b.setLoc("listing5.c", 22);
            b.createFence(FenceKind::Sfence);
        }
        b.setLoc("listing5.c", 23);
        b.createDurPoint("crash");
        // Make the persisted value observable for equivalence checks.
        Instruction *check = b.createLoad(pm, 1);
        b.createPrint("pm_byte", check);
        b.createRet();
    }

    verifyOrDie(*m);
    return m;
}

namespace
{

PipelineResult
runPipelineImpl(ir::Module *m, const std::string &entry,
                const std::vector<uint64_t> &args,
                core::FixerConfig cfg)
{
    PipelineResult res;

    // Bug-finding run (tracing on).
    {
        pmem::PmPool pool(16u << 20);
        vm::VmConfig vc;
        vc.traceEnabled = true;
        vm::Vm machine(m, &pool, vc);
        machine.run(entry, args);
        res.before = pmcheck::analyze(machine.trace());
        res.outputsBefore = machine.outputs();

        core::Fixer fixer(m, cfg);
        res.summary =
            fixer.fix(res.before, machine.trace(),
                      &machine.dynPointsTo());
    }

    // Validation run on the fixed module.
    {
        pmem::PmPool pool(16u << 20);
        vm::VmConfig vc;
        vc.traceEnabled = true;
        vm::Vm machine(m, &pool, vc);
        machine.run(entry, args);
        res.after = pmcheck::analyze(machine.trace());
        res.outputsAfter = machine.outputs();
    }
    return res;
}

} // namespace

PipelineResult
runPipeline(ir::Module *m, const std::string &entry,
            core::FixerConfig cfg)
{
    return runPipelineImpl(m, entry, {}, cfg);
}

PipelineResult
runPipelineWithArg(ir::Module *m, const std::string &entry,
                   uint64_t arg, core::FixerConfig cfg)
{
    return runPipelineImpl(m, entry, {arg}, cfg);
}

std::unique_ptr<Module>
generateProgram(uint64_t seed)
{
    Rng rng(seed);
    auto m = std::make_unique<Module>("random-" +
                                      std::to_string(seed));
    IRBuilder b(m.get());

    // A few leaf helpers writing through their pointer parameter,
    // plus wrapper helpers one frame above them (so interprocedural
    // fixes at hoist level 2 arise in random programs too).
    std::vector<Function *> helpers;
    uint64_t nhelpers = 1 + rng.nextBelow(3);
    for (uint64_t h = 0; h < nhelpers; h++) {
        Function *f = m->addFunction(
            "helper" + std::to_string(h), Type::Void);
        Argument *p = f->addParam(Type::Ptr, "p");
        Argument *v = f->addParam(Type::Int, "v");
        b.setInsertPoint(f->addBlock("entry"));
        b.setLoc("rand.c", (int)(100 + h));
        uint64_t writes = 1 + rng.nextBelow(2);
        for (uint64_t w = 0; w < writes; w++) {
            Instruction *gp =
                b.createGep(p, b.getInt(rng.nextBelow(4) * 8));
            b.createStore(v, gp, 8);
            if (rng.chance(0.3))
                b.createFlush(gp, FlushKind::Clwb);
        }
        b.createRet();
        helpers.push_back(f);
    }
    uint64_t nleaves = helpers.size();
    for (uint64_t h = 0; h < nleaves; h++) {
        if (!rng.chance(0.5))
            continue;
        Function *f = m->addFunction(
            "wrapper" + std::to_string(h), Type::Void);
        Argument *p = f->addParam(Type::Ptr, "p");
        Argument *v = f->addParam(Type::Int, "v");
        b.setInsertPoint(f->addBlock("entry"));
        b.setLoc("rand.c", (int)(150 + h));
        b.createCall(helpers[h],
                     {b.createGep(p, b.getInt(rng.nextBelow(3) * 8)),
                      b.createAdd(v, b.getInt(1))});
        b.createRet();
        helpers.push_back(f);
    }

    Function *main_fn = m->addFunction("main", Type::Void);
    b.setInsertPoint(main_fn->addBlock("entry"));
    b.setLoc("rand.c", 1);
    Instruction *pm1 = b.createPmMap("rp1", 512);
    Instruction *pm2 = b.createPmMap("rp2", 512);
    Instruction *vol = b.createAlloca(256);

    auto random_ptr = [&]() -> Instruction * {
        uint64_t off = rng.nextBelow(16) * 8;
        switch (rng.nextBelow(3)) {
          case 0:
            return b.createGep(pm1, b.getInt(off));
          case 1:
            return b.createGep(pm2, b.getInt(off));
          default:
            return b.createGep(vol, b.getInt(off % 256));
        }
    };

    uint64_t actions = 8 + rng.nextBelow(20);
    int loop_count = 0;
    for (uint64_t i = 0; i < actions; i++) {
        b.setLoc("rand.c", (int)(10 + i));
        switch (rng.nextBelow(9)) {
          case 0:
          case 1: { // direct store, sometimes flushed/fenced
            Instruction *p = random_ptr();
            b.createStore(b.getInt(rng.nextBelow(1000)), p, 8);
            if (rng.chance(0.5))
                b.createFlush(p, rng.chance(0.2)
                                     ? FlushKind::Clflush
                                     : FlushKind::Clwb);
            if (rng.chance(0.4))
                b.createFence(FenceKind::Sfence);
            break;
          }
          case 2: { // helper call
            Function *h = helpers[rng.nextBelow(helpers.size())];
            b.createCall(
                h, {random_ptr(), b.getInt(rng.nextBelow(100))});
            break;
          }
          case 3: { // memcpy volatile -> PM or PM -> volatile
            uint64_t len = 8 * (1 + rng.nextBelow(12));
            if (rng.chance(0.6)) {
                b.createMemcpy(b.createGep(pm1, b.getInt(0)), vol,
                               b.getInt(len));
            } else {
                b.createMemcpy(vol, b.createGep(pm1, b.getInt(0)),
                               b.getInt(len));
            }
            break;
          }
          case 4: // stray flush
            b.createFlush(random_ptr(), FlushKind::Clwb);
            break;
          case 5: // fence
            b.createFence(rng.chance(0.2) ? FenceKind::Mfence
                                          : FenceKind::Sfence);
            break;
          case 6: // durability point
            b.createDurPoint("dp" + std::to_string(i));
            break;
          case 7: { // bounded store loop (multi-block control flow)
            int n = ++loop_count;
            BasicBlock *loop = main_fn->addBlock(
                "loop" + std::to_string(n));
            BasicBlock *body = main_fn->addBlock(
                "body" + std::to_string(n));
            BasicBlock *cont = main_fn->addBlock(
                "cont" + std::to_string(n));
            Instruction *iv = b.createAlloca(8);
            Instruction *base = b.createGep(
                rng.chance(0.5) ? pm1 : pm2,
                b.getInt(rng.nextBelow(56) * 8));
            uint64_t trips = 2 + rng.nextBelow(4);
            b.createStore(b.getInt(0), iv, 8);
            b.createBr(loop);
            b.setInsertPoint(loop);
            Instruction *iv_val = b.createLoad(iv, 8);
            b.createCondBr(b.createCmp(CmpPred::Ult, iv_val,
                                       b.getInt(trips)),
                           body, cont);
            b.setInsertPoint(body);
            b.createStore(
                b.createAdd(iv_val, b.getInt(7)),
                b.createGep(base, b.createMul(iv_val, b.getInt(8))),
                8);
            b.createStore(b.createAdd(iv_val, b.getInt(1)), iv, 8);
            b.createBr(loop);
            b.setInsertPoint(cont);
            break;
          }
          default: { // observable output
            Instruction *p = random_ptr();
            b.createPrint("o" + std::to_string(i),
                          b.createLoad(p, 8));
            break;
          }
        }
    }
    // Deterministic tail: make everything observable.
    b.setLoc("rand.c", 99);
    b.createFence(FenceKind::Sfence);
    b.createDurPoint("final");
    for (int i = 0; i < 4; i++) {
        b.createPrint("tail" + std::to_string(i),
                      b.createLoad(b.createGep(pm1, b.getInt(i * 8)),
                                   8));
    }
    b.createRet();
    verifyOrDie(*m);
    return m;
}

uint64_t
fnv1a64(const std::string &text)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
numbersVerdict(const std::vector<uint64_t> &values)
{
    std::string out;
    for (size_t i = 0; i < values.size(); i++) {
        out += format("%llu", (unsigned long long)values[i]);
        out += (i % 12 == 11 || i + 1 == values.size()) ? "\n" : " ";
    }
    return out;
}

std::string
runVerdict(const vm::RunResult &res, const vm::Vm &machine,
           const std::vector<uint64_t> &probe_steps)
{
    std::string out = format(
        "crashed=%d return=%llu steps=%llu sim_ns=%a outcome=%s\n",
        res.crashed, (unsigned long long)res.returnValue,
        (unsigned long long)res.steps, res.simNanos,
        vm::execOutcomeName(res.outcome));
    out += "diag=" + res.diag + "\n";
    out += format("vm.steps=%llu vm.sim_ns=%a\n",
                  (unsigned long long)machine.steps(),
                  machine.simNanos());
    out += format("outputs=%zu\n", machine.outputs().size());
    for (const vm::ProgramOutput &o : machine.outputs())
        out += format("  %s=%llu\n", o.label.c_str(),
                      (unsigned long long)o.value);
    out += format("probes=%zu\n", probe_steps.size());
    out += numbersVerdict(probe_steps);
    std::string trace = machine.trace().writeText();
    out += format("trace=%zu bytes fnv1a64=%016llx\n", trace.size(),
                  (unsigned long long)fnv1a64(trace));
    return out;
}

std::string
explorationVerdict(const pmcheck::ExplorationResult &res)
{
    std::string out = format(
        "durpoints=%llu steps=%llu clean=%llu visible_ops=%llu\n"
        "schedules planned=%llu executed=%llu degraded=%llu "
        "races=%llu\noutcomes=%zu\n",
        (unsigned long long)res.durPointsInRun,
        (unsigned long long)res.stepsInRun,
        (unsigned long long)res.cleanRunRecovered,
        (unsigned long long)res.visibleOpsInRun,
        (unsigned long long)res.schedulesPlanned,
        (unsigned long long)res.schedulesExecuted,
        (unsigned long long)res.schedulesDegraded,
        (unsigned long long)res.racesObserved, res.outcomes.size());
    // One token per outcome, eight to a line: kind (d = durpoint,
    // s = step, r = race, x = step and race), crash point, schedule,
    // recovered value, and '?' when unverified.
    for (size_t i = 0; i < res.outcomes.size(); i++) {
        const pmcheck::CrashOutcome &o = res.outcomes[i];
        char kind = o.atStep ? (o.atRace ? 'x' : 's')
                             : (o.atRace ? 'r' : 'd');
        out += format("%c%llu@%llu=%llu%s", kind,
                      (unsigned long long)o.crashPoint,
                      (unsigned long long)o.scheduleId,
                      (unsigned long long)o.recovered,
                      o.unverified ? "?" : "");
        out += (i % 8 == 7 || i + 1 == res.outcomes.size()) ? "\n"
                                                            : " ";
    }
    return out;
}

namespace
{

const char *const verdictPath =
    HIPPO_SOURCE_DIR "/tests/golden/tree_walker_verdicts.txt";

/** The verdict file's sections by key. */
std::map<std::string, std::string>
readVerdicts()
{
    std::map<std::string, std::string> sections;
    std::ifstream in(verdictPath);
    std::string line, *cur = nullptr;
    while (std::getline(in, line)) {
        if (line.size() > 6 && line.rfind("== ", 0) == 0 &&
            line.compare(line.size() - 3, 3, " ==") == 0) {
            cur = &sections[line.substr(3, line.size() - 6)];
        } else if (cur) {
            *cur += line + "\n";
        }
    }
    return sections;
}

} // namespace

std::string
frozenVerdict(const std::string &key)
{
    static const std::map<std::string, std::string> sections =
        readVerdicts();
    auto it = sections.find(key);
    return it == sections.end() ? std::string() : it->second;
}

} // namespace hippo::test
