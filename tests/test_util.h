/**
 * @file
 * Shared test scaffolding: a trivial SELF program image booted on a
 * fresh kernel, and interpreted guests admitted to its scheduler.
 */

#ifndef CHERI_TESTS_TEST_UTIL_H
#define CHERI_TESTS_TEST_UTIL_H

#include <map>
#include <stdexcept>

#include "guest/context.h"
#include "isa/assembler.h"
#include "libc/malloc.h"
#include "os/sched/sched.h"

namespace cheri::test
{

/** A minimal program image with a couple of symbols and GOT entries. */
inline SelfObject
trivialProgram()
{
    SelfObject prog;
    prog.name = "testprog";
    prog.textSize = 0x2000;
    prog.data.resize(64, 0);
    prog.bssSize = 64;
    prog.symbols = {
        {"global_counter", 0, 8, false},
        {"global_buf", 16, 32, false},
        {"main", 0, 0x100, true},
    };
    prog.relocs = {
        {RelocKind::CapGlobal, 0, 0, "global_counter"},
        {RelocKind::CapGlobal, 1, 0, "global_buf"},
        {RelocKind::CapFunction, 2, 0, "main"},
    };
    return prog;
}

/** The trivial program booted under @p abi, ready to run guest code. */
struct TestSystem : GuestSystem
{
    explicit TestSystem(Abi abi, const KernelConfig &cfg = {})
        : GuestSystem(abi, trivialProgram(), {"testprog", "arg1"},
                      {"HOME=/home"}, cfg)
    {
        if (!proc)
            throw std::runtime_error("execve failed in fixture");
    }
};

/** A gtest fixture (over @p Base) owning a TestSystem. */
template <typename Base>
class SystemTest : public Base
{
  protected:
    explicit SystemTest(Abi abi) : sys(abi) {}

    GuestContext &ctx() { return *sys.ctx; }
    Process &proc() { return *sys.proc; }
    Kernel &kern() { return sys.kern; }

    TestSystem sys;
};

struct SchedGuest
{
    Process *proc = nullptr;
    u64 code = 0;
    u64 data = 0;
    u64 codePages = 1;
};

/** Boot a process of @p abi with @p code_pages RWX code pages and a
 *  data page. */
inline SchedGuest
makeGuest(Kernel &kern, Abi abi, const char *name, u64 code_pages = 1)
{
    // The image points at its program, so the program outlives it.
    static std::map<std::string, SelfObject> programs;
    SelfObject &prog = programs[name];
    prog.name = name;
    Process *proc = kern.spawnExec(abi, prog, {name});
    if (!proc)
        throw std::runtime_error("execve failed");
    u64 code = proc->as().map(0, code_pages * pageSize,
                              PROT_READ | PROT_WRITE | PROT_EXEC,
                              MappingKind::Text);
    u64 data = proc->as().map(0, pageSize, PROT_READ | PROT_WRITE,
                              MappingKind::Data);
    return {proc, code, data, code_pages};
}

/** Admit @p g running @p prog under @p s (entry derivation per ABI),
 *  retiring at most @p step_limit steps (0 = unlimited). */
inline sched::ExecContext &
admitProgram(sched::Scheduler &s, SchedGuest &g, isa::Assembler &prog,
             u64 step_limit = 65536)
{
    prog.writeTo(g.proc->as(), g.code);
    sched::ExecContext &cx = s.context(*g.proc);
    if (g.proc->abi() == Abi::CheriAbi) {
        cx.interp->setEntry(g.proc->as()
                                .capForRange(g.code, g.codePages * pageSize,
                                             PROT_READ | PROT_EXEC, false)
                                .setAddress(g.code));
    } else {
        cx.interp->setEntry(Capability::fromAddress(g.code));
    }
    cx.stepLimit = step_limit;
    s.ready(cx);
    return cx;
}

} // namespace cheri::test

#endif // CHERI_TESTS_TEST_UTIL_H
