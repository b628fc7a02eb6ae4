/**
 * @file
 * execve and C-runtime startup tests: Figure 1's capability
 * installation into registers and memory, aux-vector discovery of
 * argv/envv, per-string bounds, PCC bounds, and the trampoline.
 */

#include <gtest/gtest.h>

#include "libc/crt.h"
#include "test_util.h"

namespace cheri
{
namespace
{

using test::TestSystem;

class ExecBothAbis : public test::SystemTest<::testing::TestWithParam<Abi>>
{
  protected:
    ExecBothAbis() : SystemTest(GetParam()) {}
};

TEST_P(ExecBothAbis, CrtFindsArgsThroughAuxv)
{
    CrtEnv env = crtInit(ctx());
    ASSERT_EQ(env.argc, 2);
    EXPECT_EQ(crtArg(ctx(), env, 0), "testprog");
    EXPECT_EQ(crtArg(ctx(), env, 1), "arg1");
    ASSERT_EQ(env.envv.size(), 1u);
    EXPECT_EQ(ctx().readString(env.envv[0]), "HOME=/home");
}

TEST_P(ExecBothAbis, StackCapInstalledInRegisterFile)
{
    EXPECT_EQ(proc().regs().stack().address(), proc().stackCap.address());
    EXPECT_EQ(proc().regs().c[regArgv].address(),
              proc().argvCap.address());
}

TEST_P(ExecBothAbis, ImageHasMainObject)
{
    ASSERT_FALSE(proc().image.objects.empty());
    EXPECT_EQ(proc().image.objects.front().object->name, "testprog");
    EXPECT_NE(proc().image.objects.front().textBase, 0u);
}

INSTANTIATE_TEST_SUITE_P(Abis, ExecBothAbis,
                         ::testing::Values(Abi::Mips64, Abi::CheriAbi),
                         [](const auto &info) {
                             return info.param == Abi::CheriAbi
                                        ? "cheriabi"
                                        : "mips64";
                         });

class ExecCheriAbi : public test::SystemTest<::testing::Test>
{
  protected:
    ExecCheriAbi() : SystemTest(Abi::CheriAbi) {}
};

TEST_F(ExecCheriAbi, ArgvStringsAreBoundedCapabilities)
{
    CrtEnv env = crtInit(ctx());
    GuestPtr arg0 = env.argv[0];
    EXPECT_TRUE(arg0.cap.tag());
    // Bounds cover exactly the string (plus NUL).
    EXPECT_EQ(arg0.cap.length(), std::string("testprog").size() + 1);
    // Reading within bounds works; reading past them traps.
    EXPECT_EQ(ctx().readString(arg0), "testprog");
    EXPECT_THROW(ctx().load<char>(arg0, 9), CapTrap);
}

TEST_F(ExecCheriAbi, ArgvStringsAreNotWritable)
{
    // argv strings live on the stack region; the per-string caps are
    // derived from the stack capability so they are writable in
    // CheriBSD too — but they must never carry vmmap.
    CrtEnv env = crtInit(ctx());
    EXPECT_FALSE(env.argv[0].cap.hasPerms(PERM_SW_VMMAP));
}

TEST_F(ExecCheriAbi, StackCapIsBoundedToStack)
{
    const Capability &sp = proc().regs().stack();
    ASSERT_TRUE(sp.tag());
    const Mapping *m = proc().as().findMapping(sp.address() - 16);
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->kind, MappingKind::Stack);
    EXPECT_GE(sp.base(), m->start);
    // The stack capability cannot reach the program image.
    u64 text = proc().image.objects.front().textBase;
    EXPECT_TRUE(
        sp.checkAccess(text, 1, PERM_LOAD).has_value());
}

TEST_F(ExecCheriAbi, PccBoundedToTextWithoutStorePerm)
{
    const Capability &pcc = proc().regs().pcc;
    ASSERT_TRUE(pcc.tag());
    EXPECT_TRUE(pcc.hasPerms(PERM_EXECUTE));
    EXPECT_FALSE(pcc.hasPerms(PERM_STORE));
    const LinkedObject &main_obj = proc().image.objects.front();
    EXPECT_EQ(pcc.base(), main_obj.textBase);
}

TEST_F(ExecCheriAbi, TrampolineIsTightlyBounded)
{
    const Capability &t = proc().trampolineCap;
    ASSERT_TRUE(t.tag());
    EXPECT_EQ(t.length(), pageSize);
    EXPECT_TRUE(t.hasPerms(PERM_EXECUTE));
    EXPECT_FALSE(t.hasPerms(PERM_STORE));
}

TEST_F(ExecCheriAbi, GuardPageBelowStackFaults)
{
    const Capability &sp = proc().regs().stack();
    u64 guard = sp.base() - 16;
    // Even a capability forged to point there (via the AS root, i.e.,
    // kernel-level authority) hits PROT_NONE.
    u8 b;
    CapCheck fault = proc().as().readBytes(guard, &b, 1);
    ASSERT_TRUE(fault.has_value());
    EXPECT_EQ(*fault, CapFault::PageFault);
}

TEST_F(ExecCheriAbi, ExecveReplacesPrincipal)
{
    u64 before = proc().as().principal();
    SelfObject prog2 = test::trivialProgram();
    ASSERT_EQ(sys.kern.execve(proc(), prog2, {"again"}, {}), E_OK);
    EXPECT_NE(proc().as().principal(), before);
    CrtEnv env = crtInit(*sys.ctx);
    EXPECT_EQ(env.argc, 1);
    EXPECT_EQ(crtArg(*sys.ctx, env, 0), "again");
}

TEST_F(ExecCheriAbi, MipsArgvElementsAreEightBytes)
{
    TestSystem legacy(Abi::Mips64);
    CrtEnv env = crtInit(*legacy.ctx);
    // Same logical contents, integer representation.
    EXPECT_EQ(env.argc, 2);
    EXPECT_FALSE(env.argv[0].cap.tag());
    EXPECT_EQ(legacy.ctx->readString(env.argv[0]), "testprog");
}

TEST_P(ExecBothAbis, BootUnderTooSmallFrameBudgetFailsCleanly)
{
    // Sixteen pages of initialized data cannot load into one frame and
    // one swap slot: the boot reports E_NOMEM instead of handing back
    // a process with a silently half-written image, and the half-made
    // process is reaped.
    KernelConfig cfg;
    cfg.frameCapacity = 1;
    cfg.swapSlotBudget = 1;
    SelfObject big = test::trivialProgram();
    big.data.assign(16 * pageSize, 0x5a);
    Kernel kern(cfg);
    int err = E_OK;
    Process *p = &proc();
    ASSERT_NO_THROW(p = kern.spawnExec(GetParam(), big, {"big"}, {}, &err));
    EXPECT_EQ(p, nullptr);
    EXPECT_EQ(err, E_NOMEM);
    EXPECT_EQ(kern.findProcess(1), nullptr);
    EXPECT_EQ(kern.physMem().liveFrames(), 0u);
    EXPECT_EQ(kern.memPressure().enomemErrors, 1u);
    EXPECT_FALSE(GuestSystem(GetParam(), big, {"big"}, {}, cfg));
}

} // namespace
} // namespace cheri
