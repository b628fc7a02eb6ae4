/**
 * @file
 * ptrace tests: cross-principal debugging, capability inspection, and
 * injection-by-rederivation (paper section 3, "Debugging").
 */

#include <gtest/gtest.h>

#include "test_util.h"

namespace cheri
{
namespace
{

using test::TestSystem;

class PtraceTest : public ::testing::Test
{
  protected:
    PtraceTest()
    {
        debugger = sys.kern.spawn(Abi::CheriAbi, "gdb");
        SysResult r = sys.kern.sysPtrace(*debugger, PtReq::Attach,
                                         sys.proc->pid(), 0, nullptr, 0);
        EXPECT_EQ(r.error, E_OK);
    }

    TestSystem sys{Abi::CheriAbi};
    Process *debugger = nullptr;
    GuestContext &ctx() { return *sys.ctx; }
    Process &target() { return *sys.proc; }
    Kernel &kern() { return sys.kern; }
};

TEST_F(PtraceTest, AttachRequiredForAccess)
{
    Process *stranger = kern().spawn(Abi::CheriAbi, "stranger");
    u8 b;
    EXPECT_EQ(kern()
                  .sysPtrace(*stranger, PtReq::ReadData, target().pid(),
                             target().stackCap.address() - 8, &b, 1)
                  .error,
              E_PERM);
}

TEST_F(PtraceTest, ReadsTargetMemory)
{
    GuestPtr buf = ctx().mmap(pageSize);
    ctx().store<u64>(buf, 0, 0xABCD1234);
    u64 got = 0;
    ASSERT_EQ(kern()
                  .sysPtrace(*debugger, PtReq::ReadData, target().pid(),
                             buf.addr(), &got, 8)
                  .error,
              E_OK);
    EXPECT_EQ(got, 0xABCD1234u);
}

TEST_F(PtraceTest, InspectsTargetCapabilities)
{
    GuestPtr buf = ctx().mmap(pageSize);
    ctx().storePtr(buf, 0, buf);
    Capability seen;
    ASSERT_EQ(kern()
                  .ptraceReadCap(*debugger, target().pid(), buf.addr(),
                                 &seen)
                  .error,
              E_OK);
    EXPECT_TRUE(seen.tag());
    EXPECT_EQ(seen.base(), buf.cap.base());
    EXPECT_EQ(seen.perms(), buf.cap.perms());
}

TEST_F(PtraceTest, RawWriteCannotForgeCapability)
{
    GuestPtr buf = ctx().mmap(pageSize);
    ctx().storePtr(buf, 0, buf);
    // Debugger pokes bytes over the stored capability.
    u64 evil = 0x414141414141;
    ASSERT_EQ(kern()
                  .sysPtrace(*debugger, PtReq::WriteData, target().pid(),
                             buf.addr(), &evil, 8)
                  .error,
              E_OK);
    EXPECT_FALSE(ctx().loadPtr(buf, 0).cap.tag())
        << "byte pokes must strip tags, like any data store";
}

TEST_F(PtraceTest, InjectedCapabilityRederivedFromTargetRoot)
{
    GuestPtr buf = ctx().mmap(pageSize);
    // The debugger asks for a capability over part of the target heap.
    Capability wanted = target()
                            .as()
                            .rederivationRoot()
                            .setAddress(buf.addr())
                            .setBounds(64)
                            .value()
                            .withoutTag();
    ASSERT_EQ(kern()
                  .ptraceWriteCap(*debugger, target().pid(), buf.addr(),
                                  wanted)
                  .error,
              E_OK);
    GuestPtr injected = ctx().loadPtr(buf, 0);
    EXPECT_TRUE(injected.cap.tag());
    EXPECT_EQ(injected.cap.length(), 64u);
    // The target can use it.
    ctx().store<u64>(injected, 0, 1);
}

TEST_F(PtraceTest, InjectionBeyondTargetAuthorityFailsClosed)
{
    GuestPtr buf = ctx().mmap(pageSize);
    // Pattern claiming kernel-range bounds: must be refused.
    Capability evil = Capability::root()
                          .setAddress(AddressSpace::userTop + 0x1000)
                          .setBounds(0x1000)
                          .value()
                          .withoutTag();
    EXPECT_EQ(kern()
                  .ptraceWriteCap(*debugger, target().pid(), buf.addr(),
                                  evil)
                  .error,
              E_PROT);
}

TEST_F(PtraceTest, GetRegsExposesCapabilityState)
{
    GuestPtr buf = ctx().mmap(pageSize);
    target().regs().c[9] = buf.cap;
    ThreadRegs regs;
    ASSERT_EQ(kern().ptraceGetRegs(*debugger, target().pid(), &regs).error,
              E_OK);
    EXPECT_EQ(regs.c[9], buf.cap);
    EXPECT_TRUE(regs.pcc.tag());
}

TEST_F(PtraceTest, DetachRevokesAccess)
{
    ASSERT_EQ(kern()
                  .sysPtrace(*debugger, PtReq::Detach, target().pid(), 0,
                             nullptr, 0)
                  .error,
              E_OK);
    u8 b;
    EXPECT_EQ(kern()
                  .sysPtrace(*debugger, PtReq::ReadData, target().pid(),
                             0x10000, &b, 1)
                  .error,
              E_PERM);
}

TEST_F(PtraceTest, NonexistentTargetIsEsrch)
{
    u8 b;
    EXPECT_EQ(kern()
                  .sysPtrace(*debugger, PtReq::ReadData, 424242, 0, &b, 1)
                  .error,
              E_SRCH);
}

} // namespace
} // namespace cheri
