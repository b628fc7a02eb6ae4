/**
 * @file
 * Tests for kernel threads (capability-register context switching,
 * per-thread bounded stacks) and file-backed mmap (demand paging from
 * the VFS, private-vs-shared semantics, msync write-back).
 */

#include <gtest/gtest.h>

#include "libc/malloc.h"
#include "libc/tls.h"
#include "test_util.h"

namespace cheri
{
namespace
{

using test::TestSystem;

// ---------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------

class ThreadTest : public test::SystemTest<::testing::TestWithParam<Abi>>
{
  protected:
    ThreadTest() : SystemTest(GetParam()) {}
};

TEST_P(ThreadTest, CreateAndSwitch)
{
    EXPECT_EQ(proc().threadCount(), 1u);
    SysResult r = kern().sysThrNew(proc());
    ASSERT_EQ(r.error, E_OK);
    u64 tid = r.value;
    EXPECT_EQ(proc().threadCount(), 2u);
    u64 main_sp = proc().regs().stack().address();
    ASSERT_EQ(kern().sysThrSwitch(proc(), tid).error, E_OK);
    EXPECT_EQ(proc().currentTid(), tid);
    EXPECT_NE(proc().regs().stack().address(), main_sp)
        << "the new thread runs on its own stack";
    ASSERT_EQ(kern().sysThrSwitch(proc(), 0).error, E_OK);
    EXPECT_EQ(proc().regs().stack().address(), main_sp);
}

TEST_P(ThreadTest, RegisterStatePreservedAcrossSwitches)
{
    SysResult r = kern().sysThrNew(proc());
    ASSERT_EQ(r.error, E_OK);
    u64 tid = r.value;
    GuestPtr buf = ctx().mmap(pageSize);
    proc().regs().c[6] = buf.cap; // thread 0's state
    proc().regs().x[7] = 111;
    ASSERT_EQ(kern().sysThrSwitch(proc(), tid).error, E_OK);
    // The new thread has its own register file.
    proc().regs().x[7] = 222;
    proc().regs().c[6] = Capability();
    ASSERT_EQ(kern().sysThrSwitch(proc(), 0).error, E_OK);
    EXPECT_EQ(proc().regs().x[7], 111u);
    EXPECT_EQ(proc().regs().c[6].address(), buf.cap.address());
    if (GetParam() == Abi::CheriAbi) {
        EXPECT_TRUE(proc().regs().c[6].tag())
            << "capability tags survive the kernel save/restore";
    }
    ASSERT_EQ(kern().sysThrSwitch(proc(), tid).error, E_OK);
    EXPECT_EQ(proc().regs().x[7], 222u);
}

TEST_P(ThreadTest, SwitchChargesContextSwitch)
{
    SysResult r = kern().sysThrNew(proc());
    u64 before = kern().contextSwitches();
    kern().sysThrSwitch(proc(), r.value);
    EXPECT_EQ(kern().contextSwitches(), before + 1);
}

TEST_P(ThreadTest, BadTidRejected)
{
    EXPECT_EQ(kern().sysThrSwitch(proc(), 42).error, E_SRCH);
    EXPECT_EQ(kern().sysThrExit(proc(), 42).error, E_SRCH);
}

TEST_P(ThreadTest, SelfExitOfSecondaryThreadIsZombieUntilSwitch)
{
    SysResult r = kern().sysThrNew(proc());
    ASSERT_EQ(r.error, E_OK);
    u64 tid = r.value;
    ASSERT_EQ(kern().sysThrSwitch(proc(), tid).error, E_OK);
    // Self-exit succeeds; the dead thread's register file lingers until
    // the next switch (the scheduler's next pick reaps it).
    ASSERT_EQ(kern().sysThrExit(proc(), tid).error, E_OK);
    EXPECT_FALSE(proc().exited());
    EXPECT_EQ(proc().threadCount(), 1u);
    EXPECT_EQ(kern().sysThrSwitch(proc(), tid).error, E_SRCH);
    ASSERT_EQ(kern().sysThrSwitch(proc(), 0).error, E_OK);
}

TEST_P(ThreadTest, SelfExitOfLastThreadExitsProcess)
{
    ASSERT_EQ(kern().sysThrExit(proc(), proc().currentTid()).error,
              E_OK);
    EXPECT_TRUE(proc().exited());
    EXPECT_EQ(proc().exitStatus(), 0);
}

TEST_P(ThreadTest, ExitedThreadCannotBeEntered)
{
    SysResult r = kern().sysThrNew(proc());
    ASSERT_EQ(kern().sysThrExit(proc(), r.value).error, E_OK);
    EXPECT_EQ(kern().sysThrSwitch(proc(), r.value).error, E_SRCH);
    EXPECT_EQ(proc().threadCount(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Abis, ThreadTest,
                         ::testing::Values(Abi::Mips64, Abi::CheriAbi),
                         [](const auto &info) {
                             return info.param == Abi::CheriAbi
                                        ? "cheriabi"
                                        : "mips64";
                         });

TEST(ThreadCheri, StacksAreMutuallyInaccessible)
{
    TestSystem sys(Abi::CheriAbi);
    Kernel &kern = sys.kern;
    Process &proc = *sys.proc;
    GuestContext &ctx = *sys.ctx;
    SysResult r = kern.sysThrNew(proc);
    ASSERT_EQ(r.error, E_OK);
    u64 main_sp = proc.regs().stack().address();
    ASSERT_EQ(kern.sysThrSwitch(proc, r.value).error, E_OK);
    const Capability &tsp = proc.regs().stack();
    ASSERT_TRUE(tsp.tag());
    // The thread's stack capability cannot reach the main stack.
    EXPECT_TRUE(tsp.checkAccess(main_sp - 64, 8, PERM_LOAD).has_value());
    // And it is bounded to its own mapping.
    StackFrame frame(ctx, 128, 1);
    GuestPtr local = frame.alloc(32);
    EXPECT_GE(local.addr(), tsp.base());
    ctx.store<u64>(local, 0, 5);
    EXPECT_THROW(ctx.load<u64>(local, 32), CapTrap);
}

TEST(ThreadCheri, PerThreadTlsBlocks)
{
    TestSystem sys(Abi::CheriAbi);
    GuestContext &ctx = *sys.ctx;
    // One TLS instance per thread, as the runtime would keep.
    GuestTls tls_main(ctx), tls_other(ctx);
    GuestPtr a = tls_main.moduleBlock(1, 64);
    GuestPtr b = tls_other.moduleBlock(1, 64);
    EXPECT_NE(a.cap.base(), b.cap.base());
    ctx.store<u64>(a, 0, 1);
    ctx.store<u64>(b, 0, 2);
    EXPECT_EQ(ctx.load<u64>(a), 1u);
    EXPECT_EQ(ctx.load<u64>(b), 2u);
}

// ---------------------------------------------------------------------
// File-backed mmap
// ---------------------------------------------------------------------

class MmapFdTest : public test::SystemTest<::testing::Test>
{
  protected:
    MmapFdTest() : SystemTest(Abi::CheriAbi) {}

    s64
    makeFile(const std::string &path, u64 bytes)
    {
        VNodeRef node = kern().vfs().createFile(path);
        node->data.resize(bytes);
        for (u64 i = 0; i < bytes; ++i)
            node->data[i] = static_cast<u8>(i * 3);
        return ctx().open(path, O_RDWR);
    }
};

TEST_F(MmapFdTest, MapsFileContents)
{
    s64 fd = makeFile("/tmp/mapped", 3 * pageSize);
    UserPtr out;
    SysResult r = kern().sysMmapFd(*sys.proc, static_cast<int>(fd), 0,
                                   3 * pageSize, PROT_READ, MAP_PRIVATE,
                                   &out);
    ASSERT_EQ(r.error, E_OK);
    ASSERT_TRUE(out.cap.tag());
    GuestPtr p(out.cap);
    EXPECT_EQ(ctx().load<u8>(p, 0), 0);
    EXPECT_EQ(ctx().load<u8>(p, 5), 15);
    EXPECT_EQ(ctx().load<u8>(p, static_cast<s64>(pageSize + 1)),
              static_cast<u8>((pageSize + 1) * 3));
}

TEST_F(MmapFdTest, DemandPagesOnlyTouchedPages)
{
    s64 fd = makeFile("/tmp/lazy", 8 * pageSize);
    UserPtr out;
    ASSERT_EQ(kern()
                  .sysMmapFd(*sys.proc, static_cast<int>(fd), 0,
                             8 * pageSize, PROT_READ, MAP_PRIVATE, &out)
                  .error,
              E_OK);
    u64 before = sys.proc->as().residentPages();
    ctx().load<u8>(GuestPtr(out.cap), 0);
    ctx().load<u8>(GuestPtr(out.cap), static_cast<s64>(5 * pageSize));
    EXPECT_EQ(sys.proc->as().residentPages(), before + 2)
        << "only the touched pages become resident";
}

TEST_F(MmapFdTest, OffsetMapping)
{
    s64 fd = makeFile("/tmp/offset", 4 * pageSize);
    UserPtr out;
    ASSERT_EQ(kern()
                  .sysMmapFd(*sys.proc, static_cast<int>(fd), pageSize,
                             pageSize, PROT_READ, MAP_PRIVATE, &out)
                  .error,
              E_OK);
    EXPECT_EQ(ctx().load<u8>(GuestPtr(out.cap), 0),
              static_cast<u8>(pageSize * 3));
}

TEST_F(MmapFdTest, PrivateWritesDoNotReachFile)
{
    s64 fd = makeFile("/tmp/private", pageSize);
    UserPtr out;
    ASSERT_EQ(kern()
                  .sysMmapFd(*sys.proc, static_cast<int>(fd), 0, pageSize,
                             PROT_READ | PROT_WRITE, MAP_PRIVATE, &out)
                  .error,
              E_OK);
    ctx().store<u8>(GuestPtr(out.cap), 0, 0xAA);
    VNodeRef node = kern().vfs().lookup("/tmp/private");
    EXPECT_EQ(node->data[0], 0) << "private mapping";
    // And msync on a private mapping is refused.
    EXPECT_EQ(kern().sysMsync(*sys.proc, out, pageSize).error, E_INVAL);
}

TEST_F(MmapFdTest, SharedMsyncWritesBack)
{
    s64 fd = makeFile("/tmp/shared", pageSize);
    UserPtr out;
    ASSERT_EQ(kern()
                  .sysMmapFd(*sys.proc, static_cast<int>(fd), 0, pageSize,
                             PROT_READ | PROT_WRITE, MAP_SHARED, &out)
                  .error,
              E_OK);
    ctx().store<u8>(GuestPtr(out.cap), 7, 0xBB);
    VNodeRef node = kern().vfs().lookup("/tmp/shared");
    EXPECT_NE(node->data[7], 0xBB) << "not yet flushed";
    SysResult r = kern().sysMsync(*sys.proc, out, pageSize);
    ASSERT_EQ(r.error, E_OK);
    EXPECT_EQ(r.value, 1u);
    EXPECT_EQ(node->data[7], 0xBB);
}

TEST_F(MmapFdTest, SharedWritableNeedsWritableFd)
{
    VNodeRef node = kern().vfs().createFile("/tmp/ro");
    node->data.resize(pageSize);
    s64 fd = ctx().open("/tmp/ro", O_RDONLY);
    UserPtr out;
    EXPECT_EQ(kern()
                  .sysMmapFd(*sys.proc, static_cast<int>(fd), 0, pageSize,
                             PROT_READ | PROT_WRITE, MAP_SHARED, &out)
                  .error,
              E_ACCES);
}

TEST_F(MmapFdTest, NonRegularFdRejected)
{
    int fds[2];
    ASSERT_EQ(kern().sysPipe(*sys.proc, fds).error, E_OK);
    UserPtr out;
    EXPECT_EQ(kern()
                  .sysMmapFd(*sys.proc, fds[0], 0, pageSize, PROT_READ,
                             MAP_PRIVATE, &out)
                  .error,
              E_BADF);
}

TEST_F(MmapFdTest, ShortFileZeroFillsTail)
{
    VNodeRef node = kern().vfs().createFile("/tmp/short");
    node->data = {1, 2, 3};
    s64 fd = ctx().open("/tmp/short", O_RDWR);
    UserPtr out;
    ASSERT_EQ(kern()
                  .sysMmapFd(*sys.proc, static_cast<int>(fd), 0, pageSize,
                             PROT_READ, MAP_PRIVATE, &out)
                  .error,
              E_OK);
    EXPECT_EQ(ctx().load<u8>(GuestPtr(out.cap), 2), 3);
    EXPECT_EQ(ctx().load<u8>(GuestPtr(out.cap), 3), 0);
    EXPECT_EQ(ctx().load<u8>(GuestPtr(out.cap), 100), 0);
}

} // namespace
} // namespace cheri
