/**
 * @file
 * Kernel tests: process lifecycle, capability-mediated copyin/copyout
 * (Figure 3 semantics), file-descriptor syscalls, select, and the
 * management interfaces.
 */

#include <gtest/gtest.h>

#include "libc/cstring.h"
#include "test_util.h"

namespace cheri
{
namespace
{

using test::TestSystem;

class KernelBothAbis : public test::SystemTest<::testing::TestWithParam<Abi>>
{
  protected:
    KernelBothAbis() : SystemTest(GetParam()) {}
};

TEST_P(KernelBothAbis, SpawnAssignsFreshPrincipals)
{
    Process *a = kern().spawn(GetParam(), "a");
    Process *b = kern().spawn(GetParam(), "b");
    EXPECT_NE(a->as().principal(), b->as().principal());
    EXPECT_NE(a->pid(), b->pid());
}

TEST_P(KernelBothAbis, CopyinRoundTrip)
{
    GuestPtr buf = ctx().mmap(pageSize);
    const char msg[] = "hello kernel";
    ctx().write(buf, msg, sizeof(msg));
    char out[sizeof(msg)] = {};
    ASSERT_EQ(kern().copyin(proc(), ctx().toUser(buf), out, sizeof(msg)),
              E_OK);
    EXPECT_STREQ(out, msg);
}

TEST_P(KernelBothAbis, CopyoutStripsTags)
{
    GuestPtr buf = ctx().mmap(pageSize);
    // Plant a valid capability in guest memory, then copyout over it.
    if (ctx().isCheri()) {
        ctx().storePtr(buf, 0, buf);
        EXPECT_TRUE(ctx().loadPtr(buf, 0).cap.tag());
    }
    u8 junk[capSize] = {1, 2, 3};
    ASSERT_EQ(kern().copyout(proc(), junk, ctx().toUser(buf), capSize),
              E_OK);
    if (ctx().isCheri()) {
        EXPECT_FALSE(ctx().loadPtr(buf, 0).cap.tag());
    }
}

TEST_P(KernelBothAbis, OpenWriteReadBack)
{
    s64 fd = ctx().open("/tmp/testfile", O_RDWR | O_CREAT);
    ASSERT_GE(fd, 0);
    GuestPtr buf = ctx().mmap(pageSize);
    const char data[] = "file contents 123";
    ctx().write(buf, data, sizeof(data));
    EXPECT_EQ(ctx().write(static_cast<int>(fd), buf, sizeof(data)),
              static_cast<s64>(sizeof(data)));
    ASSERT_EQ(kern().sysLseek(proc(), static_cast<int>(fd), 0, 0).error,
              E_OK);
    GuestPtr rbuf = ctx().mmap(pageSize);
    EXPECT_EQ(ctx().read(static_cast<int>(fd), rbuf, sizeof(data)),
              static_cast<s64>(sizeof(data)));
    EXPECT_EQ(ctx().readString(rbuf), data);
    EXPECT_EQ(ctx().close(static_cast<int>(fd)), E_OK);
}

TEST_P(KernelBothAbis, ReadIntoBadFdFails)
{
    GuestPtr buf = ctx().mmap(pageSize);
    EXPECT_EQ(ctx().read(42, buf, 8), -E_BADF);
}

TEST_P(KernelBothAbis, PipeCarriesData)
{
    int fds[2];
    ASSERT_EQ(kern().sysPipe(proc(), fds).error, E_OK);
    GuestPtr buf = ctx().mmap(pageSize);
    const char ping[] = "ping";
    ctx().write(buf, ping, sizeof(ping));
    EXPECT_EQ(ctx().write(fds[1], buf, sizeof(ping)),
              static_cast<s64>(sizeof(ping)));
    GuestPtr rbuf = ctx().mmap(pageSize);
    EXPECT_EQ(ctx().read(fds[0], rbuf, sizeof(ping)),
              static_cast<s64>(sizeof(ping)));
    EXPECT_EQ(ctx().readString(rbuf), ping);
}

TEST_P(KernelBothAbis, SelectReportsPipeReadiness)
{
    int fds[2];
    ASSERT_EQ(kern().sysPipe(proc(), fds).error, E_OK);
    GuestPtr sets = ctx().mmap(pageSize);
    GuestPtr rd = sets, wr = sets + 64, ex = sets + 128, tv = sets + 192;
    // Initially: read end not ready, write end ready.
    ctx().store<u64>(rd, 0, u64{1} << fds[0]);
    ctx().store<u64>(wr, 0, u64{1} << fds[1]);
    ctx().store<u64>(ex, 0, 0);
    s64 n = ctx().select(8, rd, wr, ex, tv);
    EXPECT_EQ(n, 1);
    EXPECT_EQ(ctx().load<u64>(rd), 0u);
    EXPECT_EQ(ctx().load<u64>(wr), u64{1} << fds[1]);
    // After writing, the read end becomes ready.
    GuestPtr buf = ctx().mmap(pageSize);
    ctx().store<u8>(buf, 0, 7);
    ASSERT_EQ(ctx().write(fds[1], buf, 1), 1);
    ctx().store<u64>(rd, 0, u64{1} << fds[0]);
    ctx().store<u64>(wr, 0, 0);
    n = ctx().select(8, rd, wr, ex, tv);
    EXPECT_EQ(n, 1);
    EXPECT_EQ(ctx().load<u64>(rd), u64{1} << fds[0]);
}

TEST_P(KernelBothAbis, ForkSharesFilesCowsMemory)
{
    s64 fd = ctx().open("/tmp/forkfile", O_RDWR | O_CREAT);
    ASSERT_GE(fd, 0);
    GuestPtr buf = ctx().mmap(pageSize);
    ctx().store<u64>(buf, 0, 0x1111);
    Process *child = kern().fork(proc());
    ASSERT_NE(child, nullptr);
    EXPECT_EQ(child->ppid(), proc().pid());
    EXPECT_NE(child->as().principal(), proc().as().principal());
    // Shared open-file description: offsets move together.
    GuestContext cctx(kern(), *child);
    EXPECT_NE(child->fd(static_cast<int>(fd)), nullptr);
    // COW: child sees the parent value, writes are private.
    EXPECT_EQ(cctx.load<u64>(buf), 0x1111u);
    cctx.store<u64>(buf, 0, 0x2222);
    EXPECT_EQ(ctx().load<u64>(buf), 0x1111u);
    EXPECT_EQ(cctx.load<u64>(buf), 0x2222u);
}

TEST_P(KernelBothAbis, WaitReapsZombie)
{
    Process *child = kern().fork(proc());
    u64 cpid = child->pid();
    EXPECT_EQ(kern().wait4(proc(), 0).error, E_CHILD);
    kern().exitProcess(*child, 7);
    SysResult r = kern().wait4(proc(), 0);
    EXPECT_EQ(r.error, E_OK);
    EXPECT_EQ(r.value, cpid);
    EXPECT_EQ(kern().findProcess(cpid), nullptr);
}

TEST_P(KernelBothAbis, GetpidGetppid)
{
    EXPECT_EQ(kern().sysGetpid(proc()).value, proc().pid());
    Process *child = kern().fork(proc());
    EXPECT_EQ(kern().sysGetppid(*child).value, proc().pid());
}

TEST_P(KernelBothAbis, SbrkExcludedOnlyForCheriAbi)
{
    SysResult r = kern().sysSbrk(proc(), 4096);
    if (GetParam() == Abi::CheriAbi) {
        // Excluded as a matter of principle (paper section 4).
        EXPECT_EQ(r.error, E_NOSYS);
    } else {
        ASSERT_EQ(r.error, E_OK);
        u64 old_brk = r.value;
        SysResult r2 = kern().sysSbrk(proc(), 0);
        EXPECT_EQ(r2.value, old_brk + 4096);
        // The grown heap is usable.
        u8 b = 7;
        EXPECT_FALSE(proc().as().writeBytes(old_brk, &b, 1).has_value());
    }
}

TEST_P(KernelBothAbis, SysctlExposesAddressNotCapability)
{
    GuestPtr buf = ctx().mmap(pageSize);
    SysResult r = kern().sysSysctl(proc(), "kern.text_addr",
                                   ctx().toUser(buf), 8);
    ASSERT_EQ(r.error, E_OK);
    u64 addr = ctx().load<u64>(buf);
    EXPECT_EQ(addr, proc().image.objects.front().textBase);
    if (ctx().isCheri()) {
        // The 8-byte write cannot have planted a tagged capability.
        EXPECT_FALSE(ctx().loadPtr(buf, 0).cap.tag());
    }
}

TEST_P(KernelBothAbis, GetcwdChecksBufferLength)
{
    GuestPtr buf = ctx().mmap(pageSize);
    EXPECT_GT(ctx().getcwd(buf, 64), 0);
    EXPECT_EQ(ctx().getcwd(buf, 2), -E_RANGE);
}

TEST_P(KernelBothAbis, CopyinstrStopsAtNul)
{
    GuestPtr buf = ctx().mmap(pageSize);
    const char s[] = "abc";
    ctx().write(buf, s, sizeof(s));
    std::string out;
    EXPECT_EQ(kern().copyinstr(proc(), ctx().toUser(buf), &out), E_OK);
    EXPECT_EQ(out, "abc");
}

INSTANTIATE_TEST_SUITE_P(Abis, KernelBothAbis,
                         ::testing::Values(Abi::Mips64, Abi::CheriAbi),
                         [](const auto &info) {
                             return info.param == Abi::CheriAbi
                                        ? "cheriabi"
                                        : "mips64";
                         });

// --- CheriABI-specific enforcement ---

class KernelCheriAbi : public test::SystemTest<::testing::Test>
{
  protected:
    KernelCheriAbi() : SystemTest(Abi::CheriAbi) {}
};

TEST_F(KernelCheriAbi, NonCapabilityCopyinRejected)
{
    GuestPtr buf = ctx().mmap(pageSize);
    u8 out[8];
    // A legacy integer pointer reaching the CheriABI syscall layer is
    // refused outright (paper: non-capability copyin returns errors).
    EXPECT_EQ(kern().copyin(proc(), UserPtr::fromAddr(buf.addr()), out, 8),
              E_PROT);
    EXPECT_EQ(kern().copyout(proc(), out, UserPtr::fromAddr(buf.addr()), 8),
              E_PROT);
}

TEST_F(KernelCheriAbi, KernelHonorsUserBounds)
{
    GuestPtr buf = ctx().mmap(pageSize);
    // Hand the kernel a deliberately narrow capability; the kernel must
    // not write past it even though the page could absorb more.
    auto narrow = buf.cap.setBounds(8);
    ASSERT_TRUE(narrow.ok());
    u8 data[16] = {};
    EXPECT_EQ(kern().copyout(proc(), data,
                             UserPtr::fromCap(narrow.value()), 16),
              E_PROT);
    EXPECT_EQ(kern().copyout(proc(), data,
                             UserPtr::fromCap(narrow.value()), 8),
              E_OK);
}

TEST_F(KernelCheriAbi, KernelHonorsUserPerms)
{
    GuestPtr buf = ctx().mmap(pageSize);
    auto ro = buf.cap.andPerms(permsRoData);
    ASSERT_TRUE(ro.ok());
    u8 data[8] = {};
    EXPECT_EQ(kern().copyout(proc(), data, UserPtr::fromCap(ro.value()), 8),
              E_PROT);
    EXPECT_EQ(kern().copyin(proc(), UserPtr::fromCap(ro.value()), data, 8),
              E_OK);
}

TEST_F(KernelCheriAbi, UntaggedCapabilityRejected)
{
    GuestPtr buf = ctx().mmap(pageSize);
    u8 data[8] = {};
    EXPECT_EQ(kern().copyin(proc(),
                            UserPtr::fromCap(buf.cap.withoutTag()), data,
                            8),
              E_PROT);
}

TEST_F(KernelCheriAbi, WriteSyscallWithUndersizedBufferFails)
{
    // The ttyname/humanize_number bug class: syscall asked to touch
    // more bytes than the buffer capability covers.
    s64 fd = ctx().open("/tmp/f", O_RDWR | O_CREAT);
    ASSERT_GE(fd, 0);
    GuestPtr buf = ctx().mmap(pageSize);
    auto small = buf.cap.setBounds(4);
    ASSERT_TRUE(small.ok());
    SysResult r = kern().sysWrite(proc(), static_cast<int>(fd),
                                  UserPtr::fromCap(small.value()), 16);
    EXPECT_EQ(r.error, E_PROT);
}

TEST_F(KernelCheriAbi, DdcIsNull)
{
    EXPECT_FALSE(proc().ddc().tag());
    EXPECT_TRUE(proc().ddc().isNull());
}

TEST_F(KernelCheriAbi, LegacyProcessKeepsDdc)
{
    TestSystem legacy(Abi::Mips64);
    EXPECT_TRUE(legacy.proc->ddc().tag());
    EXPECT_GE(legacy.proc->ddc().length(),
              AddressSpace::userTop - AddressSpace::userBase);
}

TEST_F(KernelCheriAbi, ContextSwitchPreservesCapRegisters)
{
    GuestPtr buf = ctx().mmap(pageSize);
    proc().regs().c[5] = buf.cap;
    kern().contextSwitchTo(proc());
    Process *other = kern().spawn(Abi::CheriAbi, "other");
    kern().contextSwitchTo(*other);
    kern().contextSwitchTo(proc());
    EXPECT_EQ(proc().regs().c[5], buf.cap);
    EXPECT_TRUE(proc().regs().c[5].tag());
    EXPECT_GE(kern().contextSwitches(), 3u);
}

} // namespace
} // namespace cheri
