/**
 * @file
 * kevent and ioctl tests: capability-preserving kernel storage of user
 * pointers, interior-pointer ioctls, the under-allocated-buffer bug
 * class, pty behaviour, and kernel-pointer exposure policy.
 */

#include <gtest/gtest.h>

#include "test_util.h"

namespace cheri
{
namespace
{

using test::TestSystem;

class EventsCheri : public test::SystemTest<::testing::Test>
{
  protected:
    EventsCheri() : SystemTest(Abi::CheriAbi) {}
};

TEST_F(EventsCheri, KeventReturnsUdataCapabilityIntact)
{
    int fds[2];
    ASSERT_EQ(kern().sysPipe(proc(), fds).error, E_OK);
    GuestPtr session = ctx().mmap(pageSize); // "session object"
    KEvent reg;
    reg.ident = fds[0];
    reg.filter = KFilter::Read;
    reg.udata = session.cap;
    ASSERT_EQ(kern().sysKevent(proc(), {reg}, nullptr, 0).error, E_OK);

    // Make the pipe readable, then harvest.
    GuestPtr b = ctx().mmap(64);
    ctx().store<u8>(b, 0, 1);
    ASSERT_EQ(ctx().write(fds[1], b, 1), 1);
    std::vector<KEvent> events;
    SysResult r = kern().sysKevent(proc(), {}, &events, 8);
    ASSERT_EQ(r.error, E_OK);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].ident, fds[0]);
    // The pointer the kernel held comes back tagged and fully bounded:
    // kernel structures store capabilities (paper section 4).
    EXPECT_TRUE(events[0].udata.tag());
    EXPECT_EQ(events[0].udata, session.cap);
}

TEST_F(EventsCheri, KeventOnBadFdFails)
{
    KEvent reg;
    reg.ident = 123;
    EXPECT_EQ(kern().sysKevent(proc(), {reg}, nullptr, 0).error, E_BADF);
}

TEST_F(EventsCheri, UserFilterAlwaysFires)
{
    KEvent reg;
    reg.ident = 0;
    reg.filter = KFilter::User;
    std::vector<KEvent> events;
    ASSERT_EQ(kern().sysKevent(proc(), {reg}, &events, 8).error, E_OK);
    EXPECT_EQ(events.size(), 1u);
}

TEST_F(EventsCheri, IoctlFlatStructOnPty)
{
    auto [master, slave] = Vfs::makePty();
    auto of = std::make_shared<OpenFile>();
    of->node = slave;
    of->flags = O_RDWR;
    int fd = proc().allocFd(of);
    GuestPtr arg = ctx().mmap(pageSize);
    EXPECT_EQ(kern().sysIoctl(proc(), fd, TIOCGETA_SIM,
                              ctx().toUser(arg))
                  .error,
              E_OK);
    EXPECT_EQ(ctx().load<u8>(arg), 1);
    // Not a tty:
    s64 file_fd = ctx().open("/tmp/notatty", O_RDWR | O_CREAT);
    EXPECT_EQ(kern().sysIoctl(proc(), static_cast<int>(file_fd),
                              TIOCGETA_SIM, ctx().toUser(arg))
                  .error,
              E_NOTTY);
}

TEST_F(EventsCheri, IoctlInteriorPointerFollowed)
{
    auto [master, slave] = Vfs::makePty();
    auto of = std::make_shared<OpenFile>();
    of->node = slave;
    of->flags = O_RDWR;
    int fd = proc().allocFd(of);
    // struct { u64 len; pad; cap buf } with an adequate buffer.
    GuestPtr arg = ctx().mmap(pageSize);
    GuestPtr name_buf = ctx().mmap(64);
    ctx().store<u64>(arg, 0, 64);
    ctx().storePtr(arg, 16, name_buf);
    ASSERT_EQ(kern().sysIoctl(proc(), fd, FIODGNAME_SIM,
                              ctx().toUser(arg))
                  .error,
              E_OK);
    EXPECT_EQ(ctx().readString(name_buf), "pty:s");
}

TEST_F(EventsCheri, IoctlUnderallocatedBufferCaught)
{
    // The FreeBSD DHCP-client bug: the length field *claims* more than
    // the buffer capability actually covers.  mips64 kernels overwrote
    // adjacent memory; CheriABI returns EPROT from the kernel's
    // copyout through the interior capability.
    auto [master, slave] = Vfs::makePty();
    auto of = std::make_shared<OpenFile>();
    of->node = slave;
    of->flags = O_RDWR;
    int fd = proc().allocFd(of);
    GuestPtr arg = ctx().mmap(pageSize);
    GuestPtr big = ctx().mmap(64);
    auto tiny = big.cap.setBounds(2); // under-allocated!
    ctx().store<u64>(arg, 0, 64);     // claims 64 bytes
    ctx().storePtr(arg, 16, GuestPtr{tiny.value()});
    EXPECT_EQ(kern().sysIoctl(proc(), fd, FIODGNAME_SIM,
                              ctx().toUser(arg))
                  .error,
              E_PROT);
}

TEST_F(EventsCheri, IoctlKernelPointerExposedAsAddressOnly)
{
    s64 fd = ctx().open("/tmp/obj", O_RDWR | O_CREAT);
    GuestPtr out = ctx().mmap(pageSize);
    ASSERT_EQ(kern().sysIoctl(proc(), static_cast<int>(fd),
                              KINFO_ADDR_SIM, ctx().toUser(out))
                  .error,
              E_OK);
    u64 kva = ctx().load<u64>(out);
    EXPECT_GE(kva, 0xC000000000u);
    EXPECT_FALSE(ctx().loadPtr(out, 0).cap.tag())
        << "no kernel capability may leak to userspace";
}

TEST_F(EventsCheri, PtyEchoPath)
{
    // Figure 3's scenario: a buffer capability travels through the
    // file-descriptor layer into the pseudo-terminal.
    auto [master, slave] = Vfs::makePty();
    auto mof = std::make_shared<OpenFile>();
    mof->node = master;
    mof->flags = O_RDWR;
    auto sof = std::make_shared<OpenFile>();
    sof->node = slave;
    sof->flags = O_RDWR;
    int mfd = proc().allocFd(mof);
    int sfd = proc().allocFd(sof);
    GuestPtr buf = ctx().mmap(pageSize);
    const char line[] = "echo me\n";
    ctx().write(buf, line, sizeof(line) - 1);
    ASSERT_EQ(ctx().write(mfd, buf, sizeof(line) - 1),
              static_cast<s64>(sizeof(line) - 1));
    GuestPtr rbuf = ctx().mmap(pageSize);
    ASSERT_EQ(ctx().read(sfd, rbuf, 64),
              static_cast<s64>(sizeof(line) - 1));
    EXPECT_EQ(ctx().readString(rbuf).substr(0, 7), "echo me");
}

// Legacy ABI comparison: the under-allocated ioctl goes *undetected*.
TEST(EventsMips, IoctlUnderallocatedBufferUndetected)
{
    TestSystem sys(Abi::Mips64);
    GuestContext &ctx = *sys.ctx;
    auto [master, slave] = Vfs::makePty();
    auto of = std::make_shared<OpenFile>();
    of->node = slave;
    of->flags = O_RDWR;
    int fd = sys.proc->allocFd(of);
    GuestPtr arg = ctx.mmap(pageSize);
    GuestPtr big = ctx.mmap(64);
    // mips64 layout: { u64 len; u64 buf_addr }.  The "2-byte buffer" is
    // a fiction the kernel cannot see.
    ctx.store<u64>(arg, 0, 64);
    ctx.store<u64>(arg, 8, big.addr());
    EXPECT_EQ(sys.kern.sysIoctl(*sys.proc, fd, FIODGNAME_SIM,
                                ctx.toUser(arg))
                  .error,
              E_OK)
        << "legacy kernel happily writes past the intended 2 bytes";
}

} // namespace
} // namespace cheri
