/**
 * @file
 * Virtual-memory syscall tests: the paper's mmap/munmap/shmat/shmdt
 * capability semantics (section 4, "Virtual-address management APIs").
 */

#include <gtest/gtest.h>

#include "test_util.h"

namespace cheri
{
namespace
{

using test::TestSystem;

class VmCheri : public test::SystemTest<::testing::Test>
{
  protected:
    VmCheri() : SystemTest(Abi::CheriAbi) {}
};

TEST_F(VmCheri, MmapReturnsBoundedVmmapCapability)
{
    UserPtr out;
    SysResult r = kern().sysMmap(proc(), UserPtr::null(), 0x3000,
                                 PROT_READ | PROT_WRITE,
                                 MAP_ANON | MAP_PRIVATE, &out);
    ASSERT_EQ(r.error, E_OK);
    ASSERT_TRUE(out.isCap);
    EXPECT_TRUE(out.cap.tag());
    EXPECT_EQ(out.cap.length(), 0x3000u);
    EXPECT_TRUE(out.cap.hasPerms(PERM_LOAD | PERM_STORE | PERM_SW_VMMAP));
    EXPECT_FALSE(out.cap.hasPerms(PERM_EXECUTE));
}

TEST_F(VmCheri, MmapPermsFollowProt)
{
    UserPtr out;
    ASSERT_EQ(kern().sysMmap(proc(), UserPtr::null(), pageSize, PROT_READ,
                             MAP_ANON, &out).error,
              E_OK);
    EXPECT_TRUE(out.cap.hasPerms(PERM_LOAD));
    EXPECT_FALSE(out.cap.hasPerms(PERM_STORE));
}

TEST_F(VmCheri, MmapLargeRequestIsRepresentabilityPadded)
{
    u64 want = (u64{1} << 21) + pageSize; // not representable exactly
    UserPtr out;
    ASSERT_EQ(kern().sysMmap(proc(), UserPtr::null(), want,
                             PROT_READ | PROT_WRITE, MAP_ANON, &out)
                  .error,
              E_OK);
    EXPECT_GE(out.cap.length(), want);
    EXPECT_TRUE(compress::boundsExactlyRepresentable(out.cap.base(),
                                                     out.cap.length()));
}

TEST_F(VmCheri, MunmapRequiresVmmapPermission)
{
    GuestPtr p = ctx().mmap(pageSize);
    ASSERT_TRUE(p.cap.hasPerms(PERM_SW_VMMAP));
    // A data pointer (vmmap stripped) cannot unmap.
    auto data_only = p.cap.andPerms(permsData);
    ASSERT_TRUE(data_only.ok());
    EXPECT_EQ(kern().sysMunmap(proc(),
                               UserPtr::fromCap(data_only.value()),
                               pageSize)
                  .error,
              E_PROT);
    // An untagged pointer certainly cannot.
    EXPECT_EQ(kern().sysMunmap(proc(),
                               UserPtr::fromCap(p.cap.withoutTag()),
                               pageSize)
                  .error,
              E_PROT);
    // The original mmap capability can.
    EXPECT_EQ(kern().sysMunmap(proc(), UserPtr::fromCap(p.cap), pageSize)
                  .error,
              E_OK);
}

TEST_F(VmCheri, MunmapBeyondCapabilityBoundsRejected)
{
    GuestPtr p = ctx().mmap(pageSize);
    EXPECT_EQ(kern().sysMunmap(proc(), UserPtr::fromCap(p.cap),
                               4 * pageSize)
                  .error,
              E_PROT);
}

TEST_F(VmCheri, FixedMmapNeedsVmmapToReplace)
{
    GuestPtr p = ctx().mmap(4 * pageSize);
    // Fixed mapping over existing memory with a vmmap cap: allowed.
    UserPtr out;
    SysResult r = kern().sysMmap(proc(), UserPtr::fromCap(p.cap),
                                 pageSize, PROT_READ | PROT_WRITE,
                                 MAP_ANON | MAP_FIXED, &out);
    EXPECT_EQ(r.error, E_OK);
    // Same with a vmmap-stripped cap: EPROT.
    auto data_only = p.cap.andPerms(permsData);
    r = kern().sysMmap(proc(), UserPtr::fromCap(data_only.value()),
                       pageSize, PROT_READ | PROT_WRITE,
                       MAP_ANON | MAP_FIXED, &out);
    EXPECT_EQ(r.error, E_PROT);
    // Untagged fixed address over existing memory: also refused.
    r = kern().sysMmap(proc(), UserPtr::fromAddr(p.addr()), pageSize,
                       PROT_READ | PROT_WRITE, MAP_ANON | MAP_FIXED,
                       &out);
    EXPECT_EQ(r.error, E_PROT);
}

TEST_F(VmCheri, HintedMmapPreservesProvenance)
{
    GuestPtr reservation = ctx().mmap(16 * pageSize);
    ASSERT_EQ(kern().sysMunmap(proc(), UserPtr::fromCap(reservation.cap),
                               16 * pageSize)
                  .error,
              E_OK);
    UserPtr out;
    SysResult r = kern().sysMmap(proc(), UserPtr::fromCap(reservation.cap),
                                 pageSize, PROT_READ | PROT_WRITE,
                                 MAP_ANON | MAP_FIXED, &out);
    ASSERT_EQ(r.error, E_OK);
    // The result derives from the hint: bounded within it.
    EXPECT_GE(out.cap.base(), reservation.cap.base());
    EXPECT_LE(out.cap.top(), reservation.cap.top());
}

TEST_F(VmCheri, MprotectCannotExceedCapability)
{
    UserPtr out;
    ASSERT_EQ(kern().sysMmap(proc(), UserPtr::null(), pageSize, PROT_READ,
                             MAP_ANON, &out).error,
              E_OK);
    // The read-only capability cannot authorize making pages writable.
    EXPECT_EQ(kern().sysMprotect(proc(), out, pageSize,
                                 PROT_READ | PROT_WRITE)
                  .error,
              E_PROT);
    EXPECT_EQ(kern().sysMprotect(proc(), out, pageSize, PROT_READ).error,
              E_OK);
}

TEST_F(VmCheri, ShmatReturnsCapabilitySharedAcrossProcesses)
{
    SysResult id = kern().sysShmget(proc(), 1, 2 * pageSize);
    ASSERT_EQ(id.error, E_OK);
    UserPtr a_ptr;
    ASSERT_EQ(kern().sysShmat(proc(), static_cast<int>(id.value),
                              UserPtr::null(), &a_ptr)
                  .error,
              E_OK);
    EXPECT_TRUE(a_ptr.cap.tag());
    EXPECT_EQ(a_ptr.cap.length(), 2 * pageSize);

    SelfObject prog = test::trivialProgram();
    Process *other = kern().spawnExec(Abi::CheriAbi, prog, {"peer"});
    ASSERT_NE(other, nullptr);
    UserPtr b_ptr;
    ASSERT_EQ(kern().sysShmat(*other, static_cast<int>(id.value),
                              UserPtr::null(), &b_ptr)
                  .error,
              E_OK);

    GuestContext actx(kern(), proc());
    GuestContext bctx(kern(), *other);
    GuestPtr pa(a_ptr.cap), pb(b_ptr.cap);
    actx.store<u64>(pa, 0, 0xFEEDFACE);
    EXPECT_EQ(bctx.load<u64>(pb), 0xFEEDFACEu);
}

TEST_F(VmCheri, ShmdtRequiresVmmap)
{
    SysResult id = kern().sysShmget(proc(), 2, pageSize);
    UserPtr p;
    ASSERT_EQ(kern().sysShmat(proc(), static_cast<int>(id.value),
                              UserPtr::null(), &p)
                  .error,
              E_OK);
    auto stripped = p.cap.andPerms(permsData);
    EXPECT_EQ(kern().sysShmdt(proc(),
                              UserPtr::fromCap(stripped.value()))
                  .error,
              E_PROT);
    EXPECT_EQ(kern().sysShmdt(proc(), p).error, E_OK);
}

TEST_F(VmCheri, ShmatFixedNeedsVmmapCapability)
{
    SysResult id = kern().sysShmget(proc(), 3, pageSize);
    UserPtr out;
    EXPECT_EQ(kern().sysShmat(proc(), static_cast<int>(id.value),
                              UserPtr::fromAddr(0x55550000), &out)
                  .error,
              E_PROT);
}

TEST_F(VmCheri, MmapTraceReportsSyscallSource)
{
    struct Recorder : TraceSink
    {
        std::vector<std::pair<DeriveSource, Capability>> events;
        void
        derive(DeriveSource s, const Capability &c) override
        {
            events.emplace_back(s, c);
        }
    } rec;
    kern().setTrace(&rec);
    ctx().mmap(pageSize);
    kern().setTrace(nullptr);
    bool saw = false;
    for (auto &[s, c] : rec.events)
        saw |= s == DeriveSource::Syscall;
    EXPECT_TRUE(saw);
}

// Legacy semantics: no capability checks on management calls.
TEST(VmMips, MunmapByAddressWorks)
{
    TestSystem sys(Abi::Mips64);
    GuestPtr p = sys.ctx->mmap(pageSize);
    EXPECT_FALSE(p.cap.tag());
    EXPECT_EQ(sys.kern.sysMunmap(*sys.proc, UserPtr::fromAddr(p.addr()),
                                 pageSize)
                  .error,
              E_OK);
}

} // namespace
} // namespace cheri
