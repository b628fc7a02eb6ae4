/**
 * @file
 * Hybrid-mode tests: the CHERI C compiler's other mode, where only
 * __capability-annotated pointers are capabilities and everything else
 * is an integer checked against DDC (paper section 2).  The prior
 * work's limitation the paper fixes is visible here: hybrid code
 * retains DDC's whole-address-space ambient authority.
 */

#include <gtest/gtest.h>

#include "libc/malloc.h"
#include "test_util.h"

namespace cheri
{
namespace
{

using test::TestSystem;

class HybridTest : public test::SystemTest<::testing::Test>
{
  protected:
    HybridTest() : SystemTest(Abi::Hybrid) {}
};

TEST_F(HybridTest, DdcRetainsAmbientAuthority)
{
    EXPECT_TRUE(proc().ddc().tag());
    EXPECT_GE(proc().ddc().length(),
              AddressSpace::userTop - AddressSpace::userBase);
}

TEST_F(HybridTest, UnannotatedPointersAreUnchecked)
{
    GuestPtr region = ctx().mmap(2 * pageSize);
    // An integer pointer roams freely within mapped memory.
    GuestPtr p = ctx().ptrFromInt(region.addr());
    EXPECT_FALSE(p.cap.tag());
    EXPECT_NO_THROW(ctx().store<u64>(p, 0, 1));
    EXPECT_NO_THROW(ctx().load<u64>(p, pageSize + 64));
}

TEST_F(HybridTest, AnnotatedPointersAreEnforced)
{
    GuestPtr region = ctx().mmap(pageSize);
    GuestPtr plain = ctx().ptrFromInt(region.addr());
    // char * __capability q = (__cheri_tocap char *)p; with bounds.
    GuestPtr q = ctx().annotate(plain, 16);
    ASSERT_TRUE(q.cap.tag());
    EXPECT_EQ(q.cap.length(), 16u);
    EXPECT_NO_THROW(ctx().store<u64>(q, 8, 2));
    EXPECT_THROW(ctx().store<u64>(q, 16, 3), CapTrap)
        << "annotated pointers get CheriABI-grade checking";
}

TEST_F(HybridTest, SyscallHonorsAnnotatedCapability)
{
    s64 fd = ctx().open("/tmp/hybrid", O_RDWR | O_CREAT);
    ASSERT_GE(fd, 0);
    GuestPtr region = ctx().mmap(pageSize);
    GuestPtr small = ctx().annotate(region, 4);
    // Annotated, undersized buffer: the hybrid kernel checks it.
    SysResult r = kern().sysWrite(proc(), static_cast<int>(fd),
                                  ctx().toUser(small), 16);
    EXPECT_EQ(r.error, E_PROT);
    // The same request through a plain pointer sails through: the
    // prior-work gap CheriABI closes.
    SysResult r2 = kern().sysWrite(proc(), static_cast<int>(fd),
                                   UserPtr::fromAddr(region.addr()), 16);
    EXPECT_EQ(r2.error, E_OK);
}

TEST_F(HybridTest, MixedDataStructuresWork)
{
    GuestMalloc heap(ctx());
    // Heap pointers in hybrid mode are plain integers...
    GuestPtr rec = heap.malloc(64);
    EXPECT_FALSE(rec.cap.tag());
    // ...but an annotated view of a field enforces its bounds.
    GuestPtr field = ctx().annotate(rec + 16, 8);
    ctx().store<u64>(field, 0, 77);
    EXPECT_EQ(ctx().load<u64>(rec, 16), 77u);
    EXPECT_THROW(ctx().load<u64>(field, 8), CapTrap);
}

TEST_F(HybridTest, AnnotationCannotExceedDdc)
{
    // DDC covers userspace only; annotating a kernel address fails.
    GuestPtr kernel_ptr = ctx().ptrFromInt(AddressSpace::userTop + 64);
    GuestPtr q = ctx().annotate(kernel_ptr, 16);
    EXPECT_FALSE(q.cap.tag());
}

TEST_F(HybridTest, CheriAbiHasNoDdcToAnnotateFrom)
{
    TestSystem pure(Abi::CheriAbi);
    GuestMalloc heap(*pure.ctx);
    GuestPtr p = heap.malloc(32);
    // annotate() is the identity under CheriABI: the pointer already
    // carries (tighter) bounds.
    GuestPtr q = pure.ctx->annotate(p, 16);
    EXPECT_EQ(q.cap, p.cap);
}

} // namespace
} // namespace cheri
