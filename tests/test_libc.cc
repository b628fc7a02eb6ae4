/**
 * @file
 * Guest libc tests: bounded malloc, tag-preserving memcpy/qsort, TLS,
 * and realloc rederivation.
 */

#include <gtest/gtest.h>

#include "libc/cstring.h"
#include "libc/malloc.h"
#include "libc/tls.h"
#include "test_util.h"

namespace cheri
{
namespace
{

using test::TestSystem;

class LibcCheri : public ::testing::Test
{
  protected:
    TestSystem sys{Abi::CheriAbi};
    GuestContext &ctx() { return *sys.ctx; }
    GuestMalloc heap{*sys.ctx};
};

TEST_F(LibcCheri, MallocReturnsBoundedNonVmmapCapability)
{
    GuestPtr p = heap.malloc(100);
    ASSERT_FALSE(p.isNull());
    ASSERT_TRUE(p.cap.tag());
    EXPECT_GE(p.cap.length(), 100u);
    EXPECT_LE(p.cap.length(), 128u) << "bounded near the request";
    EXPECT_FALSE(p.cap.hasPerms(PERM_SW_VMMAP))
        << "heap pointers must not manage mappings";
    EXPECT_FALSE(p.cap.hasPerms(PERM_EXECUTE));
    ctx().store<u64>(p, 0, 1);
    ctx().store<u64>(p, 92, 2);
    EXPECT_THROW(ctx().store<u64>(p, p.cap.length(), 3), CapTrap);
}

TEST_F(LibcCheri, MallocHeapPointerCannotUnmap)
{
    GuestPtr p = heap.malloc(64);
    EXPECT_EQ(sys.kern.sysMunmap(*sys.proc, UserPtr::fromCap(p.cap),
                                 pageSize)
                  .error,
              E_PROT);
}

TEST_F(LibcCheri, AdjacentAllocationsDoNotOverlap)
{
    std::vector<GuestPtr> ptrs;
    for (int i = 0; i < 64; ++i)
        ptrs.push_back(heap.malloc(48));
    for (size_t i = 0; i < ptrs.size(); ++i) {
        for (size_t j = i + 1; j < ptrs.size(); ++j) {
            u64 ai = ptrs[i].cap.base();
            u64 ti = static_cast<u64>(ptrs[i].cap.top());
            u64 aj = ptrs[j].cap.base();
            u64 tj = static_cast<u64>(ptrs[j].cap.top());
            EXPECT_TRUE(ti <= aj || tj <= ai)
                << "capability granules must not alias";
        }
    }
}

TEST_F(LibcCheri, FreeRejectsInteriorPointer)
{
    GuestPtr p = heap.malloc(64);
    EXPECT_FALSE(heap.free(p + 8)) << "realloc-misuse class";
    EXPECT_TRUE(heap.free(p));
    EXPECT_FALSE(heap.free(p)) << "double free detected by metadata";
}

TEST_F(LibcCheri, FreeReusesStorage)
{
    GuestPtr a = heap.malloc(64);
    u64 addr = a.addr();
    heap.free(a);
    GuestPtr b = heap.malloc(64);
    EXPECT_EQ(b.addr(), addr) << "size-class free list reuse";
}

TEST_F(LibcCheri, ReallocPreservesDataAndTags)
{
    GuestPtr p = heap.malloc(64);
    ctx().store<u64>(p, 0, 0x1234);
    GuestPtr inner = heap.malloc(32);
    ctx().storePtr(p, 16, inner); // a pointer stored in the block
    GuestPtr q = heap.realloc(p, 256);
    ASSERT_FALSE(q.isNull());
    EXPECT_EQ(ctx().load<u64>(q, 0), 0x1234u);
    GuestPtr moved = ctx().loadPtr(q, 16);
    EXPECT_TRUE(moved.cap.tag()) << "realloc must move tags";
    EXPECT_EQ(moved.cap, inner.cap);
    EXPECT_GE(q.cap.length(), 256u);
}

TEST_F(LibcCheri, CallocZeroes)
{
    GuestPtr p = heap.calloc(8, 16);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(ctx().load<u64>(p, i * 8), 0u);
}

TEST_F(LibcCheri, LargeAllocationPaddedForRepresentability)
{
    u64 want = (u64{1} << 20) + 7;
    GuestPtr p = heap.malloc(want);
    ASSERT_FALSE(p.isNull());
    EXPECT_GE(p.cap.length(), want);
    EXPECT_TRUE(compress::boundsExactlyRepresentable(p.cap.base(),
                                                     p.cap.length()));
}

TEST_F(LibcCheri, MemcpyPreservesTags)
{
    GuestPtr src = heap.malloc(128);
    GuestPtr dst = heap.malloc(128);
    GuestPtr inner = heap.malloc(16);
    ctx().store<u64>(src, 0, 42);
    ctx().storePtr(src, 16, inner);
    gMemcpy(ctx(), dst, src, 128);
    EXPECT_EQ(ctx().load<u64>(dst, 0), 42u);
    EXPECT_TRUE(ctx().loadPtr(dst, 16).cap.tag());
    // The byte-wise loop, by contrast, strips the tag.
    gMemcpyBytes(ctx(), dst, src, 128);
    EXPECT_FALSE(ctx().loadPtr(dst, 16).cap.tag());
    EXPECT_EQ(ctx().load<u64>(dst, 0), 42u);
}

TEST_F(LibcCheri, MemmoveHandlesOverlapWithTags)
{
    GuestPtr buf = heap.malloc(256);
    GuestPtr inner = heap.malloc(16);
    ctx().storePtr(buf, 0, inner);
    ctx().store<u64>(buf, 16, 0xAA);
    // Shift the block up by 16 (overlapping).
    gMemmove(ctx(), buf + 16, buf, 128);
    EXPECT_TRUE(ctx().loadPtr(buf, 16).cap.tag());
    EXPECT_EQ(ctx().loadPtr(buf, 16).cap, inner.cap);
    EXPECT_EQ(ctx().load<u64>(buf, 32), 0xAAu);
}

TEST_F(LibcCheri, StringRoutines)
{
    GuestPtr a = heap.malloc(64);
    GuestPtr b = heap.malloc(64);
    const char hello[] = "hello";
    ctx().write(a, hello, sizeof(hello));
    EXPECT_EQ(gStrlen(ctx(), a), 5u);
    gStrcpy(ctx(), b, a);
    EXPECT_EQ(gStrcmp(ctx(), a, b), 0);
    ctx().store<char>(b, 0, 'x');
    EXPECT_LT(gStrcmp(ctx(), a, b), 0);
    EXPECT_NE(gMemcmp(ctx(), a, b, 5), 0);
}

TEST_F(LibcCheri, QsortSortsIntegers)
{
    const u64 n = 200;
    GuestPtr arr = heap.malloc(n * 8);
    for (u64 i = 0; i < n; ++i)
        ctx().store<u64>(arr, static_cast<s64>(i * 8), (i * 7919) % 1000);
    gQsort(ctx(), arr, n, 8,
           [](GuestContext &c, const GuestPtr &x, const GuestPtr &y) {
               u64 a = c.load<u64>(x), b = c.load<u64>(y);
               return a < b ? -1 : (a > b ? 1 : 0);
           });
    for (u64 i = 1; i < n; ++i) {
        EXPECT_LE(ctx().load<u64>(arr, static_cast<s64>((i - 1) * 8)),
                  ctx().load<u64>(arr, static_cast<s64>(i * 8)));
    }
}

TEST_F(LibcCheri, QsortPreservesPointerTags)
{
    // Sort an array of *pointers* by their target values: the paper's
    // qsort extension keeps capabilities alive through swaps.
    const u64 n = 32;
    GuestPtr arr = heap.malloc(n * capSize);
    for (u64 i = 0; i < n; ++i) {
        GuestPtr cell = heap.malloc(8);
        ctx().store<u64>(cell, 0, (n - i) * 10);
        ctx().storePtr(arr, static_cast<s64>(i * capSize), cell);
    }
    gQsort(ctx(), arr, n, capSize,
           [](GuestContext &c, const GuestPtr &x, const GuestPtr &y) {
               u64 a = c.load<u64>(c.loadPtr(x));
               u64 b = c.load<u64>(c.loadPtr(y));
               return a < b ? -1 : (a > b ? 1 : 0);
           });
    u64 prev = 0;
    for (u64 i = 0; i < n; ++i) {
        GuestPtr cell = ctx().loadPtr(arr, static_cast<s64>(i * capSize));
        ASSERT_TRUE(cell.cap.tag()) << "tag lost during sort at " << i;
        u64 v = ctx().load<u64>(cell);
        EXPECT_GE(v, prev);
        prev = v;
    }
}

TEST_F(LibcCheri, TlsBlocksBoundedPerModule)
{
    GuestTls tls(ctx());
    GuestPtr block = tls.moduleBlock(1, 256);
    ASSERT_TRUE(block.cap.tag());
    EXPECT_GE(block.cap.length(), 256u);
    EXPECT_FALSE(block.cap.hasPerms(PERM_SW_VMMAP));
    GuestPtr v = tls.var(1, 64);
    // Per-object bounds: the variable pointer still spans the block.
    EXPECT_EQ(v.cap.base(), block.cap.base());
    ctx().store<u64>(v, 0, 11);
    EXPECT_EQ(ctx().load<u64>(block, 64), 11u);
    // Distinct modules get distinct blocks.
    GuestPtr other = tls.moduleBlock(2, 64);
    EXPECT_NE(other.cap.base(), block.cap.base());
    EXPECT_EQ(tls.moduleCount(), 2u);
}

TEST_F(LibcCheri, MallocStats)
{
    EXPECT_EQ(heap.liveAllocations(), 0u);
    GuestPtr a = heap.malloc(100);
    GuestPtr b = heap.malloc(200);
    EXPECT_EQ(heap.liveAllocations(), 2u);
    EXPECT_EQ(heap.liveBytes(), 300u);
    EXPECT_EQ(heap.allocSize(a), 100u);
    heap.free(a);
    heap.free(b);
    EXPECT_EQ(heap.liveAllocations(), 0u);
    EXPECT_EQ(heap.liveBytes(), 0u);
    EXPECT_EQ(heap.totalAllocations(), 2u);
}

// mips64 allocator: same logic, integer pointers, no protection.
TEST(LibcMips, MallocWorksWithoutBounds)
{
    TestSystem sys(Abi::Mips64);
    GuestMalloc heap(*sys.ctx);
    GuestPtr p = heap.malloc(64);
    ASSERT_FALSE(p.cap.tag());
    sys.ctx->store<u64>(p, 0, 1);
    // Overflow into the neighbouring allocation goes undetected.
    GuestPtr q = heap.malloc(64);
    EXPECT_NO_THROW(sys.ctx->store<u64>(p, 96, 0xBAD));
    (void)q;
}

} // namespace
} // namespace cheri
