/**
 * @file
 * Guest execution layer tests: per-ABI access checking, stack frames
 * with bounded locals, pointer loads/stores, and the integer-provenance
 * idiom.
 */

#include <gtest/gtest.h>

#include "test_util.h"

namespace cheri
{
namespace
{

using test::TestSystem;

TEST(Guest, CheriOutOfBoundsLoadTraps)
{
    TestSystem sys(Abi::CheriAbi);
    GuestPtr p = sys.ctx->mmap(pageSize);
    auto narrow = p.cap.setBounds(16);
    GuestPtr q{narrow.value()};
    EXPECT_NO_THROW(sys.ctx->load<u64>(q, 8));
    EXPECT_THROW(sys.ctx->load<u64>(q, 16), CapTrap);
    EXPECT_THROW(sys.ctx->load<u64>(q, -8), CapTrap);
}

TEST(Guest, MipsOutOfBoundsLoadSucceedsWithinMappedMemory)
{
    TestSystem sys(Abi::Mips64);
    GuestPtr p = sys.ctx->mmap(2 * pageSize);
    // The legacy ABI has no object bounds: a "16-byte buffer" overread
    // silently reads neighbouring memory.
    GuestPtr q = p; // pretend it is 16 bytes
    EXPECT_NO_THROW(sys.ctx->load<u64>(q, 16));
    EXPECT_NO_THROW(sys.ctx->load<u64>(q, 4096));
}

TEST(Guest, MipsUnmappedAccessStillFaults)
{
    TestSystem sys(Abi::Mips64);
    GuestPtr wild = sys.ctx->ptrFromInt(0x3333000000);
    EXPECT_THROW(sys.ctx->load<u64>(wild), CapTrap);
}

TEST(Guest, StoreRequiresStorePermission)
{
    TestSystem sys(Abi::CheriAbi);
    GuestPtr p = sys.ctx->mmap(pageSize);
    auto ro = p.cap.andPerms(permsRoData);
    GuestPtr q{ro.value()};
    EXPECT_NO_THROW(sys.ctx->load<u32>(q));
    EXPECT_THROW(sys.ctx->store<u32>(q, 0, 1), CapTrap);
}

TEST(Guest, PointerRoundTripThroughMemoryKeepsTag)
{
    TestSystem sys(Abi::CheriAbi);
    GuestPtr p = sys.ctx->mmap(pageSize);
    sys.ctx->storePtr(p, 0, p);
    GuestPtr q = sys.ctx->loadPtr(p, 0);
    EXPECT_TRUE(q.cap.tag());
    EXPECT_EQ(q.cap, p.cap);
}

TEST(Guest, IntegerProvenanceIdiomTrapsOnCheri)
{
    TestSystem sys(Abi::CheriAbi);
    GuestPtr p = sys.ctx->mmap(pageSize);
    sys.ctx->store<u64>(p, 0, 77);
    // (char *)(long)p — the IP class from Table 2: works on mips64,
    // traps under CheriABI because the integer carries no provenance.
    u64 as_int = p.addr();
    GuestPtr q = sys.ctx->ptrFromInt(as_int);
    EXPECT_THROW(sys.ctx->load<u64>(q), CapTrap);
    // The supported uintptr_t round trip keeps provenance explicit.
    GuestPtr r = sys.ctx->ptrFromInt(as_int, p);
    EXPECT_EQ(sys.ctx->load<u64>(r), 77u);
}

TEST(Guest, IntegerProvenanceIdiomWorksOnMips)
{
    TestSystem sys(Abi::Mips64);
    GuestPtr p = sys.ctx->mmap(pageSize);
    sys.ctx->store<u64>(p, 0, 77);
    GuestPtr q = sys.ctx->ptrFromInt(p.addr());
    EXPECT_EQ(sys.ctx->load<u64>(q), 77u);
}

TEST(Guest, StackFrameLocalsAreBounded)
{
    TestSystem sys(Abi::CheriAbi);
    GuestContext &ctx = *sys.ctx;
    u64 sp_before = sys.proc->regs().stack().address();
    {
        StackFrame frame(ctx, 256, 2);
        GuestPtr a = frame.alloc(32);
        GuestPtr b = frame.alloc(64);
        EXPECT_TRUE(a.cap.tag());
        EXPECT_EQ(a.cap.length(), 32u);
        EXPECT_EQ(b.cap.length(), 64u);
        ctx.store<u64>(a, 24, 1);
        EXPECT_THROW(ctx.store<u64>(a, 32, 1), CapTrap)
            << "classic stack buffer overflow must trap";
        // Locals do not overlap.
        EXPECT_TRUE(b.addr() >= a.addr() + 32 || a.addr() >= b.addr() + 64);
    }
    EXPECT_EQ(sys.proc->regs().stack().address(), sp_before)
        << "frame destructor restores sp";
}

TEST(Guest, StackFrameOnMipsIsUnchecked)
{
    TestSystem sys(Abi::Mips64);
    StackFrame frame(*sys.ctx, 256);
    GuestPtr a = frame.alloc(32);
    EXPECT_FALSE(a.cap.tag());
    // Overflow into the neighbouring local succeeds silently.
    EXPECT_NO_THROW(sys.ctx->store<u64>(a, 40, 0xBAD));
}

TEST(Guest, NestedFramesUnwind)
{
    TestSystem sys(Abi::CheriAbi);
    GuestContext &ctx = *sys.ctx;
    u64 sp0 = sys.proc->regs().stack().address();
    {
        StackFrame f1(ctx, 128);
        u64 sp1 = sys.proc->regs().stack().address();
        EXPECT_LT(sp1, sp0);
        {
            StackFrame f2(ctx, 128);
            EXPECT_LT(sys.proc->regs().stack().address(), sp1);
            GuestPtr x = f2.alloc(16);
            ctx.store<u64>(x, 0, 5);
        }
        EXPECT_EQ(sys.proc->regs().stack().address(), sp1);
    }
    EXPECT_EQ(sys.proc->regs().stack().address(), sp0);
}

TEST(Guest, RunGuestReturnsExitStatus)
{
    TestSystem sys(Abi::CheriAbi);
    int rc = runGuest(*sys.ctx, [](GuestContext &) { return 42; });
    EXPECT_EQ(rc, 42);
    EXPECT_TRUE(sys.proc->exited());
    EXPECT_FALSE(sys.proc->death().has_value());
}

TEST(Guest, RunGuestTurnsTrapIntoSigprotDeath)
{
    TestSystem sys(Abi::CheriAbi);
    int rc = runGuest(*sys.ctx, [](GuestContext &c) {
        GuestPtr p = c.mmap(pageSize);
        auto narrow = p.cap.setBounds(4);
        c.load<u64>(GuestPtr{narrow.value()});
        return 0;
    });
    EXPECT_EQ(rc, 128 + SIG_PROT);
}

TEST(Guest, CostAccumulatesPerAccess)
{
    TestSystem sys(Abi::CheriAbi);
    u64 before = sys.proc->cost().instructions();
    GuestPtr p = sys.ctx->mmap(pageSize);
    for (int i = 0; i < 100; ++i)
        sys.ctx->store<u64>(p, i * 8, i);
    EXPECT_GE(sys.proc->cost().instructions(), before + 100);
}

TEST(Guest, PointerWidthDiffersByAbi)
{
    TestSystem cheri(Abi::CheriAbi);
    TestSystem mips(Abi::Mips64);
    EXPECT_EQ(cheri.ctx->ptrSize(), 16u);
    EXPECT_EQ(mips.ctx->ptrSize(), 8u);
}

} // namespace
} // namespace cheri
