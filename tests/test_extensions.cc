/**
 * @file
 * Tests for the paper's future-work extensions implemented here:
 * temporal safety via quarantine + revocation sweeps, sealed-
 * capability compartments (CCall), and the 256-bit capability format.
 */

#include <gtest/gtest.h>

#include "libc/revoke.h"
#include "libc/sealing.h"
#include "test_util.h"

namespace cheri
{
namespace
{

using test::TestSystem;

// ---------------------------------------------------------------------
// Temporal safety / revocation
// ---------------------------------------------------------------------

class RevokeTest : public ::testing::Test
{
  protected:
    TestSystem sys{Abi::CheriAbi};
    GuestContext &ctx() { return *sys.ctx; }
    RevokingMalloc heap{*sys.ctx, 1 << 16};
};

TEST_F(RevokeTest, StaleCapabilityDiesAtSweep)
{
    GuestPtr p = heap.malloc(64);
    ctx().store<u64>(p, 0, 42);
    // Keep a stale copy in memory.
    GuestPtr table = heap.malloc(32);
    ctx().storePtr(table, 0, p);
    ASSERT_TRUE(heap.free(p));
    // Before the sweep the stale capability still works (quarantine
    // keeps the memory from being reused, so this is not yet a bug).
    EXPECT_EQ(ctx().load<u64>(p), 42u);
    u64 revoked = heap.forceSweep();
    EXPECT_GE(revoked, 1u);
    // The in-memory stale copy is dead...
    GuestPtr stale = ctx().loadPtr(table, 0);
    EXPECT_FALSE(stale.cap.tag());
    EXPECT_THROW(ctx().load<u64>(stale), CapTrap);
}

TEST_F(RevokeTest, LiveAllocationsSurviveSweep)
{
    GuestPtr keep = heap.malloc(64);
    ctx().store<u64>(keep, 0, 7);
    GuestPtr table = heap.malloc(32);
    ctx().storePtr(table, 0, keep);
    GuestPtr doomed = heap.malloc(64);
    heap.free(doomed);
    heap.forceSweep();
    GuestPtr still = ctx().loadPtr(table, 0);
    EXPECT_TRUE(still.cap.tag());
    EXPECT_EQ(ctx().load<u64>(still), 7u);
    EXPECT_TRUE(keep.cap.tag());
}

TEST_F(RevokeTest, ReuseOnlyAfterSweep)
{
    GuestPtr a = heap.malloc(64);
    u64 addr = a.addr();
    heap.free(a);
    // No sweep yet: the storage must not be reused.
    GuestPtr b = heap.malloc(64);
    EXPECT_NE(b.addr(), addr);
    heap.forceSweep();
    GuestPtr c = heap.malloc(64);
    EXPECT_EQ(c.addr(), addr) << "quarantine drains after revocation";
}

TEST_F(RevokeTest, BudgetTriggersAutomaticSweep)
{
    EXPECT_EQ(heap.sweeps(), 0u);
    for (int i = 0; i < 40; ++i) {
        GuestPtr p = heap.malloc(4096);
        heap.free(p);
    }
    EXPECT_GE(heap.sweeps(), 1u)
        << "40 * 4 KiB exceeds the 64 KiB quarantine budget";
}

TEST_F(RevokeTest, RegisterHeldStaleCapabilityRevoked)
{
    GuestPtr p = heap.malloc(64);
    sys.proc->regs().c[9] = p.cap; // stale copy in a register
    heap.free(p);
    heap.forceSweep();
    EXPECT_FALSE(sys.proc->regs().c[9].tag())
        << "the sweep must cover the capability register file";
}

TEST_F(RevokeTest, KernelHeldStaleCapabilityRevoked)
{
    GuestPtr p = heap.malloc(64);
    int fds[2];
    ASSERT_EQ(sys.kern.sysPipe(*sys.proc, fds).error, E_OK);
    KEvent reg;
    reg.ident = fds[0];
    reg.filter = KFilter::Read;
    reg.udata = p.cap;
    ASSERT_EQ(sys.kern.sysKevent(*sys.proc, {reg}, nullptr, 0).error,
              E_OK);
    heap.free(p);
    heap.forceSweep();
    // Harvesting the event returns a dead pointer, not a stale one.
    GuestPtr b = ctx().mmap(64);
    ctx().store<u8>(b, 0, 1);
    ASSERT_EQ(ctx().write(fds[1], b, 1), 1);
    std::vector<KEvent> events;
    ASSERT_EQ(sys.kern.sysKevent(*sys.proc, {}, &events, 4).error, E_OK);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_FALSE(events[0].udata.tag())
        << "kevent udata is kernel-held state the sweep must reach";
}

TEST_F(RevokeTest, SwappedOutStaleCapabilityRevoked)
{
    GuestPtr victim = heap.malloc(64);
    GuestPtr table = heap.malloc(32);
    ctx().storePtr(table, 0, victim);
    // Push the page holding the stale pointer out to swap.
    u64 page_va = pageTrunc(table.addr());
    ASSERT_TRUE(sys.proc->as().swapOutPage(page_va));
    heap.free(victim);
    heap.forceSweep();
    // Swap-in must not resurrect the revoked capability.
    GuestPtr stale = ctx().loadPtr(table, 0);
    EXPECT_FALSE(stale.cap.tag())
        << "revocation must cover swap tag metadata";
}

TEST_F(RevokeTest, InteriorDerivedCapabilityAlsoRevoked)
{
    GuestPtr p = heap.malloc(128);
    auto sub = p.cap.incAddress(32).setBounds(16);
    ASSERT_TRUE(sub.ok());
    GuestPtr table = heap.malloc(32);
    ctx().storePtr(table, 0, GuestPtr(sub.value()));
    heap.free(p);
    heap.forceSweep();
    EXPECT_FALSE(ctx().loadPtr(table, 0).cap.tag())
        << "interior capabilities base inside the freed range";
}

// ---------------------------------------------------------------------
// Sealing / compartments
// ---------------------------------------------------------------------

class SealingTest : public ::testing::Test
{
  protected:
    TestSystem sys{Abi::CheriAbi};
    GuestContext &ctx() { return *sys.ctx; }
    GuestMalloc heap{*sys.ctx};
    SealingRuntime sealing{*sys.ctx, 8};

    SealedObject
    makeBox(u64 secret)
    {
        GuestPtr data = heap.malloc(64);
        ctx().store<u64>(data, 0, secret);
        const Capability &code = sys.proc->regs().pcc;
        return sealing.makeSandbox(code, data.cap);
    }
};

TEST_F(SealingTest, KernelGrantsSealingAuthority)
{
    ASSERT_TRUE(sealing.valid());
    SealedObject box = makeBox(1);
    EXPECT_TRUE(box.code.tag());
    EXPECT_TRUE(box.code.sealed());
    EXPECT_TRUE(box.data.sealed());
    EXPECT_EQ(box.code.otype(), box.data.otype());
}

TEST_F(SealingTest, SealedDataIsOpaque)
{
    SealedObject box = makeBox(0x5EC4E7);
    // Holding the sealed capability conveys no access.
    EXPECT_TRUE(box.data
                    .checkAccess(box.data.address(), 8, PERM_LOAD)
                    .has_value());
    EXPECT_THROW(ctx().load<u64>(GuestPtr(box.data)), CapTrap);
}

TEST_F(SealingTest, InvokeEntersTheDomain)
{
    SealedObject box = makeBox(0xC0DE);
    Result<u64> r = sealing.invoke(
        box,
        [](GuestContext &c, const GuestPtr &data, u64 arg) {
            // Inside the sandbox: the data capability works again.
            return c.load<u64>(data) + arg;
        },
        5);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), 0xC0DEu + 5);
}

TEST_F(SealingTest, MismatchedPairIsRejected)
{
    SealedObject a = makeBox(1);
    SealedObject b = makeBox(2);
    ASSERT_NE(a.otype, b.otype);
    SealedObject frankenstein{a.code, b.data, a.otype};
    Result<u64> r = sealing.invoke(
        frankenstein,
        [](GuestContext &, const GuestPtr &, u64) { return u64{0}; }, 0);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.fault(), CapFault::TypeViolation);
}

TEST_F(SealingTest, UnsealedPairIsRejected)
{
    GuestPtr data = heap.malloc(16);
    SealedObject raw{sys.proc->regs().pcc, data.cap, 0};
    Result<u64> r = sealing.invoke(
        raw, [](GuestContext &, const GuestPtr &, u64) { return u64{0}; },
        0);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.fault(), CapFault::SealViolation);
}

TEST_F(SealingTest, ForeignAuthorityCannotUnseal)
{
    SealedObject box = makeBox(3);
    // A second runtime gets a *different* otype range.
    SealingRuntime other(ctx(), 8);
    ASSERT_TRUE(other.valid());
    Result<u64> r = other.invoke(
        box, [](GuestContext &, const GuestPtr &, u64) { return u64{1}; },
        0);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.fault(), CapFault::TypeViolation)
        << "its authority does not cover our otype";
}

TEST_F(SealingTest, OtypesAreFinite)
{
    SealingRuntime tiny(ctx(), 2);
    GuestPtr d = heap.malloc(16);
    EXPECT_NE(tiny.makeSandbox(sys.proc->regs().pcc, d.cap).otype,
              otypeUnsealed);
    EXPECT_NE(tiny.makeSandbox(sys.proc->regs().pcc, d.cap).otype,
              otypeUnsealed);
    EXPECT_EQ(tiny.makeSandbox(sys.proc->regs().pcc, d.cap).otype,
              otypeUnsealed)
        << "range exhausted";
}

// ---------------------------------------------------------------------
// 256-bit capability format
// ---------------------------------------------------------------------

TEST(CapFormat, Cap256HasExactBoundsAndWiderPointers)
{
    KernelConfig cfg;
    cfg.capFormat = compress::CapFormat::Cap256;
    TestSystem sys(Abi::CheriAbi, cfg);
    EXPECT_EQ(sys.ctx->cost().pointerSize(), 32u);
    // No representability padding: odd mmap lengths come back exact.
    UserPtr out;
    u64 want = (u64{1} << 26) + pageSize;
    ASSERT_EQ(sys.kern
                  .sysMmap(*sys.proc, UserPtr::null(), want,
                           PROT_READ | PROT_WRITE, MAP_ANON, &out)
                  .error,
              E_OK);
    EXPECT_EQ(out.cap.length(), want) << "Cap256 bounds are exact";
}

TEST(CapFormat, Cap128PadsLargeMappings)
{
    TestSystem sys(Abi::CheriAbi); // default Cap128
    UserPtr out;
    // Large enough that the compression granule exceeds a page.
    u64 want = (u64{1} << 26) + pageSize;
    ASSERT_EQ(sys.kern
                  .sysMmap(*sys.proc, UserPtr::null(), want,
                           PROT_READ | PROT_WRITE, MAP_ANON, &out)
                  .error,
              E_OK);
    EXPECT_GT(out.cap.length(), want) << "Cap128 rounds to granules";
}

TEST(CapFormat, Cap256CostsMoreCacheTraffic)
{
    auto run = [](compress::CapFormat fmt) {
        KernelConfig cfg;
        cfg.capFormat = fmt;
        TestSystem sys(Abi::CheriAbi, cfg);
        GuestContext &ctx = *sys.ctx;
        GuestMalloc heap(ctx);
        const u64 n = 4096;
        GuestPtr arr = heap.malloc(n * ctx.ptrSize());
        GuestPtr obj = heap.malloc(16);
        ctx.cost().reset();
        for (int pass = 0; pass < 4; ++pass) {
            for (u64 i = 0; i < n; ++i) {
                ctx.storePtr(arr, static_cast<s64>(i * ctx.ptrSize()),
                             obj);
            }
        }
        return ctx.cost().cycles();
    };
    u64 c128 = run(compress::CapFormat::Cap128);
    u64 c256 = run(compress::CapFormat::Cap256);
    EXPECT_GT(c256, c128)
        << "the uncompressed format's footprint costs cycles — the "
           "paper's reason for benchmarking 128-bit";
}

} // namespace
} // namespace cheri
