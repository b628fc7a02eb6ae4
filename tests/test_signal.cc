/**
 * @file
 * Signal delivery tests: capability frames on the user stack
 * (Figure 2), handler-visible modification, tamper detection, masks,
 * and default actions.
 */

#include <gtest/gtest.h>

#include "test_util.h"

namespace cheri
{
namespace
{

class SignalBothAbis : public test::SystemTest<::testing::TestWithParam<Abi>>
{
  protected:
    SignalBothAbis() : SystemTest(GetParam()) {}
};

TEST_P(SignalBothAbis, HandlerRunsOnDelivery)
{
    int runs = 0;
    u64 hid = proc().registerHandler(
        [&](Process &, SigFrame &f) {
            ++runs;
            EXPECT_EQ(f.signo, SIG_USR1);
        });
    ASSERT_EQ(kern().sysSigaction(proc(), SIG_USR1,
                                  {SigAction::Kind::Handler, hid})
                  .error,
              E_OK);
    ASSERT_EQ(kern().sysKill(proc(), proc().pid(), SIG_USR1).error, E_OK);
    EXPECT_EQ(kern().deliverSignals(proc()), 1u);
    EXPECT_EQ(runs, 1);
    EXPECT_FALSE(proc().exited());
}

TEST_P(SignalBothAbis, RegistersRestoredAfterHandler)
{
    ThreadRegs before = proc().regs();
    u64 hid = proc().registerHandler([&](Process &p, SigFrame &) {
        // Clobber the live registers inside the handler.
        p.regs().c[7] = Capability::fromAddress(0xDEAD);
        p.regs().x[9] = 999;
    });
    kern().sysSigaction(proc(), SIG_USR1, {SigAction::Kind::Handler, hid});
    kern().sysKill(proc(), proc().pid(), SIG_USR1);
    kern().deliverSignals(proc());
    EXPECT_EQ(proc().regs().c[7], before.c[7]);
    EXPECT_EQ(proc().regs().stack(), before.stack());
}

TEST_P(SignalBothAbis, MaskBlocksDelivery)
{
    int runs = 0;
    u64 hid = proc().registerHandler(
        [&](Process &, SigFrame &) { ++runs; });
    kern().sysSigaction(proc(), SIG_USR1, {SigAction::Kind::Handler, hid});
    kern().sysSigprocmask(proc(), 1u << SIG_USR1, 0);
    kern().sysKill(proc(), proc().pid(), SIG_USR1);
    EXPECT_EQ(kern().deliverSignals(proc()), 0u);
    EXPECT_EQ(runs, 0);
    kern().sysSigprocmask(proc(), 0, 1u << SIG_USR1);
    EXPECT_EQ(kern().deliverSignals(proc()), 1u);
    EXPECT_EQ(runs, 1);
}

TEST_P(SignalBothAbis, DefaultTermDies)
{
    kern().sysKill(proc(), proc().pid(), SIG_TERM);
    kern().deliverSignals(proc());
    EXPECT_TRUE(proc().exited());
    ASSERT_TRUE(proc().death().has_value());
    EXPECT_EQ(proc().death()->signal, SIG_TERM);
}

TEST_P(SignalBothAbis, SigchldIgnoredByDefault)
{
    kern().sysKill(proc(), proc().pid(), SIG_CHLD);
    kern().deliverSignals(proc());
    EXPECT_FALSE(proc().exited());
}

TEST_P(SignalBothAbis, CannotCatchSigkill)
{
    u64 hid = proc().registerHandler([](Process &, SigFrame &) {});
    EXPECT_EQ(kern().sysSigaction(proc(), SIG_KILL,
                                  {SigAction::Kind::Handler, hid})
                  .error,
              E_INVAL);
}

TEST_P(SignalBothAbis, TrampolineInstalledDuringHandler)
{
    u64 hid = proc().registerHandler([&](Process &p, SigFrame &) {
        EXPECT_EQ(p.regs().c[regLink].address(),
                  p.trampolineCap.address());
    });
    kern().sysSigaction(proc(), SIG_USR1, {SigAction::Kind::Handler, hid});
    kern().sysKill(proc(), proc().pid(), SIG_USR1);
    kern().deliverSignals(proc());
}

INSTANTIATE_TEST_SUITE_P(Abis, SignalBothAbis,
                         ::testing::Values(Abi::Mips64, Abi::CheriAbi),
                         [](const auto &info) {
                             return info.param == Abi::CheriAbi
                                        ? "cheriabi"
                                        : "mips64";
                         });

class SignalCheri : public test::SystemTest<::testing::Test>
{
  protected:
    SignalCheri() : SystemTest(Abi::CheriAbi) {}
};

TEST_F(SignalCheri, FrameHoldsTaggedCapabilities)
{
    // Plant a recognizable capability in a register, then check the
    // in-memory frame during delivery.
    GuestPtr buf = ctx().mmap(pageSize);
    proc().regs().c[5] = buf.cap;
    u64 hid = proc().registerHandler([&](Process &p, SigFrame &f) {
        // Frame layout: header(48) + pcc, ddc, c[0..31] at 16 bytes.
        u64 slot_va = f.frameVa + 48 + (2 + 5) * capSize;
        Result<Capability> saved = p.as().readCap(slot_va);
        ASSERT_TRUE(saved.ok());
        EXPECT_TRUE(saved.value().tag())
            << "capability registers must be spilled with tags";
        EXPECT_EQ(saved.value(), buf.cap);
    });
    kern().sysSigaction(proc(), SIG_USR1, {SigAction::Kind::Handler, hid});
    kern().sysKill(proc(), proc().pid(), SIG_USR1);
    ASSERT_EQ(kern().deliverSignals(proc()), 1u);
    // And it is restored, tag intact.
    EXPECT_EQ(proc().regs().c[5], buf.cap);
}

TEST_F(SignalCheri, HandlerMayModifySavedState)
{
    GuestPtr buf = ctx().mmap(pageSize);
    GuestPtr other = ctx().mmap(pageSize);
    proc().regs().c[5] = buf.cap;
    u64 hid = proc().registerHandler([&](Process &p, SigFrame &f) {
        // Rewrite the saved c5 slot in memory: sigreturn should
        // restore the *modified* value (capability chain preserved via
        // the frame).
        u64 slot_va = f.frameVa + 48 + (2 + 5) * capSize;
        CapCheck w = p.as().writeCap(slot_va, other.cap);
        ASSERT_FALSE(w.has_value());
    });
    kern().sysSigaction(proc(), SIG_USR1, {SigAction::Kind::Handler, hid});
    kern().sysKill(proc(), proc().pid(), SIG_USR1);
    kern().deliverSignals(proc());
    EXPECT_EQ(proc().regs().c[5], other.cap);
    EXPECT_TRUE(proc().regs().c[5].tag());
}

TEST_F(SignalCheri, TamperedFrameLosesTag)
{
    GuestPtr buf = ctx().mmap(pageSize);
    proc().regs().c[5] = buf.cap;
    u64 hid = proc().registerHandler([&](Process &p, SigFrame &f) {
        // Overwrite one byte of the saved capability with data: the
        // forged value must come back untagged.
        u64 slot_va = f.frameVa + 48 + (2 + 5) * capSize;
        u8 evil = 0xFF;
        CapCheck w = p.as().writeBytes(slot_va + 3, &evil, 1);
        ASSERT_FALSE(w.has_value());
    });
    kern().sysSigaction(proc(), SIG_USR1, {SigAction::Kind::Handler, hid});
    kern().sysKill(proc(), proc().pid(), SIG_USR1);
    kern().deliverSignals(proc());
    EXPECT_FALSE(proc().regs().c[5].tag())
        << "byte-tampered signal frame must not yield a live capability";
}

TEST_F(SignalCheri, CapFaultBecomesCatchableSigprot)
{
    int caught = 0;
    u64 hid = proc().registerHandler([&](Process &, SigFrame &f) {
        ++caught;
        EXPECT_EQ(f.signo, SIG_PROT);
    });
    kern().sysSigaction(proc(), SIG_PROT, {SigAction::Kind::Handler, hid});
    GuestPtr buf = ctx().mmap(pageSize);
    int rc = runGuest(ctx(), [&](GuestContext &c) {
        // Walk off the end of a bounded heap-ish capability.
        auto narrow = buf.cap.setBounds(8);
        GuestPtr p{narrow.value()};
        c.load<u64>(p, 16); // out of bounds -> trap
        return 0;
    });
    EXPECT_EQ(caught, 1);
    EXPECT_FALSE(proc().exited()) << "handled SIG_PROT should not kill";
    (void)rc;
}

TEST_F(SignalCheri, UnhandledCapFaultKillsWithSigprot)
{
    GuestPtr buf = ctx().mmap(pageSize);
    int rc = runGuest(ctx(), [&](GuestContext &c) {
        auto narrow = buf.cap.setBounds(8);
        GuestPtr p{narrow.value()};
        c.load<u64>(p, 16);
        return 0;
    });
    EXPECT_EQ(rc, 128 + SIG_PROT);
    ASSERT_TRUE(proc().death().has_value());
    EXPECT_EQ(proc().death()->signal, SIG_PROT);
    EXPECT_EQ(proc().death()->fault, CapFault::LengthViolation);
}

} // namespace
} // namespace cheri
