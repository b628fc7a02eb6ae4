/**
 * @file
 * Run-time linker tests: capability GOT construction, per-variable
 * bounds, per-object function bounds, in-data pointer initializers,
 * dependency loading, and failure cases.
 */

#include <gtest/gtest.h>

#include "test_util.h"

namespace cheri
{
namespace
{

SelfObject
makeLibm()
{
    SelfObject lib;
    lib.name = "libm.so";
    lib.textSize = 0x3000;
    lib.data.resize(128);
    lib.data[0] = 42;
    lib.symbols = {
        {"pi_table", 0, 64, false},
        {"sin_fast", 0x100, 0x80, true},
    };
    return lib;
}

SelfObject
makeProgram()
{
    SelfObject prog;
    prog.name = "app";
    prog.textSize = 0x2000;
    prog.data.resize(64);
    prog.bssSize = 32;
    prog.needed = {"libm.so"};
    prog.symbols = {
        {"app_state", 0, 24, false},
        {"main", 0, 0x40, true},
    };
    prog.relocs = {
        {RelocKind::CapGlobal, 0, 0, "pi_table"},
        {RelocKind::CapFunction, 1, 0, "sin_fast"},
        {RelocKind::CapGlobal, 2, 0, "app_state"},
        // Global pointer initializer: app_state's pointer field (at
        // data offset 32) points to pi_table.
        {RelocKind::CapInit, 0, 32, "pi_table"},
    };
    return prog;
}

/** libm registered, then the app booted under @p abi. */
class RtldFixture
{
  protected:
    explicit RtldFixture(Abi abi)
    {
        kern.rtld().registerLibrary(&lib);
        EXPECT_TRUE(sys.boot(abi, makeProgram(), {"app"}));
        proc = sys.proc;
        ctx = sys.ctx.get();
    }

    SelfObject lib = makeLibm();
    GuestSystem sys;
    Kernel &kern = sys.kern;
    Process *proc = nullptr;
    GuestContext *ctx = nullptr;
};

class RtldTest : public ::testing::TestWithParam<Abi>, protected RtldFixture
{
  protected:
    RtldTest() : RtldFixture(GetParam()) {}
};

TEST_P(RtldTest, LoadsDependencies)
{
    ASSERT_EQ(proc->image.objects.size(), 2u);
    EXPECT_EQ(proc->image.objects[0].object->name, "app");
    EXPECT_EQ(proc->image.objects[1].object->name, "libm.so");
    EXPECT_NE(proc->image.find("libm.so"), nullptr);
}

TEST_P(RtldTest, DataSegmentCopied)
{
    const LinkedObject *libm = proc->image.find("libm.so");
    u8 b = 0;
    ASSERT_FALSE(proc->as().readBytes(libm->dataBase, &b, 1).has_value());
    EXPECT_EQ(b, 42);
}

TEST_P(RtldTest, GotHoldsResolvedPointers)
{
    const LinkedObject &app = proc->image.objects[0];
    const LinkedObject *libm = proc->image.find("libm.so");
    GuestPtr got(app.gotCap.tag()
                     ? app.gotCap
                     : Capability::fromAddress(app.gotBase));
    GuestPtr pi = ctx->loadPtr(got, 0);
    EXPECT_EQ(pi.addr(), libm->dataBase + 0);
    GuestPtr fn = ctx->loadPtr(got,
                               static_cast<s64>(ctx->ptrSize()));
    EXPECT_EQ(fn.addr(), libm->textBase + 0x100);
}

INSTANTIATE_TEST_SUITE_P(Abis, RtldTest,
                         ::testing::Values(Abi::Mips64, Abi::CheriAbi),
                         [](const auto &info) {
                             return info.param == Abi::CheriAbi
                                        ? "cheriabi"
                                        : "mips64";
                         });

class RtldCheri : public ::testing::Test, protected RtldFixture
{
  protected:
    RtldCheri() : RtldFixture(Abi::CheriAbi) {}
};

TEST_F(RtldCheri, GlobalsGetPerVariableBounds)
{
    const LinkedObject &app = proc->image.objects[0];
    GuestPtr got(app.gotCap);
    GuestPtr pi = ctx->loadPtr(got, 0);
    ASSERT_TRUE(pi.cap.tag());
    EXPECT_EQ(pi.cap.length(), 64u) << "bounded to the symbol size";
    EXPECT_TRUE(pi.cap.hasPerms(PERM_LOAD));
    EXPECT_FALSE(pi.cap.hasPerms(PERM_EXECUTE));
    // Access past the variable traps.
    EXPECT_THROW(ctx->load<u64>(pi, 64), CapTrap);
    EXPECT_NO_THROW(ctx->load<u64>(pi, 56));
}

TEST_F(RtldCheri, FunctionsGetPerObjectExecutableBounds)
{
    const LinkedObject &app = proc->image.objects[0];
    const LinkedObject *libm = proc->image.find("libm.so");
    GuestPtr got(app.gotCap);
    GuestPtr fn = ctx->loadPtr(got, capSize);
    ASSERT_TRUE(fn.cap.tag());
    EXPECT_TRUE(fn.cap.hasPerms(PERM_EXECUTE));
    EXPECT_FALSE(fn.cap.hasPerms(PERM_STORE));
    // Bounds cover the whole defining object's text (PC-relative
    // addressing support), not just the one function.
    EXPECT_EQ(fn.cap.base(), libm->textBase);
    EXPECT_GE(fn.cap.length(), libm->object->textSize);
    // ...but not other objects.
    EXPECT_TRUE(fn.cap
                    .checkAccess(app.textBase, 4, PERM_EXECUTE)
                    .has_value());
}

TEST_F(RtldCheri, CapInitRemintsInDataPointers)
{
    // tags are not preserved on disk; the RTLD re-mints this pointer at
    // startup.
    const LinkedObject &app = proc->image.objects[0];
    const LinkedObject *libm = proc->image.find("libm.so");
    Result<Capability> r = proc->as().readCap(app.dataBase + 32);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().tag());
    EXPECT_EQ(r.value().address(), libm->dataBase);
    EXPECT_EQ(r.value().length(), 64u);
}

TEST_F(RtldCheri, DlsymStyleResolution)
{
    ResolvedSymbol sym =
        Rtld::resolve(proc->image, "sin_fast", Abi::CheriAbi);
    ASSERT_NE(sym.definingObject, nullptr);
    EXPECT_EQ(sym.definingObject->object->name, "libm.so");
    EXPECT_TRUE(sym.cap.tag());
    EXPECT_TRUE(sym.cap.hasPerms(PERM_EXECUTE));
    ResolvedSymbol missing =
        Rtld::resolve(proc->image, "no_such_symbol", Abi::CheriAbi);
    EXPECT_EQ(missing.definingObject, nullptr);
}

TEST_F(RtldCheri, MissingLibraryFails)
{
    SelfObject broken;
    broken.name = "broken";
    broken.needed = {"libmissing.so"};
    int err = E_OK;
    EXPECT_EQ(kern.spawnExec(Abi::CheriAbi, broken, {"broken"}, {}, &err),
              nullptr);
    EXPECT_EQ(err, E_NOEXEC);
}

TEST_F(RtldCheri, UnresolvedSymbolFails)
{
    SelfObject broken;
    broken.name = "broken2";
    broken.relocs = {{RelocKind::CapGlobal, 0, 0, "undefined_sym"}};
    int err = E_OK;
    EXPECT_EQ(kern.spawnExec(Abi::CheriAbi, broken, {"broken2"}, {}, &err),
              nullptr);
    EXPECT_EQ(err, E_NOEXEC);
}

TEST_F(RtldCheri, RelocationsTracedAsGlobRelocs)
{
    struct Recorder : TraceSink
    {
        u64 globs = 0;
        void
        derive(DeriveSource s, const Capability &) override
        {
            globs += s == DeriveSource::GlobRelocs;
        }
    } rec;
    kern.setTrace(&rec);
    SelfObject prog2 = makeProgram();
    ASSERT_NE(kern.spawnExec(Abi::CheriAbi, prog2, {"app2"}), nullptr);
    kern.setTrace(nullptr);
    EXPECT_EQ(rec.globs, 4u) << "one event per relocation";
}

} // namespace
} // namespace cheri
