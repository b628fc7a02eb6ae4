/**
 * @file
 * Core-dump tests: capability register values recorded at death,
 * round-trip through the file format, and the no-authority property
 * (a core file is data; reading it can never mint capabilities).
 */

#include <gtest/gtest.h>

#include "os/coredump.h"
#include "test_util.h"

namespace cheri
{
namespace
{

using test::TestSystem;

TEST(CoreDump, WrittenOnSignalDeath)
{
    TestSystem sys(Abi::CheriAbi);
    GuestContext &ctx = *sys.ctx;
    GuestPtr buf = ctx.mmap(pageSize);
    sys.proc->regs().c[5] = buf.cap; // something recognizable
    int rc = runGuest(ctx, [&](GuestContext &c) {
        auto narrow = buf.cap.setBounds(8);
        c.load<u64>(GuestPtr{narrow.value()}, 64);
        return 0;
    });
    ASSERT_EQ(rc, 128 + SIG_PROT);
    std::string path = "/cores/" + sys.proc->name() + "." +
                       std::to_string(sys.proc->pid()) + ".core";
    VNodeRef node = sys.kern.vfs().lookup(path);
    ASSERT_NE(node, nullptr) << path;
    auto core = readCoreFile(*node);
    ASSERT_TRUE(core.has_value());
    EXPECT_EQ(core->pid, sys.proc->pid());
    EXPECT_EQ(core->signal, SIG_PROT);
    EXPECT_EQ(core->fault, CapFault::LengthViolation);
    // The register values made it, with their metadata...
    EXPECT_EQ(core->regs.c[5].address(), buf.cap.address());
    EXPECT_EQ(core->regs.c[5].base(), buf.cap.base());
    EXPECT_EQ(core->regs.c[5].perms(), buf.cap.perms());
    // ...but as data: no record in a core file carries a tag.
    EXPECT_FALSE(core->regs.c[5].tag());
    EXPECT_FALSE(core->regs.pcc.tag());
}

TEST(CoreDump, RecordsMemoryMap)
{
    TestSystem sys(Abi::CheriAbi);
    sys.ctx->mmap(3 * pageSize);
    runGuest(*sys.ctx, [](GuestContext &c) {
        c.load<u64>(c.ptrFromInt(0x1)); // immediate fault
        return 0;
    });
    VNodeRef node = sys.kern.vfs().lookup(
        "/cores/" + sys.proc->name() + "." +
        std::to_string(sys.proc->pid()) + ".core");
    ASSERT_NE(node, nullptr);
    auto core = readCoreFile(*node);
    ASSERT_TRUE(core.has_value());
    bool saw_stack = false, saw_text = false;
    for (const Mapping &m : core->mappings) {
        saw_stack |= m.kind == MappingKind::Stack;
        saw_text |= m.kind == MappingKind::Text;
    }
    EXPECT_TRUE(saw_stack);
    EXPECT_TRUE(saw_text);
}

TEST(CoreDump, MalformedFileRejected)
{
    VNode junk;
    junk.data = {'n', 'o', 't', 'a', 'c', 'o', 'r', 'e', 0, 0};
    EXPECT_FALSE(readCoreFile(junk).has_value());
    VNode tiny;
    tiny.data = {'M'};
    EXPECT_FALSE(readCoreFile(tiny).has_value());
    // Truncated after the magic.
    VNode trunc;
    const char magic[] = "MBSDCORE";
    trunc.data.assign(magic, magic + 8);
    EXPECT_FALSE(readCoreFile(trunc).has_value());
}

TEST(CoreDump, NormalExitLeavesNoCore)
{
    TestSystem sys(Abi::CheriAbi);
    runGuest(*sys.ctx, [](GuestContext &) { return 0; });
    EXPECT_EQ(sys.kern.vfs().readdir("/cores").size(), 0u);
}

/** Size and FNV-1a of the core file the pin scenario writes; a change
 *  means the core-file layout moved. */
constexpr u64 pinCoreSize = 1962;
constexpr u64 pinCoreFnv = 9699007267511606977ULL;

/** The little-endian @p n-byte field at @p off. */
u64
le(const std::vector<u8> &v, u64 off, int n = 8)
{
    u64 x = 0;
    for (int i = 0; i < n; ++i)
        x |= static_cast<u64>(v.at(off + i)) << (8 * i);
    return x;
}

TEST(CoreDumpFormatPin, BytesAndRecordLayout)
{
    TestSystem sys(Abi::CheriAbi);
    GuestPtr buf = sys.ctx->mmap(2 * pageSize);
    sys.proc->regs().c[5] = buf.cap;
    sys.proc->regs().x[7] = 0x1122334455667788ULL;
    int rc = runGuest(*sys.ctx, [&](GuestContext &c) {
        c.load<u64>(GuestPtr{buf.cap.setBounds(8).value()}, 64);
        return 0;
    });
    ASSERT_EQ(rc, 128 + SIG_PROT);
    VNodeRef node = sys.kern.vfs().lookup(
        "/cores/" + sys.proc->name() + "." +
        std::to_string(sys.proc->pid()) + ".core");
    ASSERT_NE(node, nullptr);
    const std::vector<u8> &f = node->data;
    u64 h = 1469598103934665603ULL;
    for (u8 b : f) {
        h ^= b;
        h *= 1099511628211ULL;
    }
    EXPECT_EQ(f.size(), pinCoreSize);
    EXPECT_EQ(h, pinCoreFnv);

    // Layout: 8-byte magic, u64 pid, u64 name length and the name, u32
    // signal, u32 fault, u64 fault address, then 40-byte capability
    // records for pcc, ddc and c0..c31 (tag, sealed, u16 pad, u32
    // perms, u32 otype, u32 pad, u64 base, top and address), the 32
    // u64 integer registers, and the counted memory map.
    const std::string name = sys.proc->name();
    ASSERT_EQ(std::string(f.begin(), f.begin() + 8), "MBSDCORE");
    EXPECT_EQ(le(f, 8), sys.proc->pid());
    ASSERT_EQ(le(f, 16), name.size());
    const u64 regs = 24 + name.size() + 4 + 4 + 8;
    const u64 c5 = regs + (2 + 5) * 40;
    EXPECT_EQ(f.at(c5), 1u); // the tag bit, recorded as data
    EXPECT_EQ(le(f, c5 + 4, 4), buf.cap.perms());
    EXPECT_EQ(le(f, c5 + 16), buf.cap.base());
    EXPECT_EQ(le(f, c5 + 24), static_cast<u64>(buf.cap.top()));
    EXPECT_EQ(le(f, c5 + 32), buf.cap.address());
    const u64 x = regs + 34 * 40;
    EXPECT_EQ(le(f, x + 7 * 8), 0x1122334455667788ULL);
    const u64 maps = x + 32 * 8;
    u64 end = maps + 8;
    for (u64 i = 0; i < le(f, maps); ++i)
        end += 8 + 8 + 4 + 4 + 8 + le(f, end + 24);
    EXPECT_EQ(end, f.size());
}

} // namespace
} // namespace cheri
