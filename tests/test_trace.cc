/**
 * @file
 * Trace-analysis tests: abstract-capability reconstruction and the
 * granularity CDF machinery behind Figure 5.
 */

#include <gtest/gtest.h>

#include "libc/malloc.h"
#include "libc/tls.h"
#include "test_util.h"
#include "trace/analysis.h"

namespace cheri
{
namespace
{

TEST(TraceAnalysis, CdfCountsBySizeAndSource)
{
    std::vector<CapTraceRecorder::Event> ev = {
        {DeriveSource::Stack, 16, 0},
        {DeriveSource::Stack, 64, 0},
        {DeriveSource::Malloc, 128, 0},
        {DeriveSource::Malloc, 1 << 20, 0},
        {DeriveSource::Kern, 1 << 24, 0},
    };
    GranularityCdf cdf(ev);
    EXPECT_EQ(cdf.totalAll(), 5u);
    EXPECT_EQ(cdf.total(DeriveSource::Stack), 2u);
    EXPECT_EQ(cdf.cumulative(DeriveSource::Stack, 4), 1u);  // <=16
    EXPECT_EQ(cdf.cumulative(DeriveSource::Stack, 6), 2u);  // <=64
    EXPECT_EQ(cdf.cumulative(DeriveSource::Malloc, 10), 1u);
    EXPECT_EQ(cdf.cumulativeAll(26), 5u);
    EXPECT_EQ(cdf.maxLength(DeriveSource::Kern), u64{1} << 24);
    EXPECT_EQ(cdf.maxLengthAll(), u64{1} << 24);
    EXPECT_DOUBLE_EQ(cdf.fractionBelow(1024), 3.0 / 5.0);
    std::string table = cdf.formatTable();
    EXPECT_NE(table.find("stack"), std::string::npos);
    EXPECT_NE(table.find("malloc"), std::string::npos);
}

TEST(TraceAnalysis, RecorderCapturesSystemActivity)
{
    CapTraceRecorder rec;
    GuestSystem sys;
    Kernel &kern = sys.kern;
    kern.setTrace(&rec);
    ASSERT_TRUE(sys.boot(Abi::CheriAbi, test::trivialProgram(),
                         {"traced", "x"}, {"E=1"}));
    Process *proc = sys.proc;
    GuestContext &ctx = *sys.ctx;
    GuestMalloc heap(ctx);
    GuestTls tls(ctx);
    // Generate activity from each source.
    {
        StackFrame frame(ctx, 256, 1);
        frame.alloc(32);
    }
    heap.malloc(100);
    tls.moduleBlock(1, 64);
    GuestPtr mapped = ctx.mmap(pageSize);
    // kevent stores a user capability in a kernel structure: the Kern
    // derivation source.
    int fds[2];
    ASSERT_EQ(kern.sysPipe(*proc, fds).error, E_OK);
    KEvent reg;
    reg.ident = fds[0];
    reg.filter = KFilter::Read;
    reg.udata = mapped.cap;
    ASSERT_EQ(kern.sysKevent(*proc, {reg}, nullptr, 0).error, E_OK);
    kern.setTrace(nullptr);

    GranularityCdf cdf(rec.all());
    EXPECT_GT(cdf.total(DeriveSource::Exec), 0u);
    EXPECT_GT(cdf.total(DeriveSource::GlobRelocs), 0u);
    EXPECT_GT(cdf.total(DeriveSource::Stack), 0u);
    EXPECT_GT(cdf.total(DeriveSource::Malloc), 0u);
    EXPECT_GT(cdf.total(DeriveSource::Tls), 0u);
    EXPECT_GT(cdf.total(DeriveSource::Syscall), 0u);
    EXPECT_GT(cdf.total(DeriveSource::Kern), 0u);
    // Stack and malloc caps are tiny; only kernel-minted ones are big.
    EXPECT_LE(cdf.maxLength(DeriveSource::Stack), u64{1} << 12);
    EXPECT_LE(cdf.maxLength(DeriveSource::Malloc), u64{1} << 12);
    // The kernel-held capability is exactly the (page-sized) user one.
    EXPECT_EQ(cdf.maxLength(DeriveSource::Kern), pageSize);
    // Broad capabilities come only from exec-time mappings.
    EXPECT_GE(cdf.maxLength(DeriveSource::Exec), u64{1} << 20);
}

TEST(TraceAnalysis, GlobRelocCapsBoundedToSymbols)
{
    CapTraceRecorder rec;
    Kernel kern;
    kern.setTrace(&rec);
    SelfObject prog = test::trivialProgram();
    Process *proc = kern.spawnExec(Abi::CheriAbi, prog, {"traced"});
    ASSERT_NE(proc, nullptr);
    kern.setTrace(nullptr);
    // global_counter (8 bytes) and global_buf (32 bytes) both get
    // per-variable bounds; the function reloc spans the text object.
    u64 small = 0, object_wide = 0;
    for (const auto &e : rec.all()) {
        if (e.source != DeriveSource::GlobRelocs)
            continue;
        if (e.length <= 32)
            ++small;
        else
            ++object_wide;
    }
    EXPECT_EQ(small, 2u);
    EXPECT_EQ(object_wide, 1u);
}

TEST(TraceAnalysis, EmptyCdfIsSane)
{
    GranularityCdf cdf({});
    EXPECT_EQ(cdf.totalAll(), 0u);
    EXPECT_EQ(cdf.maxLengthAll(), 0u);
    EXPECT_DOUBLE_EQ(cdf.fractionBelow(1024), 0.0);
}

} // namespace
} // namespace cheri
