/**
 * @file
 * Tests for the cache hierarchy and the per-ABI cost model.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "machine/cache.h"
#include "machine/cost_model.h"
#include "machine/regs.h"
#include "rng_util.h"

namespace cheri
{
namespace
{

TEST(Cache, HitsAfterFill)
{
    Cache c(32 * 1024, 4);
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1030)); // same 64-byte line
    EXPECT_FALSE(c.access(0x1040)); // next line
}

TEST(Cache, LruEvictsOldest)
{
    // Direct-mapped-ish scenario: 4-way set; fill 5 conflicting lines.
    Cache c(4 * 64, 4, 64); // one set, 4 ways
    for (u64 i = 0; i < 4; ++i)
        EXPECT_FALSE(c.access(i * 64));
    for (u64 i = 0; i < 4; ++i)
        EXPECT_TRUE(c.access(i * 64));
    EXPECT_FALSE(c.access(4 * 64)); // evicts line 0
    EXPECT_FALSE(c.access(0));      // line 0 is gone
    EXPECT_TRUE(c.access(2 * 64));  // recently used lines survive
}

TEST(Cache, CapacityWorkingSetFits)
{
    Cache c(32 * 1024, 4);
    for (u64 a = 0; a < 32 * 1024; a += 64)
        c.access(a);
    u64 misses_before = c.misses();
    for (u64 a = 0; a < 32 * 1024; a += 64)
        c.access(a);
    EXPECT_EQ(c.misses(), misses_before) << "working set == capacity";
}

TEST(Hierarchy, L2CatchesL1Misses)
{
    CacheHierarchy h;
    // Touch 64 KiB: exceeds L1D (32 KiB) but fits in L2 (256 KiB).
    for (u64 a = 0; a < 64 * 1024; a += 64)
        h.access(a, 8, Access::DataLoad);
    u64 l2_before = h.l2Misses();
    for (u64 a = 0; a < 64 * 1024; a += 64)
        h.access(a, 8, Access::DataLoad);
    EXPECT_EQ(h.l2Misses(), l2_before)
        << "second pass must hit in L2 at worst";
    EXPECT_GT(h.l1dMisses(), 0u);
}

TEST(CostModel, PointerSizeByAbi)
{
    EXPECT_EQ(CostModel(Abi::Mips64).pointerSize(), 8u);
    EXPECT_EQ(CostModel(Abi::CheriAbi).pointerSize(), 16u);
}

TEST(CostModel, InstructionsAccumulate)
{
    CostModel m(Abi::Mips64);
    m.alu(10);
    m.load(0x1000, 8);
    m.store(0x1008, 8);
    EXPECT_EQ(m.instructions(), 12u);
    EXPECT_GE(m.cycles(), m.instructions());
}

TEST(CostModel, CapManipFreeOnMips)
{
    CostModel mips(Abi::Mips64);
    CostModel cheri(Abi::CheriAbi);
    mips.capManip(5);
    cheri.capManip(5);
    EXPECT_EQ(mips.instructions(), 0u);
    EXPECT_EQ(cheri.instructions(), 5u);
}

TEST(CostModel, GotLoadClcImmediateEffect)
{
    CostModel small_imm(Abi::CheriAbi, {.largeClcImmediate = false});
    CostModel large_imm(Abi::CheriAbi, {.largeClcImmediate = true});
    CostModel mips(Abi::Mips64);
    small_imm.gotLoad(0x500000);
    large_imm.gotLoad(0x500000);
    mips.gotLoad(0x500000);
    EXPECT_EQ(small_imm.instructions(), 3u);
    EXPECT_EQ(large_imm.instructions(), 1u);
    EXPECT_EQ(mips.instructions(), 1u);
    EXPECT_GT(small_imm.codeBytes(), large_imm.codeBytes());
}

TEST(CostModel, LegacySyscallPaysCapConstruction)
{
    CostModel mips(Abi::Mips64);
    CostModel cheri(Abi::CheriAbi);
    // select(2) passes four pointer arguments (paper section 5.2).
    mips.syscall(4);
    cheri.syscall(4);
    EXPECT_GT(mips.instructions(), cheri.instructions())
        << "CheriABI should be cheaper when many pointers cross the "
           "syscall boundary";
    // With zero pointer args the ABIs tie.
    CostModel mips0(Abi::Mips64), cheri0(Abi::CheriAbi);
    mips0.syscall(0);
    cheri0.syscall(0);
    EXPECT_EQ(mips0.instructions(), cheri0.instructions());
}

TEST(CostModel, ContextSwitchCostsMoreUnderCheriAbi)
{
    CostModel mips(Abi::Mips64);
    CostModel cheri(Abi::CheriAbi);
    for (int i = 0; i < 100; ++i) {
        mips.contextSwitch();
        cheri.contextSwitch();
    }
    EXPECT_GE(cheri.cycles(), mips.cycles())
        << "capability register file is twice as wide";
}

TEST(CostModel, AsanInstrumentationMultipliesAccessCost)
{
    CostModel plain(Abi::Mips64);
    CostModel asan(Abi::Mips64, {.asanInstrumentation = true});
    for (u64 i = 0; i < 1000; ++i) {
        plain.load(0x10000 + i * 8, 8);
        asan.load(0x10000 + i * 8, 8);
    }
    EXPECT_GT(asan.instructions(), 3 * plain.instructions());
}

TEST(CostModel, SpillsModelSeparateCapRegFile)
{
    CostModel mips(Abi::Mips64);
    CostModel cheri(Abi::CheriAbi);
    mips.spills(0x7000, 4, 0);
    cheri.spills(0x7000, 4, 0);
    EXPECT_GT(mips.instructions(), cheri.instructions());
}

TEST(CostModel, ResetClearsEverything)
{
    CostModel m(Abi::CheriAbi);
    m.alu(100);
    m.load(0x1000, 16);
    m.reset();
    EXPECT_EQ(m.instructions(), 0u);
    EXPECT_EQ(m.cycles(), 0u);
    EXPECT_EQ(m.l2Misses(), 0u);
}

// --- Differential tests of the cost-model hot path ---
//
// The reference models below are verbatim copies of the cache, the
// hierarchy walk and the per-instruction fetch loop as they were before
// the hot path moved to shift indexing, inline single-line accesses and
// line-stepped fetch charging.  The fast model must make exactly their
// decisions: every hit and miss, every way's tag/valid/lru, and every
// simulated counter.

struct RefCache
{
    struct Way
    {
        u64 tag = 0;
        bool valid = false;
        u64 lru = 0;
    };

    RefCache(u64 size_bytes, u32 ways, u64 line_bytes = 64)
        : lineBytes(line_bytes), numSets(size_bytes / (ways * line_bytes)),
          ways(ways), sets(numSets * ways)
    {
    }

    bool
    access(u64 addr)
    {
        ++tick;
        u64 line = addr / lineBytes;
        u64 set = line % numSets;
        u64 tag = line / numSets;
        Way *base = &sets[set * ways];
        for (u32 w = 0; w < ways; ++w) {
            if (base[w].valid && base[w].tag == tag) {
                base[w].lru = tick;
                ++hits;
                return true;
            }
        }
        // Miss: fill into the LRU way.
        Way *victim = base;
        for (u32 w = 1; w < ways; ++w) {
            if (!base[w].valid || base[w].lru < victim->lru)
                victim = &base[w];
        }
        victim->valid = true;
        victim->tag = tag;
        victim->lru = tick;
        ++misses;
        return false;
    }

    void
    flush()
    {
        for (Way &w : sets)
            w.valid = false;
    }

    u64 lineBytes;
    u64 numSets;
    u32 ways;
    u64 tick = 0;
    u64 hits = 0;
    u64 misses = 0;
    std::vector<Way> sets;
};

struct RefHierarchy
{
    HitLevel
    access(u64 addr, u64 size, Access kind)
    {
        HitLevel worst = HitLevel::L1;
        const u64 line = 64;
        u64 first = addr / line;
        u64 last = (addr + (size ? size - 1 : 0)) / line;
        for (u64 l = first; l <= last; ++l) {
            u64 a = l * line;
            RefCache &l1 = kind == Access::InstrFetch ? l1i : l1d;
            if (l1.access(a))
                continue;
            if (l2.access(a)) {
                if (worst == HitLevel::L1)
                    worst = HitLevel::L2;
                continue;
            }
            worst = HitLevel::Memory;
        }
        return worst;
    }

    RefCache l1i{32 * 1024, 4};
    RefCache l1d{32 * 1024, 4};
    RefCache l2{256 * 1024, 8};
};

/** The cost model's fetch, load and store charging, per instruction. */
struct RefCost
{
    void
    fetchAndCount(u64 n)
    {
        instructions += n;
        cycles += n;
        codeBytes += n * 4;
        for (u64 i = 0; i < n; ++i) {
            u64 fetch_pc = pc;
            pc += 4;
            if (pc >= 0x120000000 + codeFootprint)
                pc = 0x120000000;
            if ((fetch_pc & 63) == 0)
                charge(h.access(fetch_pc, 4, Access::InstrFetch));
        }
    }

    void
    charge(HitLevel lvl)
    {
        if (lvl == HitLevel::L2)
            cycles += 10;
        else if (lvl == HitLevel::Memory)
            cycles += 80;
    }

    void
    loadOrStore(u64 va, u64 size, Access kind)
    {
        fetchAndCount(1);
        charge(h.access(va, size, kind));
    }

    RefHierarchy h;
    u64 instructions = 0;
    u64 cycles = 0;
    u64 codeBytes = 0;
    u64 pc = 0x120000000;
    u64 codeFootprint = 16 * 1024;
};

void
expectSameCache(const Cache &c, const RefCache &r)
{
    EXPECT_EQ(c.clock(), r.tick);
    EXPECT_EQ(c.hits(), r.hits);
    EXPECT_EQ(c.misses(), r.misses);
    const std::vector<Cache::Way> &ways = c.wayState();
    ASSERT_EQ(ways.size(), r.sets.size());
    for (u64 i = 0; i < ways.size(); ++i) {
        ASSERT_EQ(ways[i].tag, r.sets[i].tag) << "way " << i;
        ASSERT_EQ(ways[i].valid, r.sets[i].valid) << "way " << i;
        ASSERT_EQ(ways[i].lru, r.sets[i].lru) << "way " << i;
    }
}

const std::vector<unsigned> cacheSeeds =
    test::seedsFromEnv("CHERI_TEST_CACHE_SEEDS", 3);

class CacheDifferential : public ::testing::TestWithParam<unsigned>
{
};

/** Both geometries in use (L1 128 sets x 4 ways, L2 512 x 8) against
 *  the reference, over a seeded address stream that mixes a hot set,
 *  conflict-heavy strides and wild addresses, with flush() and reset()
 *  inserted mid-stream. */
TEST_P(CacheDifferential, HitsMissesAndWayStateMatchReference)
{
    CHERI_TRACE_SEED(GetParam(), "CHERI_TEST_CACHE_SEEDS");
    struct Geometry
    {
        u64 size;
        u32 ways;
    };
    for (Geometry g : {Geometry{32 * 1024, 4}, Geometry{256 * 1024, 8}}) {
        SCOPED_TRACE(g.size);
        std::mt19937_64 rng(GetParam());
        Cache c(g.size, g.ways);
        RefCache r(g.size, g.ways);
        // Lines that collide in one set of this geometry.
        const u64 conflictStride = g.size / g.ways;
        for (int i = 0; i < 60000; ++i) {
            u64 pick = rng() % 1000;
            if (pick == 0) {
                c.flush();
                r.flush();
                continue;
            }
            if (pick == 1) {
                c.reset();
                r = RefCache(g.size, g.ways);
                continue;
            }
            u64 addr;
            if (pick < 500)
                addr = 0x10000 + (rng() % 4096) * 8;
            else if (pick < 900)
                addr = 0x400000 + (rng() % (3 * g.ways)) * conflictStride +
                       rng() % 64;
            else
                addr = rng();
            ASSERT_EQ(c.access(addr), r.access(addr)) << "access " << i;
        }
        expectSameCache(c, r);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheDifferential,
                         ::testing::ValuesIn(cacheSeeds));

class FetchDifferential : public ::testing::TestWithParam<unsigned>
{
};

/** Fetch charging against the per-instruction loop: random run lengths
 *  (n = 0, runs inside a line, line-crossing runs and runs past the
 *  16 KiB wrap) mixed with loads and stores of any size, and reset()
 *  mid-stream.  Compared after every step: instructions, cycles, code
 *  bytes, the PC and the miss counters. */
TEST_P(FetchDifferential, CountersAndPcMatchPerInstructionLoop)
{
    CHERI_TRACE_SEED(GetParam(), "CHERI_TEST_CACHE_SEEDS");
    std::mt19937_64 rng(GetParam());
    CostModel m(Abi::Mips64);
    RefCost r;
    for (int i = 0; i < 20000; ++i) {
        u64 pick = rng() % 100;
        if (pick == 0) {
            m.reset();
            r = RefCost();
        } else if (pick < 50) {
            u64 n = rng() % 20;
            m.alu(n);
            r.fetchAndCount(n);
        } else if (pick < 60) {
            u64 n = rng() % 200;
            m.alu(n);
            r.fetchAndCount(n);
        } else if (pick < 63) {
            u64 n = 4000 + rng() % 40000;
            m.alu(n);
            r.fetchAndCount(n);
        } else {
            u64 va = 0x100000 + rng() % (1 << 20);
            u64 size = rng() % 4 == 0 ? rng() % 300 : 8;
            if (pick < 85) {
                m.load(va, size);
                r.loadOrStore(va, size, Access::DataLoad);
            } else {
                m.store(va, size);
                r.loadOrStore(va, size, Access::DataStore);
            }
        }
        ASSERT_EQ(m.instructions(), r.instructions) << "step " << i;
        ASSERT_EQ(m.cycles(), r.cycles) << "step " << i;
        ASSERT_EQ(m.codeBytes(), r.codeBytes) << "step " << i;
        ASSERT_EQ(m.fetchPc(), r.pc) << "step " << i;
        ASSERT_EQ(m.cache().l1iMisses(), r.h.l1i.misses) << "step " << i;
        ASSERT_EQ(m.cache().l1dMisses(), r.h.l1d.misses) << "step " << i;
        ASSERT_EQ(m.l2Misses(), r.h.l2.misses) << "step " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FetchDifferential,
                         ::testing::ValuesIn(cacheSeeds));

TEST(FetchDifferential, EveryRunLengthFromEveryLineOffset)
{
    // Exhaustive over the short runs the inline path decides: each
    // start offset in a line (and across the wrap) times n = 0..80.
    for (u64 skip = 0; skip < 16; ++skip) {
        for (u64 n = 0; n <= 80; ++n) {
            for (u64 lead : {u64{0}, u64{4096 - 20}}) {
                CostModel m(Abi::Mips64);
                RefCost r;
                m.alu(lead + skip);
                r.fetchAndCount(lead + skip);
                m.alu(n);
                r.fetchAndCount(n);
                m.alu(3);
                r.fetchAndCount(3);
                ASSERT_EQ(m.cycles(), r.cycles) << skip << " " << n;
                ASSERT_EQ(m.fetchPc(), r.pc) << skip << " " << n;
                ASSERT_EQ(m.cache().l1iMisses(), r.h.l1i.misses);
            }
        }
    }
}

TEST(Regs, StackAliasConventionalRegister)
{
    ThreadRegs regs;
    regs.stack() = Capability::root();
    EXPECT_EQ(regs.c[regStack], Capability::root());
}

/**
 * Property: a pointer-chasing working set costs more cycles under
 * CheriABI once the 8-byte-pointer version fits in cache but the
 * 16-byte-pointer version does not — the mechanism behind Figure 4's
 * overhead on pointer-dense workloads.
 */
class PointerDensityProperty : public ::testing::TestWithParam<u64>
{
};

TEST_P(PointerDensityProperty, WidePointersRaiseCachePressure)
{
    u64 num_ptrs = GetParam();
    auto run = [&](Abi abi) {
        CostModel m(abi);
        u64 stride = m.pointerSize();
        for (int pass = 0; pass < 8; ++pass) {
            for (u64 i = 0; i < num_ptrs; ++i)
                m.load(0x100000 + i * stride, stride);
        }
        return m;
    };
    CostModel mips = run(Abi::Mips64);
    CostModel cheri = run(Abi::CheriAbi);
    EXPECT_EQ(mips.instructions(), cheri.instructions());
    EXPECT_GE(cheri.cycles(), mips.cycles());
    if (num_ptrs * 16 > 64 * 1024) {
        EXPECT_GT(cheri.cycles(), mips.cycles())
            << "doubling pointer footprint should cost cycles once the "
               "working set spills a cache level";
    }
}

INSTANTIATE_TEST_SUITE_P(WorkingSets, PointerDensityProperty,
                         ::testing::Values(64, 1024, 8192, 65536));

} // namespace
} // namespace cheri
