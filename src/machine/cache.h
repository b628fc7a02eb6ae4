/**
 * @file
 * Set-associative cache hierarchy model.
 *
 * Mirrors the paper's FPGA system (section 5): split 32 KiB L1 caches and
 * a shared 256 KiB L2, set-associative with LRU replacement and no
 * prefetching.  The model tracks hits and misses only — enough to expose
 * the cache-pressure effect of doubling pointer size, which is the
 * microarchitectural story behind Figure 4's cycle and L2-miss columns.
 */

#ifndef CHERI_MACHINE_CACHE_H
#define CHERI_MACHINE_CACHE_H

#include <cstdint>
#include <vector>

#include "cap/types.h"

namespace cheri
{

namespace snap
{
struct Access;
}

/**
 * A single set-associative cache level with LRU replacement.  Line size
 * and set count are powers of two, so indexing is a shift and a mask;
 * the hit scan is inline and only a miss leaves the header.
 */
class Cache
{
  public:
    /**
     * @param size_bytes total capacity
     * @param ways associativity
     * @param line_bytes line size
     *
     * The line size and the resulting set count must be powers of two
     * (a failed CHERI_KASSERT otherwise).
     */
    Cache(u64 size_bytes, u32 ways, u64 line_bytes = 64);

    /** Access the line containing @p addr; true on hit. */
    bool
    access(u64 addr)
    {
        ++tick;
        u64 line = addr >> lineShift;
        u64 tag = line >> setShift;
        Way *base = &sets[(line & (numSets - 1)) * ways];
        for (u32 w = 0; w < ways; ++w) {
            if (base[w].valid && base[w].tag == tag) {
                base[w].lru = tick;
                ++_hits;
                return true;
            }
        }
        fill(base, tag);
        return false;
    }

    /** Drop all contents (context-switch cost modeling, tests).  Tags
     *  and LRU ticks stay behind and still steer victim choice. */
    void flush();

    /** Return to the freshly constructed state, in place. */
    void reset();

    u64 hits() const { return _hits; }
    u64 misses() const { return _misses; }

    struct Way
    {
        u64 tag = 0;
        bool valid = false;
        u64 lru = 0;
    };

    /** Read-only way state, set-major (set * ways + way), and the LRU
     *  clock: for differential tests against a reference model. */
    const std::vector<Way> &wayState() const { return sets; }
    u64 clock() const { return tick; }

  private:
    /** Checkpoint/restore preserves way state so post-restore cycle
     *  counts match an uninterrupted run bit-for-bit. */
    friend struct snap::Access;

    /** Miss: fill @p tag into the LRU way of the set at @p base. */
    void fill(Way *base, u64 tag);

    u64 lineBytes;
    u64 numSets;
    u32 ways;
    /** log2(lineBytes) and log2(numSets).  They sit in the padding
     *  after `ways`: a Cache lives three times in every process's cost
     *  model, and growing it shows up in per-process memory. */
    u8 lineShift = 0;
    u8 setShift = 0;
    u64 tick = 0;
    u64 _hits = 0;
    u64 _misses = 0;
    std::vector<Way> sets; // numSets * ways
};

/** Kinds of memory reference for the hierarchy. */
enum class Access
{
    InstrFetch,
    DataLoad,
    DataStore,
};

/** Result of a hierarchy access: the level that serviced it. */
enum class HitLevel
{
    L1,
    L2,
    Memory,
};

/**
 * The paper's two-level hierarchy: L1I + L1D (32 KiB, 4-way) over a
 * shared L2 (256 KiB, 8-way).
 */
class CacheHierarchy
{
  public:
    /** The hierarchy's line size. */
    static constexpr u64 lineBytes = 64;

    CacheHierarchy();

    /** Access @p size bytes at @p addr; returns the servicing level of
     *  the worst-faring line touched. */
    HitLevel
    access(u64 addr, u64 size, Access kind)
    {
        u64 first = addr / lineBytes;
        u64 last = (addr + (size ? size - 1 : 0)) / lineBytes;
        if (first == last)
            return accessLine(addr, kind);
        return accessLines(first, last, kind);
    }

    /** Access the one line containing @p addr. */
    HitLevel
    accessLine(u64 addr, Access kind)
    {
        Cache &l1 = kind == Access::InstrFetch ? l1i : l1d;
        if (l1.access(addr))
            return HitLevel::L1;
        return l2.access(addr) ? HitLevel::L2 : HitLevel::Memory;
    }

    void flush();

    /** Return every level to the freshly constructed state, in place. */
    void reset();

    u64 l1iMisses() const { return l1i.misses(); }
    u64 l1dMisses() const { return l1d.misses(); }
    u64 l2Misses() const { return l2.misses(); }
    u64 l1Accesses() const
    {
        return l1i.hits() + l1i.misses() + l1d.hits() + l1d.misses();
    }

  private:
    friend struct snap::Access;

    /** Lines @p first..@p last (line numbers) of a multi-line access. */
    HitLevel accessLines(u64 first, u64 last, Access kind);

    Cache l1i;
    Cache l1d;
    Cache l2;
};

} // namespace cheri

#endif // CHERI_MACHINE_CACHE_H
