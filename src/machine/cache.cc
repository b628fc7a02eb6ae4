#include "machine/cache.h"

#include <algorithm>
#include <bit>

#include "os/panic.h"

namespace cheri
{

Cache::Cache(u64 size_bytes, u32 ways, u64 line_bytes)
    : lineBytes(line_bytes),
      numSets(ways && line_bytes ? size_bytes / (ways * line_bytes) : 0),
      ways(ways)
{
    CHERI_KASSERT(std::has_single_bit(lineBytes) &&
                      std::has_single_bit(numSets),
                  "cache line size and set count must be powers of two");
    lineShift = static_cast<u8>(std::countr_zero(lineBytes));
    setShift = static_cast<u8>(std::countr_zero(numSets));
    sets.resize(numSets * ways);
}

void
Cache::fill(Way *base, u64 tag)
{
    // Fill into the LRU way.  The scan moves from way 0 to any later way
    // that is invalid or older, so the last invalid way wins, and an
    // invalid way 0 competes only through the stale lru flush() left.
    Way *victim = base;
    for (u32 w = 1; w < ways; ++w) {
        if (!base[w].valid || base[w].lru < victim->lru)
            victim = &base[w];
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lru = tick;
    ++_misses;
}

void
Cache::flush()
{
    for (Way &w : sets)
        w.valid = false;
}

void
Cache::reset()
{
    std::fill(sets.begin(), sets.end(), Way{});
    tick = 0;
    _hits = 0;
    _misses = 0;
}

CacheHierarchy::CacheHierarchy()
    : l1i(32 * 1024, 4), l1d(32 * 1024, 4), l2(256 * 1024, 8)
{
}

HitLevel
CacheHierarchy::accessLines(u64 first, u64 last, Access kind)
{
    HitLevel worst = HitLevel::L1;
    for (u64 l = first; l <= last; ++l) {
        HitLevel lvl = accessLine(l * lineBytes, kind);
        if (lvl == HitLevel::Memory)
            worst = HitLevel::Memory;
        else if (lvl == HitLevel::L2 && worst == HitLevel::L1)
            worst = HitLevel::L2;
    }
    return worst;
}

void
CacheHierarchy::flush()
{
    l1i.flush();
    l1d.flush();
    l2.flush();
}

void
CacheHierarchy::reset()
{
    l1i.reset();
    l1d.reset();
    l2.reset();
}

} // namespace cheri
