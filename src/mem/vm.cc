#include "mem/vm.h"

#include <algorithm>

#include "mem/access.h"
#include "os/panic.h"

namespace cheri
{

AddressSpace::AddressSpace(PhysMem &phys, SwapDevice &swap, u64 principal,
                           compress::CapFormat fmt, u64 aslr_seed)
    : phys(phys), swap(swap), _principal(principal), fmt(fmt)
{
    if (aslr_seed != 0) {
        // A page-granular slide applied to non-fixed placements.
        aslrSlide =
            ((aslr_seed * 0x9E3779B97F4A7C15ull) >> 40) % 4096 * pageSize;
    }
    // Mint the principal's root: the kernel-narrowed userspace
    // capability from which all of this process's pointers descend.
    Capability r = Capability::root(fmt).setAddress(userBase);
    Result<Capability> bounded = r.setBounds(userTop - userBase);
    CHERI_KASSERT(bounded.ok(), "user root bounds representable");
    Result<Capability> no_sysregs =
        bounded.value().andPerms(permsAll & ~PERM_ACCESS_SYS_REGS);
    CHERI_KASSERT(no_sysregs.ok(), "user root perms monotone");
    root = no_sysregs.value();
}

AddressSpace::~AddressSpace()
{
    // MemAccess objects may outlive the space (execve swaps spaces
    // under the process); make sure none keeps a dangling pointer.
    for (MemAccess *l : listeners)
        l->detach();
    // Swapped-out pages hold device slots the frame destructors know
    // nothing about; release them or every execve/exit leaks swap.
    for (auto &[va, pte] : pages) {
        if (pte.swapped)
            swap.discard(pte.swapSlot);
    }
}

void
AddressSpace::addTlbListener(MemAccess *l)
{
    listeners.push_back(l);
}

void
AddressSpace::removeTlbListener(MemAccess *l)
{
    listeners.erase(
        std::remove(listeners.begin(), listeners.end(), l),
        listeners.end());
}

void
AddressSpace::notifyInvalidatePage(u64 page_va) const
{
    for (MemAccess *l : listeners)
        l->invalidatePage(page_va);
}

void
AddressSpace::notifyInvalidateRange(u64 start, u64 len) const
{
    for (MemAccess *l : listeners)
        l->invalidateRange(start, len);
}

void
AddressSpace::notifyInvalidateAll() const
{
    for (MemAccess *l : listeners)
        l->invalidateAll();
}

void
AddressSpace::notifyCodeWrite() const
{
    for (MemAccess *l : listeners)
        l->noteCodeWrite();
}

bool
AddressSpace::resolvePage(u64 va, bool for_write, PageView *out,
                          bool cap_store)
{
    Pte *pte = walk(va, for_write);
    if (!pte)
        return false;
    if (cap_store)
        markCapStore(*pte, pageTrunc(va));
    out->frame = pte->frame.get();
    out->prot = pte->prot;
    out->cow = pte->cow;
    out->shared = pte->shared;
    out->capDirty = pte->capDirty;
    out->sweepEpochOpen = activeSweepEpoch != 0;
    return true;
}

void
AddressSpace::markCapStore(Pte &pte, u64 page_va)
{
    pte.capDirty = true;
    if (activeSweepEpoch != 0 && pte.queuedEpoch != activeSweepEpoch) {
        // The open epoch has no pending visit to this page — either it
        // was already scanned (its proof is now stale) or it was mapped
        // after the worklist was built; the scheduler must (re)visit it
        // before closing.
        pte.queuedEpoch = activeSweepEpoch;
        redirtied.push_back(page_va);
    }
}

u64
AddressSpace::findFree(u64 hint, u64 len) const
{
    u64 start = hint ? pageTrunc(hint) + aslrSlide
                     : u64{0x40000000} + aslrSlide;
    if (start < userBase)
        start = userBase;
    while (start + len <= userTop) {
        // Find the first mapping ending after `start`.
        auto it = mappings.upper_bound(start);
        if (it != mappings.begin()) {
            auto prev = std::prev(it);
            if (prev->second.end() > start) {
                start = pageRound(prev->second.end());
                continue;
            }
        }
        if (it == mappings.end() || start + len <= it->second.start)
            return start;
        start = pageRound(it->second.end());
    }
    return 0;
}

u64
AddressSpace::map(u64 addr, u64 len, u32 prot, MappingKind kind, bool fixed,
                  bool shared, const std::string &name, bool force_replace)
{
    if (len == 0)
        return 0;
    len = pageRound(len);
    u64 start;
    if (fixed) {
        start = pageTrunc(addr);
        if (start < userBase || start + len > userTop)
            return 0;
        if (rangeOccupied(start, len)) {
            if (!force_replace)
                return 0;
            unmap(start, len);
        }
    } else {
        // ASLR: a per-mapping jitter gap so *relative* placements (and
        // therefore cache conflict patterns) differ run to run.
        u64 jitter = 0;
        if (aslrSlide != 0) {
            u64 h = (aslrSlide + mappings.size() + 1) *
                    0x9E3779B97F4A7C15ull;
            jitter = ((h >> 33) % 16) * pageSize;
        }
        start = findFree(addr, len + jitter);
        if (start == 0)
            return 0;
        start += jitter;
    }
    Mapping m;
    m.start = start;
    m.len = len;
    m.prot = prot;
    m.kind = kind;
    m.shared = shared;
    m.name = name;
    mappings.emplace(start, m);
    // PTEs are created eagerly (frameless) so protection is recorded per
    // page; the *frames* stay demand-zero, allocated by walk() on first
    // touch.  Every page goes in just before the first PTE above the
    // range, in ascending order, so each insert is amortised O(1).
    auto above = pages.lower_bound(start);
    CHERI_KASSERT(above == pages.end() || above->first >= start + len,
                  "fresh mapping range holds no PTEs");
    for (u64 va = start; va < start + len; va += pageSize) {
        Pte pte;
        pte.prot = prot;
        pte.shared = shared;
        pages.emplace_hint(above, va, std::move(pte));
    }
    return start;
}

bool
AddressSpace::unmap(u64 start, u64 len)
{
    start = pageTrunc(start);
    len = pageRound(len);
    u64 end = start + len;
    // Shoot down cached translations before the frames are released.
    notifyInvalidateRange(start, len);
    bool any = false;
    // Split or drop overlapping mapping records.
    for (auto it = mappings.begin(); it != mappings.end();) {
        Mapping m = it->second;
        if (m.end() <= start || m.start >= end) {
            ++it;
            continue;
        }
        any = true;
        it = mappings.erase(it);
        if (m.start < start) {
            Mapping left = m;
            left.len = start - m.start;
            mappings.emplace(left.start, left);
        }
        if (m.end() > end) {
            Mapping right = m;
            right.start = end;
            right.len = m.end() - end;
            mappings.emplace(right.start, right);
        }
    }
    for (u64 va = start; va < end; va += pageSize) {
        auto it = pages.find(va);
        if (it == pages.end())
            continue;
        // A swapped-out page owns a device slot; munmap must release
        // it or the slot leaks for the lifetime of the system.
        if (it->second.swapped)
            swap.discard(it->second.swapSlot);
        pages.erase(it);
    }
    return any;
}

bool
AddressSpace::protect(u64 start, u64 len, u32 prot)
{
    start = pageTrunc(start);
    len = pageRound(len);
    // mprotect is atomic: validate the whole range before touching any
    // PTE, so a hole mid-range leaves every page exactly as it was.
    for (u64 va = start; va < start + len; va += pageSize) {
        if (!pages.count(va))
            return false;
    }
    // Cached translations embed the old protection; drop them first.
    notifyInvalidateRange(start, len);
    for (u64 va = start; va < start + len; va += pageSize)
        pages.find(va)->second.prot = prot;
    for (auto &[mstart, m] : mappings) {
        if (m.start >= start && m.end() <= start + len)
            m.prot = prot;
    }
    return true;
}

const Mapping *
AddressSpace::findMapping(u64 va) const
{
    auto it = mappings.upper_bound(va);
    if (it == mappings.begin())
        return nullptr;
    --it;
    if (va >= it->second.start && va < it->second.end())
        return &it->second;
    return nullptr;
}

bool
AddressSpace::rangeOccupied(u64 start, u64 len) const
{
    u64 end = start + len;
    for (const auto &[mstart, m] : mappings) {
        if (m.start < end && m.end() > start)
            return true;
    }
    return false;
}

void
AddressSpace::forEachMapping(
    const std::function<void(const Mapping &)> &fn) const
{
    for (const auto &[start, m] : mappings)
        fn(m);
}

u64
AddressSpace::representablePadding(u64 len) const
{
    return compress::representableLength(pageRound(len), fmt);
}

Capability
AddressSpace::capForRange(u64 start, u64 len, u32 prot,
                          bool with_vmmap) const
{
    u32 perms = PERM_GLOBAL;
    if (prot & PROT_READ)
        perms |= PERM_LOAD | PERM_LOAD_CAP;
    if (prot & PROT_WRITE)
        perms |= PERM_STORE | PERM_STORE_CAP | PERM_STORE_LOCAL_CAP;
    if (prot & PROT_EXEC)
        perms |= PERM_EXECUTE;
    if (with_vmmap)
        perms |= PERM_SW_VMMAP;
    Result<Capability> r =
        root.setAddress(start).setBounds(pageRound(len));
    CHERI_KASSERT(r.ok(), "kernel minted capability outside user root");
    Result<Capability> p = r.value().andPerms(perms);
    CHERI_KASSERT(p.ok(), "kernel-minted perms monotone");
    return p.value();
}

AddressSpace::Pte *
AddressSpace::walk(u64 va, bool for_write)
{
    // Any failure below that doesn't refine the cause is a plain page
    // fault (unmapped / protection).
    walkFault = CapFault::PageFault;
    if (va < userBase || va >= userTop)
        return nullptr;
    auto it = pages.find(pageTrunc(va));
    if (it == pages.end())
        return nullptr;
    Pte &pte = it->second;
    u32 need = for_write ? PROT_WRITE : PROT_READ;
    if (!(pte.prot & need))
        return nullptr;
    // Allocation below may reenter this space through the kernel's
    // reclaim hook.  That is safe: the pages being serviced here are
    // never evictable at hook time (frame still null, or use_count > 1
    // for a COW original), and reclaim only mutates Pte fields — it
    // never inserts or erases page-table nodes.
    if (pte.swapped) {
        // Swap-in: restore bytes and rederive capabilities from this
        // principal's root.
        FrameRef fresh = phys.allocFrame(this);
        if (!fresh) {
            walkFault = CapFault::MemoryExhausted;
            return nullptr;
        }
        CapFault swapFault = CapFault::SwapInFailure;
        if (!swap.swapIn(pte.swapSlot, *fresh, root, &swapFault)) {
            // The slot is retained; the access can be retried (after
            // an injected metadata corruption, minus the granule the
            // machine check consumed).
            walkFault = swapFault;
            return nullptr;
        }
        pte.frame = std::move(fresh);
        pte.swapped = false;
    }
    if (!pte.frame) {
        pte.frame = phys.allocFrame(this);
        if (!pte.frame) {
            walkFault = CapFault::MemoryExhausted;
            return nullptr;
        }
        // File-backed mappings fill from the file; anonymous ones are
        // demand-zero.
        const Mapping *m = findMapping(va);
        if (m && m->backing) {
            std::array<u8, pageSize> buf{};
            u64 file_off =
                m->backingOffset + (pageTrunc(va) - m->start);
            (*m->backing)(file_off, buf.data(), pageSize);
            pte.frame->write(0, buf.data(), pageSize);
        }
    }
    if (for_write && pte.cow) {
        if (pte.frame.use_count() > 1) {
            FrameRef copy = phys.allocFrame(this);
            if (!copy) {
                walkFault = CapFault::MemoryExhausted;
                return nullptr;
            }
            copy->copyFrom(*pte.frame); // tags preserved across COW
            pte.frame = std::move(copy);
            // The page changed frames: cached read translations still
            // point at the sibling's copy.
            notifyInvalidatePage(pageTrunc(va));
        }
        pte.cow = false;
    }
    pte.lastUse = ++useClock;
    return &pte;
}

CapCheck
AddressSpace::readBytes(u64 va, void *buf, u64 len)
{
    u8 *out = static_cast<u8 *>(buf);
    while (len > 0) {
        Pte *pte = walk(va, false);
        if (!pte)
            return walkFault;
        u64 off = va & pageMask;
        u64 chunk = std::min(len, pageSize - off);
        pte->frame->read(off, out, chunk);
        va += chunk;
        out += chunk;
        len -= chunk;
    }
    return std::nullopt;
}

CapCheck
AddressSpace::writeBytes(u64 va, const void *buf, u64 len)
{
    const u8 *in = static_cast<const u8 *>(buf);
    while (len > 0) {
        Pte *pte = walk(va, true);
        if (!pte)
            return walkFault;
        if (pte->prot & PROT_EXEC)
            notifyCodeWrite();
        u64 off = va & pageMask;
        u64 chunk = std::min(len, pageSize - off);
        pte->frame->write(off, in, chunk);
        va += chunk;
        in += chunk;
        len -= chunk;
    }
    return std::nullopt;
}

Result<Capability>
AddressSpace::readCap(u64 va)
{
    if (va % capAlign != 0)
        return CapFault::AlignmentViolation;
    Pte *pte = walk(va, false);
    if (!pte)
        return walkFault;
    u64 off = va & pageMask;
    if (pte->frame->tagAt(off) &&
        phys.injectCapLoadCorruption(*pte->frame, off, va))
        return CapFault::MachineCheck;
    return pte->frame->readCap(off);
}

CapCheck
AddressSpace::writeCap(u64 va, const Capability &cap)
{
    if (va % capAlign != 0)
        return CapFault::AlignmentViolation;
    Pte *pte = walk(va, true);
    if (!pte)
        return walkFault;
    if (pte->prot & PROT_EXEC)
        notifyCodeWrite();
    markCapStore(*pte, pageTrunc(va));
    pte->frame->writeCap(va & pageMask, cap);
    return std::nullopt;
}

void
AddressSpace::clearTagAt(u64 va)
{
    Pte *pte = walk(va, true);
    if (pte)
        pte->frame->clearTagAt(va & pageMask);
}

std::unique_ptr<AddressSpace>
AddressSpace::forkCopy(u64 new_principal) const
{
    auto child =
        std::make_unique<AddressSpace>(phys, swap, new_principal, fmt);
    child->mappings = mappings;
    for (const auto &[va, pte] : pages) {
        Pte cp = pte;
        if (!pte.shared && pte.frame) {
            // Private resident pages become COW in the child; the parent
            // side is marked by the caller via markCowForFork (we mutate
            // through const_cast here because fork logically modifies
            // both spaces).
            cp.cow = true;
            const_cast<Pte &>(pte).cow = true;
        }
        // A swapped-out page's slot is now referenced by both spaces;
        // without the extra reference the first swap-in (or unmap/exit
        // discard) would free the sibling's only copy of the page.
        if (pte.swapped)
            swap.retain(pte.swapSlot);
        // Ascending VA order: appending at the end is amortised O(1).
        child->pages.emplace_hint(child->pages.end(), va, std::move(cp));
    }
    // The parent's private pages just became COW: any cached writable
    // translation would let a store dodge the copy and corrupt the
    // child's view of the shared frame.
    notifyInvalidateAll();
    return child;
}

bool
AddressSpace::setBacking(u64 start, u64 len, BackingReader reader,
                         BackingWriter writer, u64 file_offset)
{
    auto it = mappings.find(pageTrunc(start));
    if (it == mappings.end() || it->second.len < len)
        return false;
    it->second.backing =
        std::make_shared<BackingReader>(std::move(reader));
    if (writer) {
        it->second.backingWriter =
            std::make_shared<BackingWriter>(std::move(writer));
    }
    it->second.backingOffset = file_offset;
    return true;
}

u64
AddressSpace::syncResident(u64 start, u64 len)
{
    const Mapping *m = findMapping(start);
    if (!m || !m->backingWriter)
        return 0;
    u64 synced = 0;
    for (u64 va = pageTrunc(start); va < start + len; va += pageSize) {
        auto it = pages.find(va);
        if (it == pages.end() || !it->second.frame)
            continue;
        u64 file_off = m->backingOffset + (va - m->start);
        (*m->backingWriter)(file_off,
                            it->second.frame->bytes().data(), pageSize);
        ++synced;
    }
    return synced;
}

bool
AddressSpace::installFrame(u64 va, FrameRef frame)
{
    auto it = pages.find(pageTrunc(va));
    if (it == pages.end())
        return false;
    notifyInvalidatePage(pageTrunc(va));
    // The incoming shared frame replaces whatever backed the page; a
    // swapped-out original still owns a device slot that must go too.
    if (it->second.swapped)
        swap.discard(it->second.swapSlot);
    it->second.frame = std::move(frame);
    it->second.shared = true;
    it->second.cow = false;
    it->second.swapped = false;
    // The incoming frame may already carry capabilities stored through
    // another space's mapping, and future sibling stores are invisible
    // to this page table: conservatively (and permanently) cap-dirty.
    // markCapStore also queues the page when an epoch is open — a
    // frame attached mid-epoch must be scanned before the close.
    markCapStore(it->second, pageTrunc(va));
    return true;
}

bool
AddressSpace::swapOutPage(u64 va)
{
    auto it = pages.find(pageTrunc(va));
    if (it == pages.end() || !it->second.frame || it->second.shared)
        return false;
    Pte &pte = it->second;
    if (pte.frame.use_count() > 1)
        return false; // still aliased by a COW sibling; keep resident
    u64 slot = swap.swapOut(*pte.frame);
    if (slot == SwapDevice::invalidSlot)
        return false; // device full or injected failure: stay resident
    // Invalidate before the frame dies: TLBs hold raw Frame pointers
    // without a reference.
    notifyInvalidatePage(pageTrunc(va));
    pte.swapSlot = slot;
    pte.frame.reset();
    pte.swapped = true;
    return true;
}

std::vector<u64>
AddressSpace::evictionOrder(u64 max_pages) const
{
    // Least-recently-used first; the walk clock is deterministic, and
    // VA breaks ties, so the order is reproducible across runs.
    std::vector<std::pair<u64, u64>> victims; // (lastUse, va)
    for (const auto &[va, pte] : pages) {
        if (pte.frame && !pte.shared && pte.frame.use_count() == 1)
            victims.emplace_back(pte.lastUse, va);
    }
    std::sort(victims.begin(), victims.end());
    if (victims.size() > max_pages)
        victims.resize(max_pages);
    std::vector<u64> order;
    order.reserve(victims.size());
    for (const auto &[use, va] : victims)
        order.push_back(va);
    return order;
}

u64
AddressSpace::swapOutResident(u64 max_pages)
{
    u64 evicted = 0;
    for (u64 va : evictionOrder(max_pages)) {
        Pte &pte = pages.find(va)->second;
        u64 slot = swap.swapOut(*pte.frame);
        if (slot == SwapDevice::invalidSlot)
            break; // swap full: the caller escalates (OOM kill)
        notifyInvalidatePage(va);
        pte.swapSlot = slot;
        pte.frame.reset();
        pte.swapped = true;
        ++evicted;
    }
    return evicted;
}

u64
AddressSpace::releaseAll()
{
    notifyInvalidateAll();
    u64 freed = 0;
    for (auto &[va, pte] : pages) {
        if (pte.swapped)
            swap.discard(pte.swapSlot);
        freed += pte.frame != nullptr;
    }
    pages.clear();
    mappings.clear();
    return freed;
}

u64
AddressSpace::swappedPages() const
{
    u64 n = 0;
    for (const auto &[va, pte] : pages)
        n += pte.swapped;
    return n;
}

u64
AddressSpace::revokeCapsMatching(
    const std::function<bool(const Capability &)> &pred)
{
    // Revocation mutates tag state under any cached translation; a TLB
    // must not keep serving pre-sweep capability loads from its frame
    // pointer without re-walking (decode caches also flush).
    notifyInvalidateAll();
    u64 revoked = 0;
    // Direct (non-epoch) sweep: every content page, swap scans not
    // injectable, so this path keeps its historical cannot-fail
    // contract.  Proving pages clean along the way is free.
    for (auto &[va, pte] : pages) {
        (void)pte;
        revoked += sweepPageImpl(va, 0, pred, false).revoked;
    }
    return revoked;
}

u64
AddressSpace::contentPages() const
{
    u64 n = 0;
    for (const auto &[va, pte] : pages)
        n += pte.frame != nullptr || pte.swapped;
    return n;
}

u64
AddressSpace::capDirtyPageCount() const
{
    u64 n = 0;
    for (const auto &[va, pte] : pages)
        n += pte.capDirty;
    return n;
}

std::vector<u64>
AddressSpace::sweepWorklist(bool force_full) const
{
    std::vector<u64> work;
    for (const auto &[va, pte] : pages) {
        if (force_full ? (pte.frame != nullptr || pte.swapped)
                       : pte.capDirty) {
            work.push_back(va);
        }
    }
    return work;
}

AddressSpace::PageSweep
AddressSpace::sweepPageImpl(
    u64 va, u64 epoch_id,
    const std::function<bool(const Capability &)> &pred, bool injectable)
{
    PageSweep r;
    auto it = pages.find(pageTrunc(va));
    if (it == pages.end()) {
        // Unmapped since it was queued: nothing can survive there.
        r.provenClean = true;
        return r;
    }
    Pte &pte = it->second;
    if (pte.swapped) {
        // Swapped pages are scanned through their tag metadata without
        // paging them in; the device read is what can fail.
        u64 remaining = 0;
        if (injectable) {
            if (!swap.sweepSlot(pte.swapSlot, pred, &r.revoked,
                                &remaining)) {
                r.deviceFailed = true;
                return r;
            }
        } else {
            r.revoked = swap.revokeMatchingInSlot(pte.swapSlot, pred);
            remaining = swap.slotTagCount(pte.swapSlot);
        }
        r.granules = granulesPerPage;
        if (remaining == 0 && !pte.shared) {
            pte.capDirty = false;
            r.provenClean = true;
        }
    } else if (pte.frame) {
        // Collect first: clearing mutates the tag bitmap under us.
        std::vector<u64> offs;
        pte.frame->forEachTagged([&](u64 off, const Capability &cap) {
            if (pred(cap))
                offs.push_back(off);
        });
        for (u64 off : offs)
            pte.frame->clearTagAt(off);
        r.revoked = offs.size();
        r.granules = granulesPerPage;
        if (pte.frame->taggedCount() == 0 && !pte.shared) {
            pte.capDirty = false;
            r.provenClean = true;
        }
        // Once proven clean, a cached cap-store-permitted dTLB entry
        // would let the next capability store dodge the dirty bit; and
        // revoked tags must not be served from stale entries either.
        // Inside an epoch the entry goes unconditionally: a cached
        // capWritable for a scanned-but-still-dirty page would let a
        // later cap store bypass the re-queue in markCapStore.
        if (epoch_id != 0 || r.provenClean || r.revoked != 0)
            notifyInvalidatePage(pageTrunc(va));
    } else {
        // Demand-zero page: trivially holds no capabilities.
        if (!pte.shared) {
            pte.capDirty = false;
            r.provenClean = true;
        }
    }
    if (epoch_id != 0 && !r.deviceFailed) {
        pte.sweptEpoch = epoch_id;
        // The queued visit is satisfied; a later cap store in the same
        // epoch re-queues through markCapStore.
        pte.queuedEpoch = 0;
    }
    return r;
}

AddressSpace::PageSweep
AddressSpace::sweepPageForRevocation(
    u64 va, u64 epoch_id,
    const std::function<bool(const Capability &)> &pred)
{
    return sweepPageImpl(va, epoch_id, pred, true);
}

AddressSpace::SharedSweep
AddressSpace::sweepSharedPagesForClose(
    u64 epoch_id, const std::function<bool(const Capability &)> &pred)
{
    SharedSweep total;
    for (auto &[va, pte] : pages) {
        if (!pte.shared || (!pte.frame && !pte.swapped))
            continue;
        // Non-injectable like the direct sweep: the close barrier must
        // not fail (shared pages are never swapped out anyway).
        PageSweep r = sweepPageImpl(va, epoch_id, pred, false);
        ++total.pages;
        total.granules += r.granules;
        total.revoked += r.revoked;
    }
    return total;
}

std::vector<u64>
AddressSpace::beginSweepEpoch(u64 epoch_id, bool force_full)
{
    activeSweepEpoch = epoch_id;
    redirtied.clear();
    // Drop every cached translation: entries installed before the
    // epoch may carry capability-store permission, and the epoch's
    // soundness depends on every cap store taking the walk path (where
    // markCapStore records it) until the epoch closes.  resolvePage
    // reports sweepEpochOpen from here on, so refills stay cap-cold.
    notifyInvalidateAll();
    std::vector<u64> work = sweepWorklist(force_full);
    // Stamp the initial worklist so markCapStore knows these pages
    // already have a pending visit and need not be re-queued.
    for (u64 va : work)
        pages.find(va)->second.queuedEpoch = epoch_id;
    return work;
}

void
AddressSpace::endSweepEpoch()
{
    activeSweepEpoch = 0;
    redirtied.clear();
}

std::vector<u64>
AddressSpace::takeRedirtiedPages()
{
    std::vector<u64> out = std::move(redirtied);
    redirtied.clear();
    return out;
}

u64
AddressSpace::revokeCapsInRange(u64 lo, u64 hi)
{
    return revokeCapsMatching([lo, hi](const Capability &cap) {
        return cap.base() >= lo && cap.base() < hi;
    });
}

u64
AddressSpace::residentPages() const
{
    u64 n = 0;
    for (const auto &[va, pte] : pages)
        n += pte.frame != nullptr;
    return n;
}

u64
AddressSpace::verifyCapContainment() const
{
    u64 violations = 0;
    forEachTaggedCap([&](u64, const Capability &cap) {
        bool ok = cap.base() >= root.base() && cap.top() <= root.top() &&
                  (cap.perms() & ~root.perms()) == 0;
        violations += !ok;
    });
    return violations;
}

u64
AddressSpace::taggedGranules() const
{
    u64 n = 0;
    for (const auto &[va, pte] : pages) {
        if (pte.frame)
            n += pte.frame->taggedCount();
    }
    return n;
}

} // namespace cheri
