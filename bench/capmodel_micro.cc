/**
 * @file
 * Host-time micro-benchmarks of the capability model itself: the cost
 * of the operations every simulated instruction pays (derivation,
 * checking, tagged-memory access, cache model).  Each is a fixed
 * number of calls timed as one loop, reported in host ns per call.
 * These are wall-clock numbers about the *reproduction library*, not
 * simulated results from the paper.
 */

#include "bench_util.h"
#include "cap/capability.h"
#include "machine/cache.h"
#include "mem/vm.h"

using namespace cheri;

namespace
{

/** Host nanoseconds per call of @p body over @p iters calls. */
template <typename Fn>
double
nsPerCall(u64 iters, Fn &&body)
{
    auto t0 = bench::Clock::now();
    for (u64 i = 0; i < iters; ++i)
        body();
    return bench::secondsSince(t0) * 1e9 / static_cast<double>(iters);
}

/** A fresh address space with @p bytes of read/write data mapped. */
struct Space
{
    PhysMem phys;
    SwapDevice swap;
    AddressSpace as{phys, swap, 1};
    u64 va;
    explicit Space(u64 bytes)
        : va(as.map(0, bytes, PROT_READ | PROT_WRITE, MappingKind::Data))
    {
    }
};

} // namespace

int
main(int argc, char **argv)
{
    bench::Report rep("capmodel_micro",
                      "Capability-model host cost (ns per call)", argc,
                      argv);
    Capability root = Capability::root().setAddress(0x10000);
    Capability page = root.setBounds(4096).value();

    for (u64 len : {u64{64}, u64{1} << 20}) {
        rep.metric("cap_set_bounds_" + std::to_string(len) + "_ns",
                   "Capability::setBounds(" + std::to_string(len) + ")",
                   nsPerCall(1 << 21, [&] {
                       bench::doNotOptimize(root);
                       auto r = root.setBounds(len);
                       bench::doNotOptimize(r);
                   }));
    }
    rep.metric("cap_check_access_ns", "Capability::checkAccess",
               nsPerCall(1 << 22, [&] {
                   bench::doNotOptimize(page);
                   auto chk = page.checkAccess(0x10800, 8, PERM_LOAD);
                   bench::doNotOptimize(chk);
               }));
    Capability cursor = page;
    rep.metric("cap_inc_address_ns", "Capability::incAddress",
               nsPerCall(1 << 21, [&] {
                   cursor = cursor.incAddress(8);
                   if (cursor.address() > 0x10F00)
                       cursor = cursor.setAddress(0x10000);
                   bench::doNotOptimize(cursor);
               }));
    for (u64 len : {u64{100}, u64{1} << 22}) {
        rep.metric("compress_round_trip_" + std::to_string(len) + "_ns",
                   "representable length + mask (" +
                       std::to_string(len) + ")",
                   nsPerCall(1 << 22, [&] {
                       bench::doNotOptimize(len);
                       u64 sum = compress::representableLength(len) +
                                 compress::representableAlignmentMask(len);
                       bench::doNotOptimize(sum);
                   }));
    }

    Space wr(1 << 20);
    Capability cap = wr.as.capForRange(wr.va, 64, PROT_READ | PROT_WRITE);
    u64 off = 0;
    rep.metric("tagged_memory_write_cap_ns", "AddressSpace::writeCap",
               nsPerCall(1 << 18, [&] {
                   wr.as.writeCap(wr.va + (off & 0xFFFF0), cap);
                   off += 16;
                   bench::doNotOptimize(off);
               }));
    Space rd(1 << 20);
    u64 buf[8];
    off = 0;
    rep.metric("address_space_read_bytes_ns",
               "AddressSpace::readBytes (64 B)", nsPerCall(1 << 18, [&] {
                   auto f = rd.as.readBytes(rd.va + (off & 0xFFFC0), buf,
                                            sizeof(buf));
                   bench::doNotOptimize(f);
                   off += 64;
               }));
    CacheHierarchy cache;
    u64 addr = 0;
    rep.metric("cache_hierarchy_access_ns", "CacheHierarchy::access",
               nsPerCall(1 << 21, [&] {
                   HitLevel lvl =
                       cache.access(addr & 0x7FFFF, 8, Access::DataLoad);
                   bench::doNotOptimize(lvl);
                   addr += 64;
               }));
    Space sw(pageSize);
    sw.as.writeCap(sw.va,
                   sw.as.capForRange(sw.va, 64, PROT_READ | PROT_WRITE));
    rep.metric("swap_out_in_ns", "swapOutPage + swap-in read",
               nsPerCall(1 << 14, [&] {
                   sw.as.swapOutPage(sw.va);
                   auto f = sw.as.readBytes(sw.va, buf, 8); // swap-in
                   bench::doNotOptimize(f);
               }));
    rep.note("Host wall-clock cost of the reproduction library, not "
             "simulated cycles.");
    return rep.finish();
}
