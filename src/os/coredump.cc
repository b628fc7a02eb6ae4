#include "os/coredump.h"

#include <cstring>
#include <utility>

#include "os/process.h"
#include "os/snapshot/archive.h"

namespace cheri
{

namespace
{

constexpr char coreMagic[8] = {'M', 'B', 'S', 'D', 'C', 'O', 'R', 'E'};

/**
 * A capability *value* as a 40-byte record: tag and sealed bytes,
 * perms, otype, then base, top (saturated to 2^64-1) and address, with
 * zero padding.  This is data about a capability, not a capability —
 * reading a core file can never mint authority: the value comes back
 * untagged, rebuilt with root-derived bounds, and the tag/perm
 * metadata is shown from the record.
 */
template <class Ar, class T>
void
ioCap(Ar &ar, T &c)
{
    u8 tag = 0, sealed = 0;
    u16 pad16 = 0;
    u32 perms = 0, otype = 0, pad32 = 0;
    u64 base = 0, top = 0, address = 0;
    if constexpr (Ar::saving) {
        tag = c.tag();
        sealed = c.sealed();
        perms = c.perms();
        otype = c.otype();
        base = c.base();
        top = c.top() > u128{~u64{0}} ? ~u64{0} : static_cast<u64>(c.top());
        address = c.address();
    }
    ar.u8(tag, sealed);
    ar.u16(pad16);
    ar.u32(perms, otype, pad32);
    ar.u64(base, top, address);
    if constexpr (Ar::loading) {
        Capability v = Capability::root().setAddress(base);
        auto b = v.setBounds(top - base);
        Capability shaped = b.ok() ? b.value() : v;
        auto p = shaped.andPerms(perms);
        if (p.ok())
            shaped = p.value();
        c = shaped.setAddress(address).withoutTag();
    }
}

/** The core file's layout, listed once for writing and reading. */
template <class Ar, class C>
void
ioCore(Ar &ar, C &core)
{
    char magic[sizeof(coreMagic)];
    std::memcpy(magic, coreMagic, sizeof(magic));
    ar.bytes(magic, sizeof(magic));
    if (std::memcmp(magic, coreMagic, sizeof(magic)) != 0)
        throw snap::ParseError("bad core magic");
    ar.u64(core.pid);
    ar.str(core.name);
    ar.u32(core.signal, core.fault);
    ar.u64(core.faultAddr);
    // Register file: pcc, ddc, c[0..31], x[0..31].
    ioCap(ar, core.regs.pcc);
    ioCap(ar, core.regs.ddc);
    for (auto &c : core.regs.c)
        ioCap(ar, c);
    for (auto &x : core.regs.x)
        ar.u64(x);
    // Memory map.
    snap::seq(ar, core.mappings, [&](auto &m) {
        ar.u64(m.start, m.len);
        ar.u32(m.prot, m.kind);
        ar.str(m.name);
    });
}

} // namespace

void
writeCoreFile(const Process &proc, VNode &node)
{
    CoreDump core;
    core.pid = proc.pid();
    core.name = proc.name();
    if (const auto &death = proc.death()) {
        core.signal = death->signal;
        core.fault = death->fault;
        core.faultAddr = death->faultAddr;
    }
    core.regs = proc.regs();
    proc.as().forEachMapping(
        [&](const Mapping &m) { core.mappings.push_back(m); });
    snap::Writer ar;
    ioCore(ar, std::as_const(core));
    node.data = ar.take();
}

std::optional<CoreDump>
readCoreFile(const VNode &node)
{
    try {
        snap::Reader ar(node.data);
        CoreDump core;
        ioCore(ar, core);
        return core;
    } catch (const snap::ParseError &) {
        return std::nullopt;
    }
}

} // namespace cheri
