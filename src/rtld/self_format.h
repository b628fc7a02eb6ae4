/**
 * @file
 * SELF — the Simulated ELF object format.
 *
 * Guest programs and libraries in this reproduction carry their data
 * segments, symbol tables, and *capability relocations* in this format.
 * Code is host C++ (workload kernels), so the text segment is modeled by
 * size only; what matters for CheriABI is everything the run-time linker
 * does with pointers: initializing global variables that contain
 * pointers (tags are not preserved on disk, so these must be relocated
 * at startup), and filling the capability GOT with per-symbol bounded
 * capabilities (paper section 4, "Dynamic linking").
 */

#ifndef CHERI_RTLD_SELF_FORMAT_H
#define CHERI_RTLD_SELF_FORMAT_H

#include <string>
#include <vector>

#include "cap/types.h"

namespace cheri
{

/** A symbol exported by a SELF object. */
struct SelfSymbol
{
    std::string name;
    /** Offset into the text (functions) or data (objects) segment. */
    u64 offset = 0;
    /** Size of the symbol in bytes. */
    u64 size = 0;
    bool isFunction = false;
};

/** Kinds of dynamic relocation the CHERI RTLD processes. */
enum class RelocKind
{
    /**
     * GOT entry for a global variable: RTLD installs a capability
     * bounded to exactly that variable.
     */
    CapGlobal,
    /**
     * GOT entry for a function: RTLD installs an execute-permission
     * capability bounded to the defining shared object (not the single
     * function — preserving intra-object branches and PC-relative
     * addressing, as the paper describes).
     */
    CapFunction,
    /**
     * An in-data pointer initializer ("__cap_reloc"): a global variable
     * at `offset` must point to `symbol`.  On disk it is just bytes;
     * RTLD re-mints the capability at startup.
     */
    CapInit,
};

struct SelfReloc
{
    RelocKind kind = RelocKind::CapGlobal;
    /** For CapGlobal/CapFunction: index of the GOT slot to fill. */
    u64 gotIndex = 0;
    /** For CapInit: offset in the data segment to patch. */
    u64 dataOffset = 0;
    /** Name of the target symbol. */
    std::string symbol;
};

/** One loadable object: a program or shared library. */
struct SelfObject
{
    std::string name;
    /** Bytes of (simulated) code. */
    u64 textSize = 0x4000;
    /** Initialized read-only data. */
    std::vector<u8> rodata{};
    /** Initialized writable data. */
    std::vector<u8> data{};
    /** Zero-initialized data appended after `data`. */
    u64 bssSize = 0;
    std::vector<SelfSymbol> symbols{};
    std::vector<SelfReloc> relocs{};
    /** Names of shared libraries this object requires. */
    std::vector<std::string> needed{};

    /** Add @p n data symbols `<prefix>0`, `<prefix>1`, ..., each
     *  @p size bytes at data offset i * size, with GOT slot i for each. */
    void
    addGlobals(const std::string &prefix, int n, u64 size)
    {
        for (int i = 0; i < n; ++i) {
            std::string sym = prefix + std::to_string(i);
            u64 slot = static_cast<u64>(i);
            symbols.push_back({sym, slot * size, size, false});
            relocs.push_back({RelocKind::CapGlobal, slot, 0, sym});
        }
    }

    /** Number of GOT slots this object needs. */
    u64
    gotSlots() const
    {
        u64 n = 0;
        for (const auto &r : relocs) {
            if (r.kind != RelocKind::CapInit)
                n = std::max(n, r.gotIndex + 1);
        }
        return n;
    }

    const SelfSymbol *
    findSymbol(const std::string &sym) const
    {
        for (const auto &s : symbols) {
            if (s.name == sym)
                return &s;
        }
        return nullptr;
    }
};

} // namespace cheri

#endif // CHERI_RTLD_SELF_FORMAT_H
