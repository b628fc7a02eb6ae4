/**
 * @file
 * The CHERI-aware run-time linker (RTLD).
 *
 * Loads a SELF program and its shared libraries into a process image,
 * then performs the dynamic relocations that distinguish CheriABI from
 * classic dynamic linking:
 *
 *  - each GOT slot for a *global variable* receives a capability bounded
 *    to exactly that variable's size;
 *  - each GOT slot for a *function* receives an executable capability
 *    bounded to the defining shared object (wide enough for PC-relative
 *    addressing and intra-object branches);
 *  - in-data pointer initializers are re-minted at startup, because
 *    tags do not survive on disk (the overhead the paper compares to
 *    position-independent binaries).
 *
 * Under the legacy mips64 ABI the same slots are filled with plain
 * 64-bit virtual addresses.
 *
 * The linker runs in userspace: it touches the process only through the
 * LinkerEnv interface (mmap-backed mappings and checked stores).
 */

#ifndef CHERI_RTLD_RTLD_H
#define CHERI_RTLD_RTLD_H

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cap/capability.h"
#include "machine/cost_model.h"
#include "mem/vm.h"
#include "rtld/self_format.h"
#include "trace/trace.h"

namespace cheri
{

/** The RTLD rejected an image: a missing library, an unresolved symbol
 *  or a symbol no bounded capability can describe. */
struct LinkError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Services the linker needs from the process/kernel it runs in. */
class LinkerEnv
{
  public:
    virtual ~LinkerEnv() = default;

    /** Which ABI the process uses (decides GOT entry width). */
    virtual Abi abi() const = 0;

    /**
     * Map @p len bytes with @p prot; returns the mmap capability
     * (CheriABI) or an untagged address capability (mips64).
     */
    virtual Capability mapPages(u64 len, u32 prot,
                                const std::string &name) = 0;

    /** Store bytes into the process image. */
    virtual void storeBytes(u64 va, const void *buf, u64 len) = 0;

    /** Store a capability (or, under mips64, its 8-byte address). */
    virtual void storePointer(u64 va, const Capability &cap) = 0;

    /** Optional derivation trace sink. */
    virtual TraceSink *trace() const { return nullptr; }

    /** Optional cost model charged for relocation work. */
    virtual CostModel *cost() const { return nullptr; }
};

/** A SELF object as mapped into a process. */
struct LinkedObject
{
    const SelfObject *object = nullptr;
    /** Capability over the text mapping (PCC source). */
    Capability textCap;
    /** Capability over rodata. */
    Capability rodataCap;
    /** Capability over data+bss. */
    Capability dataCap;
    /** Capability over this object's GOT. */
    Capability gotCap;
    u64 textBase = 0;
    u64 rodataBase = 0;
    u64 dataBase = 0;
    u64 gotBase = 0;
    u64 gotSlots = 0;
};

/** A fully linked process image. */
struct LinkedImage
{
    std::vector<LinkedObject> objects; // [0] is the main program

    const LinkedObject *
    find(const std::string &name) const
    {
        for (const auto &o : objects) {
            if (o.object->name == name)
                return &o;
        }
        return nullptr;
    }
};

/**
 * Resolution of one symbol: the exact capability (or address) a GOT
 * slot holds after relocation.
 */
struct ResolvedSymbol
{
    Capability cap;
    const LinkedObject *definingObject = nullptr;
    const SelfSymbol *symbol = nullptr;
};

class Rtld
{
  public:
    /** @param libraries registry of loadable shared objects by name. */
    explicit Rtld(std::map<std::string, const SelfObject *> libraries = {})
        : libs(std::move(libraries))
    {
    }

    void
    registerLibrary(const SelfObject *obj)
    {
        libs[obj->name] = obj;
    }

    /**
     * Load @p program and its transitive dependencies into the process
     * behind @p env, process all relocations, and return the image.
     * Throws LinkError when the image cannot be linked; a failing
     * LinkerEnv may throw its own errors.
     */
    LinkedImage link(const SelfObject &program, LinkerEnv &env) const;

    /**
     * Look up @p symbol across the image (dlsym analogue), returning
     * the same capability a GOT slot would hold.
     */
    static ResolvedSymbol resolve(const LinkedImage &image,
                                  const std::string &symbol, Abi abi);

  private:
    LinkedObject loadObject(const SelfObject &obj, LinkerEnv &env) const;

    std::map<std::string, const SelfObject *> libs;
};

} // namespace cheri

#endif // CHERI_RTLD_RTLD_H
