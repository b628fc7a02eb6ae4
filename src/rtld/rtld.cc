#include "rtld/rtld.h"

#include <cassert>
#include <stdexcept>

namespace cheri
{

namespace
{

/** Search an image for the object defining @p name. */
std::pair<const LinkedObject *, const SelfSymbol *>
findDefinition(const std::vector<LinkedObject> &objects,
               const std::string &name)
{
    for (const auto &lo : objects) {
        if (const SelfSymbol *s = lo.object->findSymbol(name))
            return {&lo, s};
    }
    return {nullptr, nullptr};
}

/** Mint the capability a relocation against @p sym installs. */
Capability
capForSymbol(const LinkedObject &def, const SelfSymbol &sym, Abi abi)
{
    if (sym.isFunction) {
        // Function capabilities are bounded to the defining shared
        // object, preserving PC-relative addressing (paper section 4).
        Capability c = def.textCap.setAddress(def.textBase + sym.offset);
        if (abi == Abi::CheriAbi) {
            auto p = c.andPerms(permsCode);
            if (p.ok())
                return p.value();
        }
        return c;
    }
    // Data symbols get per-variable bounds.
    Capability c = def.dataCap.setAddress(def.dataBase + sym.offset);
    if (abi != Abi::CheriAbi)
        return c;
    auto b = c.setBounds(sym.size);
    if (!b.ok())
        throw LinkError("rtld: symbol bounds not derivable: " +
                                 sym.name);
    auto p = b.value().andPerms(permsData);
    assert(p.ok());
    return p.value();
}

} // namespace

LinkedObject
Rtld::loadObject(const SelfObject &obj, LinkerEnv &env) const
{
    LinkedObject lo;
    lo.object = &obj;
    // Text: modeled by size; mapped read+exec.
    lo.textCap = env.mapPages(obj.textSize, PROT_READ | PROT_EXEC,
                              obj.name + ":text");
    lo.textBase = lo.textCap.address();
    if (!obj.rodata.empty()) {
        lo.rodataCap = env.mapPages(obj.rodata.size(), PROT_READ,
                                    obj.name + ":rodata");
        lo.rodataBase = lo.rodataCap.address();
        env.storeBytes(lo.rodataBase, obj.rodata.data(),
                       obj.rodata.size());
    }
    u64 data_len = obj.data.size() + obj.bssSize;
    if (data_len == 0)
        data_len = 16;
    lo.dataCap = env.mapPages(data_len, PROT_READ | PROT_WRITE,
                              obj.name + ":data");
    lo.dataBase = lo.dataCap.address();
    if (!obj.data.empty())
        env.storeBytes(lo.dataBase, obj.data.data(), obj.data.size());
    lo.gotSlots = obj.gotSlots();
    if (lo.gotSlots > 0) {
        u64 slot = env.abi() == Abi::CheriAbi ? capSize : 8;
        lo.gotCap = env.mapPages(lo.gotSlots * slot,
                                 PROT_READ | PROT_WRITE,
                                 obj.name + ":got");
        lo.gotBase = lo.gotCap.address();
    }
    return lo;
}

LinkedImage
Rtld::link(const SelfObject &program, LinkerEnv &env) const
{
    // Breadth-first load of the dependency graph, program first.
    LinkedImage image;
    std::vector<const SelfObject *> order{&program};
    for (size_t i = 0; i < order.size(); ++i) {
        for (const std::string &dep : order[i]->needed) {
            bool seen = false;
            for (const SelfObject *o : order)
                seen |= o->name == dep;
            if (seen)
                continue;
            auto it = libs.find(dep);
            if (it == libs.end())
                throw LinkError("rtld: missing library: " + dep);
            order.push_back(it->second);
        }
    }
    image.objects.reserve(order.size());
    for (const SelfObject *o : order)
        image.objects.push_back(loadObject(*o, env));

    // Relocation pass.
    const u64 slot = env.abi() == Abi::CheriAbi ? capSize : 8;
    for (LinkedObject &lo : image.objects) {
        for (const SelfReloc &rel : lo.object->relocs) {
            auto [def, sym] = findDefinition(image.objects, rel.symbol);
            if (!def) {
                throw LinkError("rtld: unresolved symbol: " +
                                         rel.symbol);
            }
            Capability cap = capForSymbol(*def, *sym, env.abi());
            if (CostModel *cost = env.cost())
                cost->capManip(2); // derive + bound
            if (TraceSink *tr = env.trace())
                tr->derive(DeriveSource::GlobRelocs, cap);
            if (rel.kind == RelocKind::CapInit) {
                env.storePointer(lo.dataBase + rel.dataOffset, cap);
            } else {
                env.storePointer(lo.gotBase + rel.gotIndex * slot, cap);
            }
        }
    }
    return image;
}

ResolvedSymbol
Rtld::resolve(const LinkedImage &image, const std::string &symbol, Abi abi)
{
    auto [def, sym] = findDefinition(image.objects, symbol);
    if (!def)
        return {};
    ResolvedSymbol out;
    out.definingObject = def;
    out.symbol = sym;
    out.cap = capForSymbol(*def, *sym, abi);
    return out;
}

} // namespace cheri
