/**
 * @file
 * The compatibility corpus: executable C idioms in the paper's Table 2
 * taxonomy.
 *
 * Porting FreeBSD userspace to CheriABI required source changes in
 * eleven categories (paper section 5.3).  Each corpus entry captures
 * one such idiom as *runnable code*: the legacy form (as found in BSD
 * sources) and the CheriABI-clean rewrite.  Running both forms under
 * both ABIs demonstrates — rather than asserts — why the change was
 * needed: the legacy form works under mips64, traps or misbehaves
 * under CheriABI (or at minimum draws a compiler diagnostic), and the
 * fixed form works everywhere.
 */

#ifndef CHERI_COMPAT_IDIOMS_H
#define CHERI_COMPAT_IDIOMS_H

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "guest/context.h"

namespace cheri::compat
{

/** Table 2 change classes. */
enum class CompatClass
{
    PP, ///< pointer provenance
    IP, ///< integer provenance
    M,  ///< monotonicity
    PS, ///< pointer shape
    I,  ///< pointer as integer
    VA, ///< virtual-address manipulation
    BF, ///< bit flags in pointers
    H,  ///< hashing virtual addresses
    A,  ///< pointer alignment adjustment
    CC, ///< calling convention
    U,  ///< unsupported
};

/** Where in the source tree the change landed (Table 2 rows). */
enum class Component
{
    Headers,
    Libraries,
    Programs,
    Tests,
};

constexpr unsigned numCompatClasses = 11;
constexpr unsigned numComponents = 4;

const char *compatClassName(CompatClass c);
const char *componentName(Component c);

/** An idiom scenario returns true when it behaved correctly. */
using Scenario = std::function<bool(GuestContext &)>;

struct Idiom
{
    std::string name;
    Component component = Component::Libraries;
    CompatClass cls = CompatClass::PP;
    /** The code as found in the legacy source tree. */
    Scenario legacy;
    /** The CheriABI-clean rewrite. */
    Scenario fixed;
    /**
     * Whether the legacy form actually faults under CheriABI.  Some
     * classes (hashing, sentinels) keep working but still required
     * source changes flagged by the compiler; those set this false.
     */
    bool legacyTrapsUnderCheri = true;
};

/** Result of exercising one idiom under both ABIs. */
struct IdiomResult
{
    const Idiom *idiom = nullptr;
    bool legacyOkMips = false;
    bool legacyOkCheri = false;
    bool fixedOkCheri = false;
    bool fixedOkMips = false;

    /** The idiom behaved exactly as the taxonomy predicts. */
    bool
    consistent() const
    {
        return legacyOkMips && fixedOkCheri && fixedOkMips &&
               (legacyOkCheri == !idiom->legacyTrapsUnderCheri);
    }
};

/** The full corpus. */
const std::vector<Idiom> &corpus();

/** How one scenario run ended. */
enum class Outcome
{
    Worked,  ///< the scenario returned true
    Refused, ///< it returned false (e.g. the kernel denied a call)
    Trapped, ///< a capability trap ended it
    Broken,  ///< the boot failed, or it threw something else
};

/** Run one scenario in a fresh process under @p abi. */
Outcome runScenario(const Scenario &fn, Abi abi);

/** Run every idiom under both ABIs. */
std::vector<IdiomResult> runCorpus();

/** Table 2: change counts per component and class. */
using CompatTable = std::map<Component, std::map<CompatClass, unsigned>>;
CompatTable tabulate(const std::vector<IdiomResult> &results);

/** Render the table like the paper's Table 2. */
std::string formatTable(const CompatTable &table);

} // namespace cheri::compat

#endif // CHERI_COMPAT_IDIOMS_H
