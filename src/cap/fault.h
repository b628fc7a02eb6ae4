/**
 * @file
 * Capability fault (exception) causes.
 *
 * Mirrors the CHERI-MIPS capability exception cause codes relevant to
 * CheriABI.  Any guest memory access or capability manipulation that
 * violates the architecture's provenance, integrity, monotonicity, or
 * spatial rules raises one of these.
 */

#ifndef CHERI_CAP_FAULT_H
#define CHERI_CAP_FAULT_H

#include <cstdint>
#include <optional>
#include <string_view>

namespace cheri
{

/** Architectural capability exception causes. */
enum class CapFault : std::uint8_t
{
    None = 0,
    /** Capability tag is clear (provenance violation). */
    TagViolation,
    /** Capability is sealed and the operation requires unsealed. */
    SealViolation,
    /** Access outside [base, top). */
    LengthViolation,
    /** Requested permission bit not present. */
    PermitLoadViolation,
    PermitStoreViolation,
    PermitExecuteViolation,
    PermitLoadCapViolation,
    PermitStoreCapViolation,
    PermitStoreLocalCapViolation,
    PermitSealViolation,
    PermitUnsealViolation,
    PermitAccessSysRegsViolation,
    /** Attempted non-monotonic derivation (bounds/perms increase). */
    MonotonicityViolation,
    /** Otype mismatch on unseal / ccall. */
    TypeViolation,
    /** Requested bounds cannot be represented exactly (CSetBoundsExact). */
    InexactBoundsViolation,
    /** Address not aligned as required (capability load/store). */
    AlignmentViolation,
    /** MMU: no mapping / protection fault at the translated address. */
    PageFault,
    /** Software check: user lacked the required vmmap permission. */
    VmmapPermViolation,
    /** MMU: frame allocation failed under memory pressure; the fault
     *  is guest-visible (ENOMEM / SIG_KILL), never a host abort. */
    MemoryExhausted,
    /** MMU: the swap device failed to read a page back; the slot is
     *  retained so the access can be retried. */
    SwapInFailure,
    /** Detected memory corruption (injected tag/data bit flip): the
     *  tag is cleared and the access faults like hardware raising a
     *  machine check — guest-visible, never a host abort. */
    MachineCheck,
};

/** Number of distinct CapFault causes (for cause-indexed tables). */
constexpr unsigned numCapFaults =
    static_cast<unsigned>(CapFault::MachineCheck) + 1;

/** Human-readable fault name for diagnostics and test output. */
std::string_view capFaultName(CapFault fault);

/**
 * Result of a checked operation: empty optional means success; otherwise
 * the fault that would be raised.
 */
using CapCheck = std::optional<CapFault>;

} // namespace cheri

#endif // CHERI_CAP_FAULT_H
