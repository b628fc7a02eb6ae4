/**
 * @file
 * Error numbers and system-call results for the MiniBSD kernel.
 */

#ifndef CHERI_OS_ERRNO_H
#define CHERI_OS_ERRNO_H

#include <string_view>

#include "cap/types.h"

namespace cheri
{

/** Subset of BSD errno values the kernel reports. */
enum Errno : int
{
    E_OK = 0,
    E_PERM = 1,
    E_NOENT = 2,
    E_SRCH = 3,
    E_INTR = 4,
    /** execve: the image cannot be linked (missing library,
     *  unresolved symbol). */
    E_NOEXEC = 8,
    E_BADF = 9,
    E_CHILD = 10,
    /** Deadlock detected: the watchdog killed a victim whose waiter
     *  chain could never be woken; surfaced through wait4. */
    E_DEADLK = 11,
    E_NOMEM = 12,
    E_ACCES = 13,
    E_FAULT = 14,
    E_BUSY = 16,
    E_EXIST = 17,
    E_NOTDIR = 20,
    E_ISDIR = 21,
    E_INVAL = 22,
    E_NOTTY = 25,
    E_NOSPC = 28,
    E_PIPE = 32,
    E_RANGE = 34,
    E_AGAIN = 35,
    E_NOSYS = 78,
    /** CHERI-specific: capability check failed at the syscall layer. */
    E_PROT = 96,
};

std::string_view errnoName(int err);

/**
 * Result of a system call: a value on success, an errno on failure —
 * mirroring the kernel's (error, return-value) convention.
 */
struct SysResult
{
    u64 value = 0;
    int error = E_OK;

    static SysResult ok(u64 v = 0) { return {v, E_OK}; }
    static SysResult fail(int err) { return {0, err}; }
    bool failed() const { return error != E_OK; }
};

} // namespace cheri

#endif // CHERI_OS_ERRNO_H
