#include "guest/context.h"

#include "os/sched/sched.h"
#include "os/sys_invoke.h"

namespace cheri
{

namespace
{

/** The libc stub convention: -errno on failure, the value otherwise. */
s64
retOrNegErrno(const SysResult &r)
{
    return r.failed() ? -r.error : static_cast<s64>(r.value);
}

} // namespace

const Capability &
GuestContext::authorityFor(const GuestPtr &p) const
{
    // CheriABI: the pointer *is* the authority.  mips64: the pointer is
    // an integer; the implicit authority is DDC.  Hybrid: annotated
    // (tagged) pointers carry their own authority, unannotated ones
    // fall back to DDC.
    if (isCheri())
        return p.cap;
    if (abi() == Abi::Hybrid && p.cap.tag())
        return p.cap;
    return _proc.ddc();
}

void
GuestContext::read(const GuestPtr &p, void *buf, u64 len)
{
    const Capability &via = authorityFor(p);
    if (CapCheck chk = via.checkAccess(p.addr(), len, PERM_LOAD))
        throw CapTrap(*chk, p.addr(), via, "guest load");
    cost().load(p.addr(), len);
    if (CapCheck fault = _proc.mem().read(p.addr(), buf, len))
        throw CapTrap(*fault, p.addr(), via, "guest load");
}

void
GuestContext::write(const GuestPtr &p, const void *buf, u64 len)
{
    const Capability &via = authorityFor(p);
    if (CapCheck chk = via.checkAccess(p.addr(), len, PERM_STORE))
        throw CapTrap(*chk, p.addr(), via, "guest store");
    cost().store(p.addr(), len);
    if (CapCheck fault = _proc.mem().write(p.addr(), buf, len))
        throw CapTrap(*fault, p.addr(), via, "guest store");
}

GuestPtr
GuestContext::loadPtr(const GuestPtr &p, s64 off)
{
    GuestPtr at = p + off;
    if (isCheri()) {
        const Capability &via = at.cap;
        if (CapCheck chk = via.checkAccess(at.addr(), capSize,
                                           PERM_LOAD | PERM_LOAD_CAP)) {
            throw CapTrap(*chk, at.addr(), via, "pointer load");
        }
        cost().load(at.addr(), capSize);
        Result<Capability> r = _proc.mem().readCap(at.addr());
        if (!r.ok())
            throw CapTrap(r.fault(), at.addr(), via, "pointer load");
        return GuestPtr(r.value());
    }
    u64 addr = load<u64>(at);
    return GuestPtr(Capability::fromAddress(addr));
}

void
GuestContext::storePtr(const GuestPtr &p, s64 off, const GuestPtr &v)
{
    GuestPtr at = p + off;
    if (isCheri()) {
        const Capability &via = at.cap;
        if (CapCheck chk = via.checkAccess(at.addr(), capSize,
                                           PERM_STORE | PERM_STORE_CAP)) {
            throw CapTrap(*chk, at.addr(), via, "pointer store");
        }
        cost().store(at.addr(), capSize);
        if (CapCheck fault = _proc.mem().writeCap(at.addr(), v.cap))
            throw CapTrap(*fault, at.addr(), via, "pointer store");
        return;
    }
    store<u64>(at, 0, v.addr());
}

GuestPtr
GuestContext::mmap(u64 len, u32 prot, u32 flags, GuestPtr hint)
{
    SysInvokeResult r =
        sysInvoke(kern, _proc, SysNum::Mmap,
                  {SysArg::p(toUser(hint)), SysArg::i(len),
                   SysArg::i(prot), SysArg::i(flags)});
    if (r.res.failed())
        return GuestPtr();
    return GuestPtr(r.out.isCap ? r.out.cap
                                : Capability::fromAddress(r.out.addr()));
}

int
GuestContext::munmap(const GuestPtr &p, u64 len)
{
    return sysInvoke(kern, _proc, SysNum::Munmap,
                     {SysArg::p(toUser(p)), SysArg::i(len)})
        .res.error;
}

int
GuestContext::mprotect(const GuestPtr &p, u64 len, u32 prot)
{
    return sysInvoke(kern, _proc, SysNum::Mprotect,
                     {SysArg::p(toUser(p)), SysArg::i(len),
                      SysArg::i(prot)})
        .res.error;
}

GuestPtr
GuestContext::stageString(const std::string &s)
{
    u64 need = s.size() + 1;
    if (scratchSize < need || scratch.isNull()) {
        u64 len = std::max<u64>(pageSize, need);
        scratch = mmap(len);
        scratchSize = len;
    }
    write(scratch, s.c_str(), need);
    return scratch;
}

std::string
GuestContext::readString(const GuestPtr &p, u64 max)
{
    std::string out;
    for (u64 i = 0; i < max; ++i) {
        char c = load<char>(p, static_cast<s64>(i));
        if (c == '\0')
            break;
        out.push_back(c);
    }
    return out;
}

s64
GuestContext::open(const std::string &path, u32 flags)
{
    GuestPtr p = stageString(path);
    return retOrNegErrno(sysInvoke(kern, _proc, SysNum::Open,
                                   {SysArg::p(toUser(p)),
                                    SysArg::i(flags)})
                             .res);
}

s64
GuestContext::read(int fd, const GuestPtr &buf, u64 len)
{
    return retOrNegErrno(
        sysInvoke(kern, _proc, SysNum::Read,
                  {SysArg::i(static_cast<u64>(fd)),
                   SysArg::p(toUser(buf)), SysArg::i(len)})
            .res);
}

s64
GuestContext::write(int fd, const GuestPtr &buf, u64 len)
{
    return retOrNegErrno(
        sysInvoke(kern, _proc, SysNum::Write,
                  {SysArg::i(static_cast<u64>(fd)),
                   SysArg::p(toUser(buf)), SysArg::i(len)})
            .res);
}

int
GuestContext::close(int fd)
{
    return sysInvoke(kern, _proc, SysNum::Close,
                     {SysArg::i(static_cast<u64>(fd))})
        .res.error;
}

s64
GuestContext::lseek(int fd, s64 off, int whence)
{
    return retOrNegErrno(
        sysInvoke(kern, _proc, SysNum::Lseek,
                  {SysArg::i(static_cast<u64>(fd)),
                   SysArg::i(static_cast<u64>(off)),
                   SysArg::i(static_cast<u64>(whence))})
            .res);
}

int
GuestContext::pipe(const GuestPtr &fds, u32 flags)
{
    return sysInvoke(kern, _proc, SysNum::Pipe,
                     {SysArg::p(toUser(fds)), SysArg::i(flags)})
        .res.error;
}

s64
GuestContext::dup(int fd)
{
    return retOrNegErrno(sysInvoke(kern, _proc, SysNum::Dup,
                                   {SysArg::i(static_cast<u64>(fd))})
                             .res);
}

s64
GuestContext::getpid()
{
    return retOrNegErrno(sysInvoke(kern, _proc, SysNum::Getpid).res);
}

int
GuestContext::kill(u64 pid, int sig)
{
    return sysInvoke(kern, _proc, SysNum::Kill,
                     {SysArg::i(pid), SysArg::i(static_cast<u64>(sig))})
        .res.error;
}

s64
GuestContext::getcwd(const GuestPtr &buf, u64 len)
{
    return retOrNegErrno(sysInvoke(kern, _proc, SysNum::Getcwd,
                                   {SysArg::p(toUser(buf)),
                                    SysArg::i(len)})
                             .res);
}

s64
GuestContext::select(int nfds, const GuestPtr &rd, const GuestPtr &wr,
                     const GuestPtr &ex, const GuestPtr &timeout)
{
    return retOrNegErrno(
        sysInvoke(kern, _proc, SysNum::Select,
                  {SysArg::i(static_cast<u64>(nfds)),
                   SysArg::p(toUser(rd)), SysArg::p(toUser(wr)),
                   SysArg::p(toUser(ex)), SysArg::p(toUser(timeout))})
            .res);
}

StackFrame::StackFrame(GuestContext &ctx, u64 frame_bytes,
                       u64 n_bounded_locals, u64 n_args, bool variadic)
    : ctx(ctx), savedStack(ctx.proc().regs().stack())
{
    frame_bytes = (frame_bytes + 15) & ~u64{15};
    u64 sp = savedStack.address() - frame_bytes;
    ctx.proc().regs().stack() = savedStack.setAddress(sp);
    frameBase = sp;
    bumpAddr = sp;
    ctx.cost().call(sp, n_bounded_locals, n_args, variadic);
}

StackFrame::~StackFrame()
{
    ctx.proc().regs().stack() = savedStack;
    ctx.cost().alu(2); // epilogue
}

GuestPtr
StackFrame::alloc(u64 size, u64 align)
{
    // CheriABI pads and aligns so the derived capability is exactly
    // representable and never overlaps a neighbour's granule.
    if (ctx.isCheri()) {
        u64 mask = compress::representableAlignmentMask(size);
        u64 cap_align = ~mask + 1;
        if (cap_align == 0)
            cap_align = 1;
        align = std::max(align, cap_align);
        size = compress::representableLength(size);
    }
    u64 addr = (bumpAddr + align - 1) & ~(align - 1);
    bumpAddr = addr + size;
    const Capability &stack_cap = ctx.proc().regs().stack();
    if (!ctx.isCheri())
        return GuestPtr(Capability::fromAddress(addr));
    // The compiler-emitted CSetBounds for an address-taken local.
    Capability c = stack_cap.setAddress(addr);
    auto b = c.setBounds(size);
    if (!b.ok())
        throw CapTrap(b.fault(), addr, stack_cap, "stack alloc");
    ctx.cost().capManip(2);
    if (TraceSink *tr = ctx.kernel().trace())
        tr->derive(DeriveSource::Stack, b.value());
    return GuestPtr(b.value());
}

int
runGuest(GuestContext &ctx, const std::function<int(GuestContext &)> &fn)
{
    // Host-driven guests execute as hosted contexts on the kernel's
    // scheduler: the body runs to completion in one slice, but shares
    // the execution engine (and its background work — revocation pump,
    // frame reclaim) with any interpreted guests that are runnable.
    Process &proc = ctx.proc();
    int rc = 0;
    sched::Scheduler &s = sched::schedulerFor(ctx.kernel());
    s.runHosted(proc, [&] {
        try {
            rc = fn(ctx);
            ctx.kernel().deliverSignals(proc);
            if (proc.exited()) {
                rc = proc.exitStatus();
                return;
            }
            ctx.kernel().exitProcess(proc, rc);
        } catch (const CapTrap &trap) {
            DeathInfo info;
            info.signal = SIG_PROT;
            info.fault = trap.fault();
            info.faultAddr = trap.addr();
            info.detail = trap.what();
            info.faultCap = trap.via();
            info.faultCapKnown = true;
            ctx.kernel().faultProcess(proc, info);
            rc = proc.exited() ? proc.exitStatus() : 128 + SIG_PROT;
        }
    });
    return rc;
}

void
GuestSystem::hosted(std::function<void()> fn)
{
    sched::schedulerFor(kern).runHosted(*proc, std::move(fn));
}

} // namespace cheri
