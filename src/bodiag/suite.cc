#include "bodiag/suite.h"

#include <sstream>

#include "guest/context.h"
#include "libc/cstring.h"
#include "libc/malloc.h"
#include "libc/tls.h"
#include "sanitizer/asan.h"

namespace cheri::bodiag
{

namespace
{

const char *
regionName(Region r)
{
    switch (r) {
      case Region::Stack: return "stack";
      case Region::Heap: return "heap";
      case Region::Global: return "global";
      case Region::Tls: return "tls";
    }
    return "?";
}

const char *
techName(Technique t)
{
    switch (t) {
      case Technique::DirectIndex: return "direct";
      case Technique::LoopIndex: return "loop";
      case Technique::PtrArith: return "ptr-arith";
      case Technique::LibcMemcpy: return "memcpy";
      case Technique::LibcStrcpy: return "strcpy";
      case Technique::PosixGetcwd: return "getcwd";
      case Technique::IntraObject: return "intra-object";
      case Technique::Uninstrumented: return "uninstrumented";
      case Technique::NeighborSkip: return "neighbor-skip";
    }
    return "?";
}

u64
magBytes(Magnitude m)
{
    switch (m) {
      case Magnitude::Ok: return 0;
      case Magnitude::Min: return 1;
      case Magnitude::Med: return 8;
      case Magnitude::Large: return 4096;
    }
    return 0;
}

/** The environment one case runs in. */
struct CaseEnv
{
    GuestSystem sys;
    Mode mode;
    std::unique_ptr<AsanRuntime> asan;
    /** An ASan case's buffer frame: must stay live for the whole case
     *  (popping it would move the stack pointer mid-access), so the
     *  env owns it and tears it down first. */
    std::unique_ptr<StackFrame> frame;

    explicit CaseEnv(Mode m)
        : sys(m == Mode::CheriAbi ? Abi::CheriAbi : Abi::Mips64,
              {.name = "bodiag", .textSize = 0x1000}, {"bodiag"}),
          mode(m)
    {
    }

    bool cheri() const { return mode == Mode::CheriAbi; }

    /** Checked access of one byte at @p addr-ish offset. */
    void
    access(const GuestPtr &p, s64 off, AccessKind kind)
    {
        if (mode == Mode::Asan) {
            if (kind == AccessKind::Write)
                asan->store<u8>(p, off, 0x41);
            else
                (void)asan->load<u8>(p, off);
            return;
        }
        if (kind == AccessKind::Write)
            sys.ctx->store<u8>(p, off, 0x41);
        else
            (void)sys.ctx->load<u8>(p, off);
    }

    /** Copy performed by instrumented library code. */
    void
    libcCopy(const GuestPtr &dst, const GuestPtr &src, u64 len,
             AccessKind kind)
    {
        for (u64 i = 0; i < len; ++i) {
            if (kind == AccessKind::Write) {
                u8 v = mode == Mode::Asan
                           ? asan->load<u8>(src, static_cast<s64>(i))
                           : sys.ctx->load<u8>(src, static_cast<s64>(i));
                if (mode == Mode::Asan)
                    asan->store<u8>(dst, static_cast<s64>(i), v);
                else
                    sys.ctx->store<u8>(dst, static_cast<s64>(i), v);
            } else {
                // "read" overflow: read from the buffer, write to a
                // safely sized sink.
                u8 v = mode == Mode::Asan
                           ? asan->load<u8>(dst, static_cast<s64>(i))
                           : sys.ctx->load<u8>(dst, static_cast<s64>(i));
                sys.ctx->store<u8>(src, 0, v);
            }
        }
    }
};

/** Buffer setup result. */
struct Buffer
{
    GuestPtr ptr;
    /** Scratch memory usable as copy source/sink. */
    GuestPtr scratch;
};

} // namespace

std::string
BodiagCase::describe() const
{
    std::ostringstream os;
    os << "case-" << id << " " << regionName(region) << " "
       << (access == AccessKind::Write ? "write" : "read") << " "
       << techName(tech) << " buf=" << bufSize;
    if (siblingSize)
        os << " sibling=" << siblingSize;
    if (pageEdge)
        os << " page-edge";
    return os.str();
}

const char *
modeName(Mode mode)
{
    switch (mode) {
      case Mode::Mips64: return "mips64";
      case Mode::CheriAbi: return "cheriabi";
      case Mode::Asan: return "asan";
    }
    return "?";
}

const char *
magnitudeName(Magnitude mag)
{
    switch (mag) {
      case Magnitude::Ok: return "ok";
      case Magnitude::Min: return "min";
      case Magnitude::Med: return "med";
      case Magnitude::Large: return "large";
    }
    return "?";
}

std::vector<BodiagCase>
generateSuite()
{
    std::vector<BodiagCase> suite;
    u64 id = 0;
    auto add = [&](Region r, AccessKind a, Technique t, u64 size,
                   u64 sibling = 0, bool edge = false, u64 gap = 64) {
        suite.push_back({id++, r, a, t, size, sibling,
                         edge ? 0 : gap, edge});
    };

    const u64 sizes[] = {8, 16, 32, 64, 128, 256, 512};
    const Region base_regions[] = {Region::Stack, Region::Heap,
                                   Region::Global};
    const Technique base_techs[] = {Technique::DirectIndex,
                                    Technique::LoopIndex,
                                    Technique::PtrArith,
                                    Technique::LibcMemcpy};
    // 1. Base grid: 3 regions x 2 accesses x 4 techniques x 7 sizes.
    for (Region r : base_regions) {
        for (AccessKind a : {AccessKind::Read, AccessKind::Write}) {
            for (Technique t : base_techs) {
                for (u64 s : sizes)
                    add(r, a, t, s);
            }
        }
    }
    // 2. strcpy (write-only): 3 regions x 7 sizes.
    for (Region r : base_regions) {
        for (u64 s : sizes)
            add(r, AccessKind::Write, Technique::LibcStrcpy, s);
    }
    // 3. TLS: 2 techniques x 2 accesses x 7 sizes.
    for (Technique t : {Technique::DirectIndex, Technique::LoopIndex}) {
        for (AccessKind a : {AccessKind::Read, AccessKind::Write}) {
            for (u64 s : sizes)
                add(Region::Tls, a, t, s);
        }
    }
    // 4. Pointer-arithmetic reads at odd sizes.
    for (u64 s : {24, 48, 96, 192}) {
        add(Region::Stack, AccessKind::Read, Technique::PtrArith, s);
        add(Region::Heap, AccessKind::Read, Technique::PtrArith, s);
    }
    // 5. POSIX getcwd misuse.
    for (u64 s : {8, 12, 16, 24}) {
        add(Region::Stack, AccessKind::Write, Technique::PosixGetcwd, s);
        add(Region::Heap, AccessKind::Write, Technique::PosixGetcwd, s);
    }
    // 6. Intra-object overflows: 10 stack cases with a small sibling
    //    (min stays inside the object; med escapes it), 2 heap cases
    //    with a wide sibling (min and med both stay inside).
    for (u64 s : {16, 24, 32, 40, 48}) {
        add(Region::Stack, AccessKind::Write, Technique::IntraObject, s,
            4);
        add(Region::Stack, AccessKind::Read, Technique::IntraObject, s,
            4);
    }
    add(Region::Heap, AccessKind::Write, Technique::IntraObject, 16, 16);
    add(Region::Heap, AccessKind::Read, Technique::IntraObject, 32, 16);
    // 7. Copies by uninstrumented code (invisible to ASan).
    for (u64 s : {16, 64, 256})
        add(Region::Heap, AccessKind::Write, Technique::Uninstrumented, s);
    // 8. Redzone-skipping far accesses into a live neighbour.
    add(Region::Heap, AccessKind::Write, Technique::NeighborSkip, 64);
    add(Region::Heap, AccessKind::Read, Technique::NeighborSkip, 128);
    // 9. Buffers flush against the end of their mapping: the only
    //    min-magnitude bugs a stock mips64 process can catch.
    for (u64 s : {16, 32, 64, 128}) {
        add(Region::Global, AccessKind::Write, Technique::DirectIndex, s,
            0, true);
    }
    // 9b. Buffers four bytes shy of the edge: caught by the MMU only
    //     from the med magnitude up.
    for (u64 s : {16, 32, 64, 128}) {
        add(Region::Global, AccessKind::Write, Technique::DirectIndex, s,
            0, false, 4);
    }
    // 10. memcpy over TLS.
    for (AccessKind a : {AccessKind::Read, AccessKind::Write}) {
        for (u64 s : sizes)
            add(Region::Tls, a, Technique::LibcMemcpy, s);
    }
    // 11. Odd-size heap direct accesses.
    for (u64 s : {12, 20, 40, 80, 160}) {
        add(Region::Heap, AccessKind::Read, Technique::DirectIndex, s);
        add(Region::Heap, AccessKind::Write, Technique::DirectIndex, s);
    }
    // 12. Fill out the remaining taxonomy corners.
    for (u64 s : {24, 48, 96}) {
        add(Region::Stack, AccessKind::Write, Technique::LibcStrcpy, s);
        add(Region::Global, AccessKind::Read, Technique::LoopIndex, s);
        add(Region::Heap, AccessKind::Write, Technique::LibcMemcpy, s);
    }
    CHERI_KASSERT(suite.size() == 291, "BOdiagsuite must have 291 cases");
    return suite;
}

namespace
{

/** Set up the case's buffer; returns the pointer guest code holds. */
Buffer
buildBuffer(CaseEnv &env, const BodiagCase &c)
{
    GuestContext &ctx = *env.sys.ctx;
    const u64 struct_size = c.bufSize + c.siblingSize;
    Buffer out;
    out.scratch = ctx.mmap(2 * pageSize + 8 * 1024);

    auto bound_cheri = [&](const Capability &region, u64 addr) {
        Capability cap = region.setAddress(addr);
        auto b = cap.setBounds(struct_size);
        CHERI_KASSERT(b.ok(), "the region covers every case's buffer");
        auto p = b.value().andPerms(permsData);
        CHERI_KASSERT(p.ok(), "data perms are a subset of the region's");
        return GuestPtr(p.value());
    };

    switch (c.region) {
      case Region::Stack: {
        if (env.mode == Mode::Asan) {
            // The frame outlives this function: the case env owns it.
            env.frame = std::make_unique<StackFrame>(ctx, 4096);
            out.ptr = env.asan->stackAlloc(*env.frame, struct_size);
            break;
        }
        // Half the programs keep the buffer in a shallow frame near
        // the stack top (a far overflow runs off the mapping); the
        // other half sit under deeper call chains, where a far
        // overflow lands in live stack and the MMU sees nothing.
        u64 depth = (c.id % 2) ? 256 * 1024 : 0;
        u64 total = 512 + struct_size + depth;
        Capability sp = env.sys.proc->regs().stack();
        u64 base = (sp.address() - total) & ~u64{15};
        env.sys.proc->regs().stack() = sp.setAddress(base);
        u64 buf_addr = base + 128;
        out.ptr = env.cheri()
                      ? bound_cheri(sp, buf_addr)
                      : GuestPtr(Capability::fromAddress(buf_addr));
        break;
      }
      case Region::Heap: {
        if (env.mode == Mode::Asan) {
            out.ptr = env.asan->malloc(struct_size);
            if (c.tech == Technique::NeighborSkip) {
                // A live victim allocation placed so that +4096 from
                // the buffer lands inside its payload.
                env.asan->malloc(16384);
            }
            break;
        }
        // Heap allocations sit inside an allocator arena.  For most
        // programs the arena extends past the buffer (a far overflow
        // lands in mapped heap and the MMU sees nothing); for roughly
        // a quarter the buffer is the last allocation before the
        // arena's end and a far overflow runs off the mapping.
        bool arena_slack =
            c.tech != Technique::NeighborSkip && (c.id % 4) != 0;
        u64 map_len = c.tech == Technique::NeighborSkip
                          ? 3 * pageSize
                          : pageRound(struct_size) +
                                (arena_slack ? 2 * pageSize : 0);
        GuestPtr region = ctx.mmap(map_len);
        u64 buf_addr = c.pageEdge
                           ? region.addr() + map_len - struct_size
                           : region.addr();
        out.ptr = env.cheri()
                      ? bound_cheri(region.cap, buf_addr)
                      : GuestPtr(Capability::fromAddress(buf_addr));
        break;
      }
      case Region::Global: {
        // A data segment: the buffer sits near (or flush against) the
        // end of the mapping, other globals below it.
        u64 tail_gap = c.tailGap;
        u64 map_len = pageRound(struct_size + 512);
        GuestPtr region = ctx.mmap(map_len);
        u64 buf_addr = region.addr() + map_len - struct_size - tail_gap;
        if (env.mode == Mode::Asan) {
            out.ptr = GuestPtr(Capability::fromAddress(buf_addr));
            env.asan->registerGlobal(out.ptr, struct_size);
        } else {
            out.ptr = env.cheri()
                          ? bound_cheri(region.cap, buf_addr)
                          : GuestPtr(Capability::fromAddress(buf_addr));
        }
        break;
      }
      case Region::Tls: {
        GuestTls tls(ctx);
        GuestPtr block = tls.moduleBlock(1, struct_size);
        if (env.mode == Mode::Asan) {
            // ASan does not poison TLS blocks per-variable; model the
            // block as a registered global.
            out.ptr = GuestPtr(Capability::fromAddress(block.addr()));
            env.asan->registerGlobal(out.ptr, struct_size);
        } else {
            out.ptr = block;
        }
        break;
      }
    }
    return out;
}

/** Perform the case's access at the magnitude's boundary offset. */
void
performAccess(CaseEnv &env, const BodiagCase &c, const Buffer &buf,
              Magnitude mag)
{
    GuestContext &ctx = *env.sys.ctx;
    const u64 bytes = magBytes(mag);
    // The faulty index: last valid byte for Ok, first/last overflowed
    // byte otherwise.
    const s64 off = static_cast<s64>(
        mag == Magnitude::Ok ? c.bufSize - 1 : c.bufSize + bytes - 1);

    switch (c.tech) {
      case Technique::DirectIndex:
      case Technique::IntraObject:
      case Technique::NeighborSkip:
        env.access(buf.ptr, off, c.access);
        break;
      case Technique::PtrArith: {
        GuestPtr p = buf.ptr + off;
        env.access(p, 0, c.access);
        break;
      }
      case Technique::LoopIndex: {
        s64 start = std::max<s64>(0, static_cast<s64>(c.bufSize) - 4);
        for (s64 i = start; i <= off; ++i)
            env.access(buf.ptr, i, c.access);
        break;
      }
      case Technique::LibcMemcpy:
        env.libcCopy(buf.ptr, buf.scratch,
                     static_cast<u64>(off) + 1, c.access);
        break;
      case Technique::LibcStrcpy: {
        // Source string of exactly off bytes + NUL.
        u64 n = static_cast<u64>(off);
        for (u64 i = 0; i < n; ++i)
            ctx.store<u8>(buf.scratch, static_cast<s64>(i), 'A');
        ctx.store<u8>(buf.scratch, static_cast<s64>(n), 0);
        env.libcCopy(buf.ptr, buf.scratch, n + 1, AccessKind::Write);
        break;
      }
      case Technique::Uninstrumented: {
        // Raw copy loop: no ASan checks, but capabilities still check.
        for (s64 i = 0; i <= off; ++i)
            ctx.store<u8>(buf.ptr, i, 0x42);
        break;
      }
      case Technique::PosixGetcwd: {
        // The program claims its buffer is bigger than it is.
        u64 claimed = c.bufSize + bytes;
        if (env.mode == Mode::Asan)
            env.asan->checkAccess(buf.ptr.addr(), claimed);
        s64 r = ctx.getcwd(buf.ptr, claimed);
        if (r == -E_PROT || r == -E_FAULT)
            throw CapTrap(CapFault::LengthViolation, buf.ptr.addr(),
                          buf.ptr.cap, "getcwd");
        break;
      }
    }
}

} // namespace

RunResult
runCase(const BodiagCase &c, Magnitude mag, Mode mode)
{
    CaseEnv env(mode);
    RunResult out;
    if (!env.sys) {
        out.how = "execve failed";
        return out;
    }
    env.sys.hosted([&] {
        if (mode == Mode::Asan)
            env.asan = std::make_unique<AsanRuntime>(*env.sys.ctx);
        Buffer buf = buildBuffer(env, c);
        try {
            performAccess(env, c, buf, mag);
            out.detected = false;
        } catch (const CapTrap &trap) {
            out.detected = true;
            out.how = std::string(capFaultName(trap.fault()));
        } catch (const AsanReport &rep) {
            out.detected = true;
            out.how = "asan report";
        }
    });
    if (mag == Magnitude::Ok && out.detected)
        out.falsePositive = true;
    return out;
}

ModeSummary
runAll(const std::vector<BodiagCase> &suite, Mode mode)
{
    ModeSummary s;
    s.total = suite.size();
    for (const BodiagCase &c : suite) {
        RunResult ok = runCase(c, Magnitude::Ok, mode);
        s.okFailures += ok.falsePositive;
        s.min += runCase(c, Magnitude::Min, mode).detected;
        s.med += runCase(c, Magnitude::Med, mode).detected;
        s.large += runCase(c, Magnitude::Large, mode).detected;
    }
    return s;
}

} // namespace cheri::bodiag
