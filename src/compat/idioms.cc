#include "compat/idioms.h"

#include <iomanip>
#include <sstream>

#include "libc/cstring.h"
#include "libc/malloc.h"

namespace cheri::compat
{

const char *
compatClassName(CompatClass c)
{
    switch (c) {
      case CompatClass::PP: return "PP";
      case CompatClass::IP: return "IP";
      case CompatClass::M: return "M";
      case CompatClass::PS: return "PS";
      case CompatClass::I: return "I";
      case CompatClass::VA: return "VA";
      case CompatClass::BF: return "BF";
      case CompatClass::H: return "H";
      case CompatClass::A: return "A";
      case CompatClass::CC: return "CC";
      case CompatClass::U: return "U";
    }
    return "?";
}

const char *
componentName(Component c)
{
    switch (c) {
      case Component::Headers: return "BSD headers";
      case Component::Libraries: return "BSD libraries";
      case Component::Programs: return "BSD programs";
      case Component::Tests: return "BSD tests";
    }
    return "?";
}

namespace
{

/** Shorthand: allocate a guest buffer on the heap. */
GuestPtr
heapBuf(GuestContext &ctx, GuestMalloc &heap, u64 size, u64 fill = 0)
{
    GuestPtr p = heap.malloc(size);
    for (u64 i = 0; i + 8 <= size; i += 8)
        ctx.store<u64>(p, static_cast<s64>(i), fill);
    return p;
}

std::vector<Idiom>
buildCorpus()
{
    std::vector<Idiom> v;
    auto add = [&](std::string name, Component comp, CompatClass cls,
                   Scenario legacy, Scenario fixed, bool traps = true) {
        v.push_back({std::move(name), comp, cls, std::move(legacy),
                     std::move(fixed), traps});
    };

    // ----- PP: pointer provenance ---------------------------------
    add("cross-object-arithmetic", Component::Libraries, CompatClass::PP,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr a = heapBuf(ctx, heap, 32);
            GuestPtr b = heapBuf(ctx, heap, 32, 7);
            // Reach object b from a pointer to object a.
            s64 delta = static_cast<s64>(b.addr() - a.addr());
            GuestPtr p = a + delta;
            return ctx.load<u64>(p) == 7;
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            heapBuf(ctx, heap, 32);
            GuestPtr b = heapBuf(ctx, heap, 32, 7);
            return ctx.load<u64>(b) == 7;
        });

    add("pointer-over-pipe", Component::Programs, CompatClass::PP,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr obj = heapBuf(ctx, heap, 16, 42);
            int fds[2];
            if (ctx.kernel().sysPipe(ctx.proc(), fds).error != E_OK)
                return false;
            // Ship the pointer's bytes through IPC and use it.
            GuestPtr msg = heap.malloc(8);
            ctx.store<u64>(msg, 0, obj.addr());
            ctx.write(fds[1], msg, 8);
            GuestPtr in = heap.malloc(8);
            ctx.read(fds[0], in, 8);
            GuestPtr p = ctx.ptrFromInt(ctx.load<u64>(in));
            return ctx.load<u64>(p) == 42;
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            // Ship an index instead; rebuild from a live table pointer.
            GuestPtr table = heapBuf(ctx, heap, 64, 42);
            int fds[2];
            if (ctx.kernel().sysPipe(ctx.proc(), fds).error != E_OK)
                return false;
            GuestPtr msg = heap.malloc(8);
            ctx.store<u64>(msg, 0, 0); // index
            ctx.write(fds[1], msg, 8);
            GuestPtr in = heap.malloc(8);
            ctx.read(fds[0], in, 8);
            u64 idx = ctx.load<u64>(in);
            return ctx.load<u64>(table, static_cast<s64>(idx * 8)) == 42;
        });

    add("qsort-byte-swap", Component::Libraries, CompatClass::PP,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr arr = heap.malloc(2 * capSize);
            GuestPtr x = heapBuf(ctx, heap, 8, 2);
            GuestPtr y = heapBuf(ctx, heap, 8, 1);
            ctx.storePtr(arr, 0, x);
            ctx.storePtr(arr, capSize, y);
            // Byte-wise element swap, as pre-CHERI qsort did.
            for (u64 i = 0; i < capSize; ++i) {
                u8 a = ctx.load<u8>(arr, static_cast<s64>(i));
                u8 b = ctx.load<u8>(arr, static_cast<s64>(capSize + i));
                ctx.store<u8>(arr, static_cast<s64>(i), b);
                ctx.store<u8>(arr, static_cast<s64>(capSize + i), a);
            }
            GuestPtr first = ctx.loadPtr(arr, 0);
            return ctx.load<u64>(first) == 1;
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr arr = heap.malloc(2 * capSize);
            GuestPtr x = heapBuf(ctx, heap, 8, 2);
            GuestPtr y = heapBuf(ctx, heap, 8, 1);
            ctx.storePtr(arr, 0, x);
            ctx.storePtr(arr, capSize, y);
            gQsort(ctx, arr, 2, capSize,
                   [](GuestContext &c, const GuestPtr &pa,
                      const GuestPtr &pb) {
                       u64 a = c.load<u64>(c.loadPtr(pa));
                       u64 b = c.load<u64>(c.loadPtr(pb));
                       return a < b ? -1 : (a > b ? 1 : 0);
                   });
            return ctx.load<u64>(ctx.loadPtr(arr, 0)) == 1;
        });

    add("struct-copy-by-bytes", Component::Libraries, CompatClass::PP,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr src = heap.malloc(32);
            GuestPtr dst = heap.malloc(32);
            GuestPtr inner = heapBuf(ctx, heap, 8, 5);
            ctx.storePtr(src, 0, inner);
            gMemcpyBytes(ctx, dst, src, 32);
            return ctx.load<u64>(ctx.loadPtr(dst, 0)) == 5;
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr src = heap.malloc(32);
            GuestPtr dst = heap.malloc(32);
            GuestPtr inner = heapBuf(ctx, heap, 8, 5);
            ctx.storePtr(src, 0, inner);
            gMemcpy(ctx, dst, src, 32);
            return ctx.load<u64>(ctx.loadPtr(dst, 0)) == 5;
        });

    add("pointer-table-through-u64", Component::Headers, CompatClass::PP,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr obj = heapBuf(ctx, heap, 8, 9);
            // "Save" a pointer table into an array of u64.
            GuestPtr save = heap.malloc(8);
            ctx.store<u64>(save, 0, obj.addr());
            GuestPtr p = ctx.ptrFromInt(ctx.load<u64>(save));
            return ctx.load<u64>(p) == 9;
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr obj = heapBuf(ctx, heap, 8, 9);
            GuestPtr save = heap.malloc(capSize);
            ctx.storePtr(save, 0, obj);
            return ctx.load<u64>(ctx.loadPtr(save, 0)) == 9;
        });

    add("memmove-pointer-array-bytes", Component::Tests, CompatClass::PP,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr arr = heap.malloc(4 * capSize);
            GuestPtr obj = heapBuf(ctx, heap, 8, 3);
            ctx.storePtr(arr, 0, obj);
            // Shift up by one element with a byte loop.
            for (s64 i = static_cast<s64>(capSize) - 1; i >= 0; --i) {
                ctx.store<u8>(arr, static_cast<s64>(capSize) + i,
                              ctx.load<u8>(arr, i));
            }
            return ctx.load<u64>(ctx.loadPtr(arr, capSize)) == 3;
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr arr = heap.malloc(4 * capSize);
            GuestPtr obj = heapBuf(ctx, heap, 8, 3);
            ctx.storePtr(arr, 0, obj);
            gMemmove(ctx, arr + capSize, arr, capSize);
            return ctx.load<u64>(ctx.loadPtr(arr, capSize)) == 3;
        });

    // ----- IP: integer provenance ---------------------------------
    add("cast-through-long", Component::Libraries, CompatClass::IP,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr p = heapBuf(ctx, heap, 16, 11);
            u64 as_long = p.addr(); // (long)p
            GuestPtr q = ctx.ptrFromInt(as_long);
            return ctx.load<u64>(q) == 11;
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr p = heapBuf(ctx, heap, 16, 11);
            u64 as_uintptr = p.addr(); // (uintptr_t)p
            GuestPtr q = ctx.ptrFromInt(as_uintptr, p);
            return ctx.load<u64>(q) == 11;
        });

    add("pointer-in-u64-field", Component::Programs, CompatClass::IP,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr obj = heapBuf(ctx, heap, 8, 13);
            GuestPtr rec = heap.malloc(16);
            ctx.store<u64>(rec, 0, obj.addr()); // u64 field holds a ptr
            GuestPtr q = ctx.ptrFromInt(ctx.load<u64>(rec, 0));
            return ctx.load<u64>(q) == 13;
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr obj = heapBuf(ctx, heap, 8, 13);
            GuestPtr rec = heap.malloc(capSize);
            ctx.storePtr(rec, 0, obj); // field widened to a pointer
            return ctx.load<u64>(ctx.loadPtr(rec, 0)) == 13;
        });

    add("printf-roundtrip", Component::Tests, CompatClass::IP,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr p = heapBuf(ctx, heap, 8, 17);
            // Format %p into a string, sscanf it back, dereference.
            std::ostringstream os;
            os << std::hex << p.addr();
            u64 parsed = std::stoull(os.str(), nullptr, 16);
            GuestPtr q = ctx.ptrFromInt(parsed);
            return ctx.load<u64>(q) == 17;
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr p = heapBuf(ctx, heap, 8, 17);
            // The fixed code keeps the pointer; strings carry only
            // the address for display.
            return ctx.load<u64>(p) == 17;
        });

    add("shifted-handle-encoding", Component::Libraries, CompatClass::IP,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr p = heapBuf(ctx, heap, 16, 19);
            u64 handle = (p.addr() << 1) | 1; // packed handle
            GuestPtr q = ctx.ptrFromInt(handle >> 1);
            return ctx.load<u64>(q) == 19;
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr p = heapBuf(ctx, heap, 16, 19);
            u64 handle = (p.addr() << 1) | 1;
            GuestPtr q = ctx.ptrFromInt(handle >> 1, p);
            return ctx.load<u64>(q) == 19;
        });

    // ----- M: monotonicity -----------------------------------------
    add("container-of", Component::Libraries, CompatClass::M,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr parent = heapBuf(ctx, heap, 64, 23);
            // A bounded pointer to a member at offset 16...
            GuestPtr member = ctx.isCheri()
                ? GuestPtr(parent.cap.incAddress(16).setBounds(8).value())
                : parent + 16;
            // ...container_of back to the parent and read its head.
            GuestPtr back = member - 16;
            return ctx.load<u64>(back) == 23;
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr parent = heapBuf(ctx, heap, 64, 23);
            // Fixed code carries the parent pointer alongside.
            GuestPtr member = parent + 16;
            (void)member;
            return ctx.load<u64>(parent) == 23;
        });

    add("negative-index", Component::Programs, CompatClass::M,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr header = heapBuf(ctx, heap, 16, 29);
            GuestPtr body = heapBuf(ctx, heap, 32);
            (void)header;
            // "The header is just before the body" — reach it with a
            // negative index.
            return ctx.load<u64>(body, -16) != 0xdeadbeef;
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr header = heapBuf(ctx, heap, 16, 29);
            return ctx.load<u64>(header) == 29;
        });

    add("stale-capability-after-realloc", Component::Libraries,
        CompatClass::M,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr p = heapBuf(ctx, heap, 32, 31);
            GuestPtr q = heap.realloc(p, 256);
            (void)q;
            // Keep using the old pointer beyond its old size.
            return ctx.load<u64>(p, 128) == 0;
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr p = heapBuf(ctx, heap, 32, 31);
            GuestPtr q = heap.realloc(p, 256);
            return ctx.load<u64>(q, 0) == 31;
        });

    // ----- PS: pointer shape ---------------------------------------
    add("hardcoded-field-offset", Component::Headers, CompatClass::PS,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            // struct { void *p; uint64_t len; } — legacy code writes
            // len at offset 8 (sizeof(void*) on mips64).
            GuestPtr rec = heap.malloc(2 * capSize);
            GuestPtr obj = heapBuf(ctx, heap, 8, 37);
            ctx.storePtr(rec, 0, obj);
            ctx.store<u64>(rec, 8, 1234); // clobbers the cap on CHERI
            GuestPtr p = ctx.loadPtr(rec, 0);
            return ctx.load<u64>(p) == 37;
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr rec = heap.malloc(2 * capSize);
            GuestPtr obj = heapBuf(ctx, heap, 8, 37);
            ctx.storePtr(rec, 0, obj);
            ctx.store<u64>(rec, static_cast<s64>(ctx.ptrSize()), 1234);
            GuestPtr p = ctx.loadPtr(rec, 0);
            return ctx.load<u64>(p) == 37;
        });

    add("pointer-array-stride-8", Component::Headers, CompatClass::PS,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr arr = heap.malloc(4 * capSize);
            GuestPtr a = heapBuf(ctx, heap, 8, 1);
            GuestPtr b = heapBuf(ctx, heap, 8, 2);
            ctx.storePtr(arr, 0, a);
            // Legacy stride: second element at offset 8.
            if (ctx.isCheri()) {
                // Misaligned capability store.
                ctx.storePtr(arr, 8, b);
            } else {
                ctx.storePtr(arr, 8, b);
            }
            return ctx.load<u64>(ctx.loadPtr(arr, 8)) == 2;
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr arr = heap.malloc(4 * capSize);
            GuestPtr a = heapBuf(ctx, heap, 8, 1);
            GuestPtr b = heapBuf(ctx, heap, 8, 2);
            ctx.storePtr(arr, 0, a);
            ctx.storePtr(arr, static_cast<s64>(ctx.ptrSize()), b);
            s64 stride = static_cast<s64>(ctx.ptrSize());
            return ctx.load<u64>(ctx.loadPtr(arr, stride)) == 2;
        });

    add("malloc-sized-for-8-byte-ptrs", Component::Programs,
        CompatClass::PS,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            // Space for four 8-byte pointers...
            GuestPtr arr = heap.malloc(4 * 8);
            GuestPtr objs[4];
            for (int i = 0; i < 4; ++i)
                objs[i] = heapBuf(ctx, heap, 8, 100 + i);
            // ...holding four native pointers (16 bytes on CHERI).
            for (int i = 0; i < 4; ++i) {
                ctx.storePtr(arr, i * static_cast<s64>(ctx.ptrSize()),
                             objs[i]);
            }
            return ctx.load<u64>(ctx.loadPtr(
                       arr, 3 * static_cast<s64>(ctx.ptrSize()))) == 103;
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr arr = heap.malloc(4 * ctx.ptrSize());
            GuestPtr objs[4];
            for (int i = 0; i < 4; ++i)
                objs[i] = heapBuf(ctx, heap, 8, 100 + i);
            for (int i = 0; i < 4; ++i) {
                ctx.storePtr(arr, i * static_cast<s64>(ctx.ptrSize()),
                             objs[i]);
            }
            return ctx.load<u64>(ctx.loadPtr(
                       arr, 3 * static_cast<s64>(ctx.ptrSize()))) == 103;
        });

    add("packed-struct-unaligned-pointer", Component::Libraries,
        CompatClass::PS,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            // struct __packed { u32 kind; void *p; }: pointer at +4.
            GuestPtr rec = heap.malloc(32);
            GuestPtr obj = heapBuf(ctx, heap, 8, 41);
            ctx.store<u32>(rec, 0, 1);
            ctx.storePtr(rec, 4, obj);
            return ctx.load<u64>(ctx.loadPtr(rec, 4)) == 41;
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr rec = heap.malloc(32);
            GuestPtr obj = heapBuf(ctx, heap, 8, 41);
            ctx.store<u32>(rec, 0, 1);
            s64 off = static_cast<s64>(ctx.ptrSize()); // natural align
            ctx.storePtr(rec, off, obj);
            return ctx.load<u64>(ctx.loadPtr(rec, off)) == 41;
        });

    // ----- I: pointer as integer (sentinels) -----------------------
    add("map-failed-sentinel", Component::Headers, CompatClass::I,
        [](GuestContext &ctx) {
            // Comparing against (void *)-1 keeps working — the change
            // is in how the sentinel constant is spelled.
            GuestPtr sentinel = ctx.ptrFromInt(~u64{0});
            GuestPtr p = ctx.mmap(pageSize);
            return p.addr() != sentinel.addr();
        },
        [](GuestContext &ctx) {
            GuestPtr p = ctx.mmap(pageSize);
            return !p.isNull();
        },
        /*traps=*/false);

    add("error-code-in-pointer", Component::Libraries, CompatClass::I,
        [](GuestContext &ctx) {
            // ERR_PTR(-EINVAL)-style: an integer error smuggled in a
            // pointer; checked by address, never dereferenced — works,
            // but the cast now needs intptr_t.
            GuestPtr e = ctx.ptrFromInt(static_cast<u64>(-E_INVAL));
            return e.addr() > ~u64{4096};
        },
        [](GuestContext &ctx) {
            (void)ctx;
            return true; // fixed code returns (result, error) pairs
        },
        /*traps=*/false);

    // ----- VA: virtual-address manipulation -------------------------
    add("pointer-compare-across-objects", Component::Libraries,
        CompatClass::VA,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr a = heap.malloc(16);
            GuestPtr b = heap.malloc(16);
            return (a.addr() < b.addr()) || (b.addr() < a.addr());
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr a = heap.malloc(16);
            GuestPtr b = heap.malloc(16);
            // Fixed: explicit vaddr comparison via cheri_getaddress.
            return (a.addr() < b.addr()) || (b.addr() < a.addr());
        },
        /*traps=*/false);

    add("page-round-for-msync", Component::Programs, CompatClass::VA,
        [](GuestContext &ctx) {
            GuestPtr p = ctx.mmap(2 * pageSize);
            u64 page_base = p.addr() & ~pageMask; // integer rounding
            return page_base <= p.addr();
        },
        [](GuestContext &ctx) {
            GuestPtr p = ctx.mmap(2 * pageSize);
            GuestPtr base = ctx.ptrFromInt(p.addr() & ~pageMask, p);
            return ctx.load<u8>(base) == 0;
        },
        /*traps=*/false);

    add("log-pointer-as-hex", Component::Tests, CompatClass::VA,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr p = heap.malloc(8);
            std::ostringstream os;
            os << std::hex << p.addr();
            return !os.str().empty();
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr p = heap.malloc(8);
            std::ostringstream os;
            os << std::hex << p.addr();
            return !os.str().empty();
        },
        /*traps=*/false);

    // ----- BF: bit flags in pointers --------------------------------
    add("lock-bit-in-low-pointer-bit", Component::Libraries,
        CompatClass::BF,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr node = heapBuf(ctx, heap, 16, 43);
            // Classic: OR the lock flag into the pointer, strip it on
            // use — but through plain integers.
            u64 locked = node.addr() | 1;
            GuestPtr q = ctx.ptrFromInt(locked & ~u64{1});
            return ctx.load<u64>(q) == 43;
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr node = heapBuf(ctx, heap, 16, 43);
            // Fixed: flag travels *in the capability's address bits*,
            // set and cleared with provenance-preserving arithmetic.
            GuestPtr locked = node + 1;
            GuestPtr q = ctx.ptrFromInt(locked.addr() & ~u64{1}, locked);
            return ctx.load<u64>(q) == 43;
        });

    add("type-tag-in-high-bits", Component::Libraries, CompatClass::BF,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr node = heapBuf(ctx, heap, 16, 47);
            // Stuff a type tag into bit 60: far outside representable
            // space, so the capability dies even before the deref.
            GuestPtr tagged = node + (s64{1} << 60);
            GuestPtr q = tagged - (s64{1} << 60);
            return ctx.load<u64>(q) == 47;
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr node = heapBuf(ctx, heap, 16, 47);
            // Fixed: the type tag lives in a separate byte.
            return ctx.load<u64>(node) == 47;
        });

    add("refcount-in-pointer-bits", Component::Programs, CompatClass::BF,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr obj = heapBuf(ctx, heap, 16, 53);
            u64 packed = obj.addr() | 2; // refcount "2" in low bits
            GuestPtr q = ctx.ptrFromInt(packed & ~u64{3});
            return ctx.load<u64>(q) == 53;
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr obj = heapBuf(ctx, heap, 16, 53);
            GuestPtr packed = obj + 2;
            GuestPtr q =
                ctx.ptrFromInt(packed.addr() & ~u64{3}, packed);
            return ctx.load<u64>(q) == 53;
        });

    // ----- H: hashing virtual addresses -----------------------------
    add("hash-table-keyed-by-address", Component::Libraries,
        CompatClass::H,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr key = heap.malloc(8);
            u64 h = (key.addr() * 0x9E3779B97F4A7C15ull) >> 48;
            return h < (u64{1} << 16);
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr key = heap.malloc(8);
            // Fixed: hash cheri_getaddress(key) — same arithmetic,
            // explicit about operating on the address.
            u64 h = (key.addr() * 0x9E3779B97F4A7C15ull) >> 48;
            return h < (u64{1} << 16);
        },
        /*traps=*/false);

    add("sort-pointers-by-address", Component::Tests, CompatClass::H,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr a = heap.malloc(8);
            GuestPtr b = heap.malloc(8);
            return std::min(a.addr(), b.addr()) <=
                   std::max(a.addr(), b.addr());
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr a = heap.malloc(8);
            GuestPtr b = heap.malloc(8);
            return std::min(a.addr(), b.addr()) <=
                   std::max(a.addr(), b.addr());
        },
        /*traps=*/false);

    // ----- A: alignment adjustment -----------------------------------
    add("round-up-char-pointer", Component::Libraries, CompatClass::A,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr raw = heap.malloc(64);
            GuestPtr odd = raw + 3;
            // Legacy: align via integer round-trip.
            u64 aligned = (odd.addr() + 15) & ~u64{15};
            GuestPtr q = ctx.ptrFromInt(aligned);
            ctx.store<u64>(q, 0, 59);
            return ctx.load<u64>(q) == 59;
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr raw = heap.malloc(64);
            GuestPtr odd = raw + 3;
            u64 aligned = (odd.addr() + 15) & ~u64{15};
            GuestPtr q = ctx.ptrFromInt(aligned, odd);
            ctx.store<u64>(q, 0, 59);
            return ctx.load<u64>(q) == 59;
        });

    add("align-stack-scratch", Component::Tests, CompatClass::A,
        [](GuestContext &ctx) {
            StackFrame frame(ctx, 128, 1);
            GuestPtr buf = frame.alloc(64, 16);
            GuestPtr odd = buf + 5;
            u64 aligned = (odd.addr() + 7) & ~u64{7};
            GuestPtr q = ctx.ptrFromInt(aligned);
            ctx.store<u32>(q, 0, 61);
            return ctx.load<u32>(q) == 61u;
        },
        [](GuestContext &ctx) {
            StackFrame frame(ctx, 128, 1);
            GuestPtr buf = frame.alloc(64, 16);
            GuestPtr odd = buf + 5;
            u64 aligned = (odd.addr() + 7) & ~u64{7};
            GuestPtr q = ctx.ptrFromInt(aligned, odd);
            ctx.store<u32>(q, 0, 61);
            return ctx.load<u32>(q) == 61u;
        });

    // ----- CC: calling convention ------------------------------------
    add("variadic-int-where-pointer-expected", Component::Programs,
        CompatClass::CC,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr obj = heapBuf(ctx, heap, 8, 67);
            // The caller passes the pointer through the *integer*
            // argument path (missing prototype); the callee pulls a
            // pointer out of the variadic area.
            StackFrame frame(ctx, 64, 0, 1, true);
            GuestPtr va_area = frame.alloc(2 * capSize);
            if (ctx.isCheri()) {
                // Only the 8-byte integer lands in the slot...
                ctx.store<u64>(va_area, 0, obj.addr());
                // ...but va_arg(ap, char*) loads a capability.
                GuestPtr got = ctx.loadPtr(va_area, 0);
                return ctx.load<u64>(got) == 67;
            }
            ctx.store<u64>(va_area, 0, obj.addr());
            GuestPtr got = ctx.ptrFromInt(ctx.load<u64>(va_area, 0));
            return ctx.load<u64>(got) == 67;
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr obj = heapBuf(ctx, heap, 8, 67);
            // Correct prototype: the pointer travels as a capability.
            StackFrame frame(ctx, 64, 0, 1, true);
            GuestPtr va_area = frame.alloc(2 * capSize);
            ctx.storePtr(va_area, 0, obj);
            return ctx.load<u64>(ctx.loadPtr(va_area, 0)) == 67;
        });

    add("open-missing-mode-argument", Component::Tests, CompatClass::CC,
        [](GuestContext &ctx) {
            // open(path, O_CREAT) with the mode argument missing: the
            // CheriABI libc reads the variadic slot through a bounded
            // capability — and there is no slot.
            StackFrame frame(ctx, 64, 0, 0, true);
            GuestPtr va_area = frame.alloc(ctx.isCheri() ? 1 : 8);
            if (ctx.isCheri()) {
                // va_arg reads past the (empty) bounded spill area.
                return ctx.load<u64>(va_area, 0) == 0;
            }
            // mips64: reads whatever garbage is in the register.
            (void)ctx.load<u64>(va_area, 0);
            return true;
        },
        [](GuestContext &ctx) {
            StackFrame frame(ctx, 64, 0, 1, true);
            GuestPtr va_area = frame.alloc(8);
            ctx.store<u64>(va_area, 0, 0644);
            return ctx.load<u64>(va_area, 0) == 0644;
        });

    add("syscall-pointer-as-integer", Component::Libraries,
        CompatClass::CC,
        [](GuestContext &ctx) {
            // Generic syscall(SYS_write, fd, (long)buf, n): the pointer
            // arrives in the integer argument path, so the CheriABI
            // kernel refuses it.
            GuestPtr buf = ctx.mmap(64);
            ctx.store<u64>(buf, 0, 0x68);
            s64 fd = ctx.open("/tmp/ccfile", O_RDWR | O_CREAT);
            if (fd < 0)
                return false;
            SysResult r = ctx.kernel().sysWrite(
                ctx.proc(), static_cast<int>(fd),
                UserPtr::fromAddr(buf.addr()), 8);
            return r.error == E_OK;
        },
        [](GuestContext &ctx) {
            GuestPtr buf = ctx.mmap(64);
            ctx.store<u64>(buf, 0, 0x68);
            s64 fd = ctx.open("/tmp/ccfile2", O_RDWR | O_CREAT);
            if (fd < 0)
                return false;
            return ctx.write(static_cast<int>(fd), buf, 8) == 8;
        });

    // ----- U: unsupported ---------------------------------------------
    add("xor-linked-list", Component::Libraries, CompatClass::U,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr a = heapBuf(ctx, heap, 16, 71);
            GuestPtr b = heapBuf(ctx, heap, 16, 73);
            u64 link = a.addr() ^ b.addr(); // XOR trick
            GuestPtr q = ctx.ptrFromInt(link ^ a.addr());
            return ctx.load<u64>(q) == 73;
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr a = heapBuf(ctx, heap, 16, 71);
            GuestPtr b = heapBuf(ctx, heap, 16, 73);
            (void)a;
            // The only fix is a real doubly linked list.
            return ctx.load<u64>(b) == 73;
        });

    add("sunrpc-callback-prototype", Component::Libraries,
        CompatClass::CC,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr obj = heapBuf(ctx, heap, 8, 71);
            // SunRPC lets programs declare their own callback types;
            // the dispatcher passes the argument through the integer
            // path while the callback expects a pointer.
            StackFrame frame(ctx, 64, 0, 1, true);
            GuestPtr slot = frame.alloc(capSize);
            ctx.store<u64>(slot, 0, obj.addr()); // integer path
            GuestPtr got = ctx.isCheri()
                               ? ctx.loadPtr(slot, 0)
                               : ctx.ptrFromInt(ctx.load<u64>(slot, 0));
            return ctx.load<u64>(got) == 71;
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr obj = heapBuf(ctx, heap, 8, 71);
            // Fixed: each callback declares the pointer-typed
            // prototype, so the value travels as a capability.
            StackFrame frame(ctx, 64, 0, 1, true);
            GuestPtr slot = frame.alloc(capSize);
            ctx.storePtr(slot, 0, obj);
            return ctx.load<u64>(ctx.loadPtr(slot, 0)) == 71;
        });

    add("printf-format-mismatch", Component::Tests, CompatClass::CC,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr s = heapBuf(ctx, heap, 16, 0x6f6c6c6568); // "hello"
            // printf("%d", s): the string pointer is consumed through
            // the integer varargs path, then %s on the *next* call
            // picks up a stale slot.
            StackFrame frame(ctx, 96, 0, 2, true);
            GuestPtr va_area = frame.alloc(2 * capSize);
            ctx.store<u64>(va_area, 0, s.addr()); // %d slot (truncated)
            // Later va_arg(ap, char *) reads a pointer from it.
            GuestPtr got =
                ctx.isCheri() ? ctx.loadPtr(va_area, 0)
                              : ctx.ptrFromInt(ctx.load<u64>(va_area, 0));
            return ctx.load<u64>(got) == 0x6f6c6c6568;
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr s = heapBuf(ctx, heap, 16, 0x6f6c6c6568);
            StackFrame frame(ctx, 96, 0, 2, true);
            GuestPtr va_area = frame.alloc(2 * capSize);
            ctx.storePtr(va_area, 0, s); // %s matches a pointer
            return ctx.load<u64>(ctx.loadPtr(va_area, 0)) ==
                   0x6f6c6c6568;
        });

    add("variadic-through-nonvariadic-fnptr", Component::Libraries,
        CompatClass::CC,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr obj = heapBuf(ctx, heap, 8, 73);
            // The call site believes the target is non-variadic and
            // passes the pointer in a register; the variadic callee
            // looks for it in the (never written) stack spill area.
            StackFrame frame(ctx, 64, 0, 0, true);
            GuestPtr va_area = frame.alloc(ctx.isCheri() ? 1 : 8);
            if (ctx.isCheri())
                return ctx.load<u64>(va_area, 0) == obj.addr();
            (void)ctx.load<u64>(va_area, 0);
            return true; // registers happen to line up on mips64
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr obj = heapBuf(ctx, heap, 8, 73);
            StackFrame frame(ctx, 64, 0, 1, true);
            GuestPtr va_area = frame.alloc(capSize);
            ctx.storePtr(va_area, 0, obj);
            return ctx.load<u64>(ctx.loadPtr(va_area, 0)) == 73;
        });

    add("open-syscall-vararg-mode", Component::Programs, CompatClass::CC,
        [](GuestContext &ctx) {
            // open(path, O_CREAT) without the mode: the libc stub's
            // va_arg read runs off the bounded variadic area.
            StackFrame frame(ctx, 64, 0, 0, true);
            GuestPtr va_area = frame.alloc(ctx.isCheri() ? 1 : 8);
            if (ctx.isCheri())
                (void)ctx.load<u64>(va_area, 0);
            s64 fd = ctx.open("/tmp/cc_open", O_RDWR | O_CREAT);
            return fd >= 0;
        },
        [](GuestContext &ctx) {
            StackFrame frame(ctx, 64, 0, 1, true);
            GuestPtr va_area = frame.alloc(8);
            ctx.store<u64>(va_area, 0, 0644);
            s64 fd = ctx.open("/tmp/cc_open2", O_RDWR | O_CREAT);
            return fd >= 0 && ctx.load<u64>(va_area, 0) == 0644;
        });

    add("bitfield-packed-header", Component::Headers, CompatClass::PS,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            // struct { u32 flags : 8; void *p; } __packed — legacy
            // code computes the pointer field at offset 4.
            GuestPtr rec = heap.malloc(32);
            GuestPtr obj = heapBuf(ctx, heap, 8, 79);
            ctx.store<u32>(rec, 0, 0x7);
            ctx.storePtr(rec, 4, obj); // misaligned under CHERI
            return ctx.load<u64>(ctx.loadPtr(rec, 4)) == 79;
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr rec = heap.malloc(48);
            GuestPtr obj = heapBuf(ctx, heap, 8, 79);
            ctx.store<u32>(rec, 0, 0x7);
            s64 off = static_cast<s64>(ctx.ptrSize());
            ctx.storePtr(rec, off, obj);
            return ctx.load<u64>(ctx.loadPtr(rec, off)) == 79;
        });

    add("pointer-difference-arith", Component::Headers, CompatClass::VA,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr buf = heap.malloc(64);
            GuestPtr a = buf + 8, b = buf + 40;
            // ptrdiff_t d = b - a: pure address arithmetic, fine.
            return b.addr() - a.addr() == 32;
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr buf = heap.malloc(64);
            GuestPtr a = buf + 8, b = buf + 40;
            return b.addr() - a.addr() == 32;
        },
        /*traps=*/false);

    add("network-trunc-u32-token", Component::Programs, CompatClass::IP,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr session = heapBuf(ctx, heap, 16, 83);
            // A "session token" wire format with a 32-bit id field the
            // code also abuses to rebuild the session pointer (the
            // heap happens to sit below 4 GiB on mips64).
            u32 token = static_cast<u32>(session.addr());
            GuestPtr got = ctx.ptrFromInt(token);
            return ctx.load<u64>(got) == 83;
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr session = heapBuf(ctx, heap, 16, 83);
            // Fixed: the wire token is an index into a live table.
            GuestPtr table = heap.malloc(capSize);
            ctx.storePtr(table, 0, session);
            u32 token = 0;
            return ctx.load<u64>(ctx.loadPtr(
                       table, token * static_cast<s64>(capSize))) == 83;
        });

    add("string-header-negative-offset", Component::Tests, CompatClass::M,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            // sds-style strings: header lives just before the chars.
            GuestPtr block = heap.malloc(32);
            ctx.store<u64>(block, 0, 89); // header: length
            GuestPtr chars = ctx.isCheri()
                ? GuestPtr(block.cap.incAddress(8).setBounds(24).value())
                : block + 8;
            // len = ((u64 *)s)[-1]
            return ctx.load<u64>(chars, -8) == 89;
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr block = heap.malloc(32);
            ctx.store<u64>(block, 0, 89);
            // Fixed: keep the block pointer; derive chars for callers.
            return ctx.load<u64>(block, 0) == 89;
        });

    add("tagged-union-ptr-or-int", Component::Tests, CompatClass::BF,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr obj = heapBuf(ctx, heap, 16, 97);
            // Scheme-style tagged values: low bit 1 = fixnum, 0 =
            // pointer — stored in a plain u64 slot.
            GuestPtr slot = heap.malloc(8);
            ctx.store<u64>(slot, 0, obj.addr()); // pointer case
            u64 v = ctx.load<u64>(slot, 0);
            if (v & 1)
                return false;
            return ctx.load<u64>(ctx.ptrFromInt(v)) == 97;
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr obj = heapBuf(ctx, heap, 16, 97);
            // Fixed: the value is a capability-width slot; fixnums use
            // an untagged capability whose address carries the int.
            GuestPtr slot = heap.malloc(capSize);
            ctx.storePtr(slot, 0, obj);
            GuestPtr v = ctx.loadPtr(slot, 0);
            if (!ctx.isCheri())
                return ctx.load<u64>(v) == 97;
            return v.cap.tag() && ctx.load<u64>(v) == 97;
        });

    add("hash-two-addresses", Component::Programs, CompatClass::H,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr a = heap.malloc(8);
            GuestPtr b = heap.malloc(8);
            u64 h = (a.addr() * 31) ^ (b.addr() * 37);
            return h != 0;
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr a = heap.malloc(8);
            GuestPtr b = heap.malloc(8);
            u64 h = (a.addr() * 31) ^ (b.addr() * 37);
            return h != 0;
        },
        /*traps=*/false);

    add("iterator-end-sentinel", Component::Tests, CompatClass::I,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr arr = heap.malloc(4 * 8);
            // end() is one-past-the-end: representable, comparable.
            GuestPtr end = arr + 32;
            u64 n = 0;
            for (GuestPtr it = arr; it < end; it += 8)
                ++n;
            return n == 4;
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr arr = heap.malloc(4 * 8);
            GuestPtr end = arr + 32;
            u64 n = 0;
            for (GuestPtr it = arr; it < end; it += 8)
                ++n;
            return n == 4;
        },
        /*traps=*/false);

    add("mmap-fixed-page-round", Component::Programs, CompatClass::A,
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr buf = heap.malloc(2 * pageSize);
            // Round an arbitrary heap pointer down to its page, then
            // touch the page head — via a bare integer.
            u64 page = (buf.addr() + 100) & ~pageMask;
            GuestPtr q = ctx.ptrFromInt(page);
            (void)ctx.load<u8>(q);
            return true;
        },
        [](GuestContext &ctx) {
            GuestMalloc heap(ctx);
            GuestPtr buf = heap.malloc(2 * pageSize);
            u64 page = (buf.addr() + 100) & ~pageMask;
            GuestPtr q = ctx.ptrFromInt(page, buf);
            // May still be below the allocation base: the fixed code
            // clamps to the capability's own base first.
            if (q.addr() < buf.cap.base())
                q = ctx.ptrFromInt(buf.cap.base(), buf);
            (void)ctx.load<u8>(q);
            return true;
        });

    add("sbrk-heap", Component::Programs, CompatClass::U,
        [](GuestContext &ctx) {
            SysResult r = ctx.kernel().sysSbrk(ctx.proc(), 4096);
            return r.error == E_OK;
        },
        [](GuestContext &ctx) {
            // Fixed code uses mmap (as emacs eventually did).
            GuestPtr p = ctx.mmap(4096);
            return !p.isNull() || p.addr() != 0;
        });

    return v;
}

} // namespace

const std::vector<Idiom> &
corpus()
{
    static const std::vector<Idiom> instance = buildCorpus();
    return instance;
}

Outcome
runScenario(const Scenario &fn, Abi abi)
{
    GuestSystem sys(abi, {.name = "compat"}, {"compat"});
    if (!sys)
        return Outcome::Broken;
    Outcome out = Outcome::Broken;
    sys.hosted([&] {
        try {
            out = fn(*sys.ctx) ? Outcome::Worked : Outcome::Refused;
        } catch (const CapTrap &) {
            out = Outcome::Trapped;
        } catch (const std::exception &) {
            out = Outcome::Broken;
        }
    });
    return out;
}

std::vector<IdiomResult>
runCorpus()
{
    std::vector<IdiomResult> out;
    for (const Idiom &idiom : corpus()) {
        IdiomResult r;
        r.idiom = &idiom;
        auto works = [&](const Scenario &fn, Abi abi) {
            return runScenario(fn, abi) == Outcome::Worked;
        };
        r.legacyOkMips = works(idiom.legacy, Abi::Mips64);
        r.legacyOkCheri = works(idiom.legacy, Abi::CheriAbi);
        r.fixedOkCheri = works(idiom.fixed, Abi::CheriAbi);
        r.fixedOkMips = works(idiom.fixed, Abi::Mips64);
        out.push_back(r);
    }
    return out;
}

CompatTable
tabulate(const std::vector<IdiomResult> &results)
{
    CompatTable table;
    for (const IdiomResult &r : results)
        ++table[r.idiom->component][r.idiom->cls];
    return table;
}

std::string
formatTable(const CompatTable &table)
{
    static const CompatClass cols[] = {
        CompatClass::PP, CompatClass::IP, CompatClass::M,
        CompatClass::PS, CompatClass::I,  CompatClass::VA,
        CompatClass::BF, CompatClass::H,  CompatClass::A,
        CompatClass::CC, CompatClass::U,
    };
    static const Component rows[] = {
        Component::Headers,
        Component::Libraries,
        Component::Programs,
        Component::Tests,
    };
    std::ostringstream os;
    os << std::left << std::setw(16) << "";
    for (CompatClass c : cols)
        os << std::right << std::setw(4) << compatClassName(c);
    os << "\n";
    for (Component row : rows) {
        os << std::left << std::setw(16) << componentName(row);
        auto it = table.find(row);
        for (CompatClass c : cols) {
            unsigned n = 0;
            if (it != table.end()) {
                auto jt = it->second.find(c);
                if (jt != it->second.end())
                    n = jt->second;
            }
            os << std::right << std::setw(4) << n;
        }
        os << "\n";
    }
    return os.str();
}

} // namespace cheri::compat
