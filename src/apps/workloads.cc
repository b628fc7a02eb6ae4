#include "apps/workloads.h"

#include "libc/cstring.h"

namespace cheri::apps
{

namespace
{

/** Deterministic PRNG for reproducible workloads. */
struct Lcg
{
    u64 state;
    explicit Lcg(u64 seed) : state(seed) {}
    u64
    next()
    {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 16;
    }
};

s64
ptrOff(GuestContext &ctx, u64 index)
{
    return static_cast<s64>(index * ctx.ptrSize());
}

// --- security-sha: block digest with heavy register pressure --------
void
securitySha(GuestContext &ctx, GuestMalloc &heap)
{
    const u64 data_len = 48 * 1024;
    GuestPtr data = heap.malloc(data_len);
    Lcg rng(1);
    for (u64 i = 0; i < data_len; i += 8)
        ctx.store<u64>(data, static_cast<s64>(i), rng.next());
    u64 h[5] = {0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476,
                0xC3D2E1F0};
    for (u64 blk = 0; blk + 64 <= data_len; blk += 64) {
        u64 w[8];
        for (u64 i = 0; i < 8; ++i)
            w[i] = ctx.load<u64>(data, static_cast<s64>(blk + i * 8));
        // 80 rounds of mixing: enough live values that the mips64
        // compiler spills; the CHERI compiler keeps pointers in the
        // capability file and the integers fit (paper section 5.2).
        for (int round = 0; round < 80; ++round) {
            h[round % 5] ^= (w[round % 8] << (round % 13)) +
                            (h[(round + 1) % 5] >> 3);
            ctx.work(6);
        }
        ctx.cost().spills(ctx.proc().regs().stack().address(), 16, 2);
    }
    GuestPtr out = heap.malloc(40);
    for (int i = 0; i < 5; ++i)
        ctx.store<u64>(out, i * 8, h[i]);
}

// --- office-stringsearch: byte scanning ------------------------------
void
officeStringsearch(GuestContext &ctx, GuestMalloc &heap)
{
    const u64 text_len = 96 * 1024;
    GuestPtr text = heap.malloc(text_len);
    Lcg rng(2);
    for (u64 i = 0; i < text_len; i += 8)
        ctx.store<u64>(text, static_cast<s64>(i), rng.next() | 0x2020202020202020ull);
    const char needle[] = "capability";
    u64 found = 0;
    for (u64 i = 0; i + sizeof(needle) < text_len; ++i) {
        if (ctx.load<u8>(text, static_cast<s64>(i)) !=
            static_cast<u8>(needle[0])) {
            ctx.work(1);
            continue;
        }
        u64 j = 1;
        while (j < sizeof(needle) - 1 &&
               ctx.load<u8>(text, static_cast<s64>(i + j)) ==
                   static_cast<u8>(needle[j])) {
            ++j;
        }
        found += j == sizeof(needle) - 1;
    }
    GuestPtr out = heap.malloc(8);
    ctx.store<u64>(out, 0, found);
}

// --- auto-qsort: sorting an array of record pointers ------------------
void
autoQsort(GuestContext &ctx, GuestMalloc &heap)
{
    const u64 n = 1500;
    GuestPtr arr = heap.malloc(n * ctx.ptrSize());
    Lcg rng(3);
    for (u64 i = 0; i < n; ++i) {
        GuestPtr rec = heap.malloc(24);
        ctx.store<u64>(rec, 0, rng.next() % 100000);
        ctx.storePtr(arr, ptrOff(ctx, i), rec);
    }
    gQsortPtrs(ctx, arr, n);
}

// --- auto-basicmath: ALU-dominated numeric kernels --------------------
void
autoBasicmath(GuestContext &ctx, GuestMalloc &heap)
{
    GuestPtr out = heap.malloc(64);
    u64 acc = 1;
    for (u64 iter = 0; iter < 20000; ++iter) {
        // Cubic solve / gcd / angle conversion flavour: pure ALU.
        acc = acc * 48271 % 0x7FFFFFFF;
        u64 a = acc | 1, b = (acc >> 7) | 1;
        while (b != 0) {
            u64 r = a % b;
            a = b;
            b = r;
            ctx.work(6);
        }
        ctx.work(12);
        if (iter % 512 == 0)
            ctx.store<u64>(out, 0, acc);
    }
}

// --- network-dijkstra: adjacency-matrix shortest paths ----------------
void
networkDijkstra(GuestContext &ctx, GuestMalloc &heap)
{
    const u64 n = 96;
    GuestPtr adj = heap.malloc(n * n * 4);
    Lcg rng(4);
    for (u64 i = 0; i < n * n; ++i)
        ctx.store<u32>(adj, static_cast<s64>(i * 4),
                       static_cast<u32>(rng.next() % 64 + 1));
    GuestPtr dist = heap.malloc(n * 4);
    GuestPtr done = heap.malloc(n);
    for (u64 src = 0; src < 4; ++src) {
        for (u64 i = 0; i < n; ++i) {
            ctx.store<u32>(dist, static_cast<s64>(i * 4), 0x7FFFFFFF);
            ctx.store<u8>(done, static_cast<s64>(i), 0);
        }
        ctx.store<u32>(dist, static_cast<s64>(src * 4), 0);
        for (u64 iter = 0; iter < n; ++iter) {
            u32 best = 0x7FFFFFFF;
            u64 u = n;
            for (u64 i = 0; i < n; ++i) {
                ctx.work(2);
                if (ctx.load<u8>(done, static_cast<s64>(i)))
                    continue;
                u32 d = ctx.load<u32>(dist, static_cast<s64>(i * 4));
                if (d < best) {
                    best = d;
                    u = i;
                }
            }
            if (u == n)
                break;
            ctx.store<u8>(done, static_cast<s64>(u), 1);
            for (u64 v = 0; v < n; ++v) {
                u32 w = ctx.load<u32>(
                    adj, static_cast<s64>((u * n + v) * 4));
                u32 dv = ctx.load<u32>(dist, static_cast<s64>(v * 4));
                if (best + w < dv) {
                    ctx.store<u32>(dist, static_cast<s64>(v * 4),
                                   best + w);
                }
                ctx.work(3);
            }
        }
    }
}

// --- network-patricia: pointer-chasing trie ----------------------------
void
networkPatricia(GuestContext &ctx, GuestMalloc &heap)
{
    // Node: { left ptr, right ptr, u64 key } — pointer-dense.
    const u64 node_bytes = 2 * ctx.ptrSize() + 8;
    auto key_off = static_cast<s64>(2 * ctx.ptrSize());
    GuestPtr root = heap.malloc(node_bytes);
    ctx.store<u64>(root, key_off, 0);
    Lcg rng(5);
    const u64 inserts = 2500;
    for (u64 i = 0; i < inserts; ++i) {
        u64 key = rng.next();
        GuestPtr cur = root;
        for (int bit = 0; bit < 18; ++bit) {
            bool right = (key >> bit) & 1;
            s64 slot = right ? static_cast<s64>(ctx.ptrSize()) : 0;
            GuestPtr child = ctx.loadPtr(cur, slot);
            if (child.isNull() || child.addr() == 0) {
                GuestPtr node = heap.malloc(node_bytes);
                ctx.store<u64>(node, key_off, key);
                ctx.storePtr(cur, slot, node);
                break;
            }
            cur = child;
            ctx.work(2);
        }
    }
    // Lookups.
    Lcg rng2(5);
    u64 hits = 0;
    for (u64 i = 0; i < inserts; ++i) {
        u64 key = rng2.next();
        GuestPtr cur = root;
        for (int bit = 0; bit < 18; ++bit) {
            if (ctx.load<u64>(cur, key_off) == key) {
                ++hits;
                break;
            }
            bool right = (key >> bit) & 1;
            GuestPtr child = ctx.loadPtr(
                cur, right ? static_cast<s64>(ctx.ptrSize()) : 0);
            if (child.isNull() || child.addr() == 0)
                break;
            cur = child;
        }
    }
    GuestPtr out = heap.malloc(8);
    ctx.store<u64>(out, 0, hits);
}

// --- telco-adpcm: sample stream coding ---------------------------------
void
telcoAdpcm(GuestContext &ctx, GuestMalloc &heap, bool encode)
{
    const u64 samples = 48 * 1024;
    GuestPtr in = heap.malloc(samples * 2);
    Lcg rng(encode ? 6 : 7);
    for (u64 i = 0; i < samples; ++i) {
        ctx.store<u16>(in, static_cast<s64>(i * 2),
                       static_cast<u16>(rng.next()));
    }
    GuestPtr out = heap.malloc(samples);
    int predictor = 0, step = 7;
    for (u64 i = 0; i < samples; ++i) {
        int sample = static_cast<std::int16_t>(
            ctx.load<u16>(in, static_cast<s64>(i * 2)));
        int diff = encode ? sample - predictor : sample ^ step;
        int code = 0;
        if (diff < 0) {
            code = 8;
            diff = -diff;
        }
        if (diff >= step) {
            code |= 4;
            diff -= step;
        }
        predictor += (code & 8) ? -diff : diff;
        step = std::max(7, std::min(32767, step + (code & 7) - 3));
        ctx.work(14);
        ctx.store<u8>(out, static_cast<s64>(i),
                      static_cast<u8>(code));
    }
}

// --- spec-gobmk: board scanning with small structs ----------------------
void
specGobmk(GuestContext &ctx, GuestMalloc &heap)
{
    const u64 bsize = 19 * 19;
    GuestPtr board = heap.malloc(bsize);
    Lcg rng(8);
    for (u64 mv = 0; mv < 2500; ++mv) {
        u64 pos = rng.next() % bsize;
        ctx.store<u8>(board, static_cast<s64>(pos),
                      static_cast<u8>(1 + mv % 2));
        // Liberty count around the move.
        u64 liberties = 0;
        for (int d = 0; d < 4; ++d) {
            static const int dx[] = {1, -1, 19, -19};
            s64 npos = static_cast<s64>(pos) + dx[d];
            if (npos < 0 || npos >= static_cast<s64>(bsize))
                continue;
            liberties += ctx.load<u8>(board, npos) == 0;
            ctx.work(4);
        }
        // Pattern-match a 3x3 neighbourhood.
        for (int dy = -1; dy <= 1; ++dy) {
            for (int dx2 = -1; dx2 <= 1; ++dx2) {
                s64 npos = static_cast<s64>(pos) + dy * 19 + dx2;
                if (npos >= 0 && npos < static_cast<s64>(bsize))
                    ctx.work(ctx.load<u8>(board, npos) + 1);
            }
        }
        (void)liberties;
    }
}

// --- spec-libquantum: streaming register simulation ---------------------
void
specLibquantum(GuestContext &ctx, GuestMalloc &heap)
{
    const u64 n = 24 * 1024;
    GuestPtr reg = heap.malloc(n * 8);
    Lcg rng(9);
    for (u64 i = 0; i < n; ++i)
        ctx.store<u64>(reg, static_cast<s64>(i * 8), rng.next());
    for (int gate = 0; gate < 6; ++gate) {
        for (u64 i = 0; i < n; ++i) {
            u64 amp = ctx.load<u64>(reg, static_cast<s64>(i * 8));
            amp ^= u64{1} << (gate * 7 % 60);
            amp = (amp << 3) | (amp >> 61);
            ctx.work(4);
            ctx.store<u64>(reg, static_cast<s64>(i * 8), amp);
        }
    }
}

// --- spec-astar: grid search with a pointer open-list -------------------
void
specAstar(GuestContext &ctx, GuestMalloc &heap)
{
    const u64 dim = 96;
    GuestPtr grid = heap.malloc(dim * dim);
    Lcg rng(10);
    for (u64 i = 0; i < dim * dim; ++i)
        ctx.store<u8>(grid, static_cast<s64>(i),
                      static_cast<u8>(rng.next() % 8 == 0));
    // Node: { ptr next, u32 pos, u32 cost }
    const u64 node_bytes = ctx.ptrSize() + 8;
    auto pos_off = static_cast<s64>(ctx.ptrSize());
    GuestPtr costs = heap.malloc(dim * dim * 4);
    for (u64 i = 0; i < dim * dim; ++i)
        ctx.store<u32>(costs, static_cast<s64>(i * 4), 0xFFFFFFFF);
    GuestPtr head = heap.malloc(node_bytes);
    ctx.store<u32>(head, pos_off, 0);
    ctx.store<u32>(head, pos_off + 4, 0);
    ctx.storePtr(head, 0, GuestPtr());
    ctx.store<u32>(costs, 0, 0);
    u64 expanded = 0;
    GuestPtr open = head;
    while (!open.isNull() && open.addr() != 0 && expanded < 6000) {
        u32 pos = ctx.load<u32>(open, pos_off);
        u32 cost = ctx.load<u32>(open, pos_off + 4);
        open = ctx.loadPtr(open, 0);
        ++expanded;
        static const int dirs[] = {1, -1, static_cast<int>(dim),
                                   -static_cast<int>(dim)};
        for (int d = 0; d < 4; ++d) {
            s64 np = static_cast<s64>(pos) + dirs[d];
            if (np < 0 || np >= static_cast<s64>(dim * dim))
                continue;
            if (ctx.load<u8>(grid, np))
                continue; // wall
            u32 nc = cost + 1;
            u32 old = ctx.load<u32>(costs, np * 4);
            if (nc < old) {
                ctx.store<u32>(costs, np * 4, nc);
                GuestPtr node = heap.malloc(node_bytes);
                ctx.store<u32>(node, pos_off, static_cast<u32>(np));
                ctx.store<u32>(node, pos_off + 4, nc);
                ctx.storePtr(node, 0, open);
                open = node;
            }
            ctx.work(6);
        }
    }
}

// --- spec-xalancbmk: DOM-tree building and traversal --------------------
void
specXalancbmk(GuestContext &ctx, GuestMalloc &heap)
{
    // Node: { parent, firstChild, nextSibling, attr } — four pointers
    // plus a small payload: the most pointer-dense workload, and the
    // one with the largest CheriABI cache footprint growth.
    const u64 nptrs = 4;
    const u64 node_bytes = nptrs * ctx.ptrSize() + 8;
    auto payload_off = static_cast<s64>(nptrs * ctx.ptrSize());
    const u64 n = 2200;
    std::vector<GuestPtr> nodes;
    nodes.reserve(n);
    GuestPtr root = heap.malloc(node_bytes);
    ctx.store<u64>(root, payload_off, 0);
    nodes.push_back(root);
    Lcg rng(11);
    for (u64 i = 1; i < n; ++i) {
        GuestPtr node = heap.malloc(node_bytes);
        ctx.store<u64>(node, payload_off, i);
        GuestPtr parent = nodes[rng.next() % nodes.size()];
        ctx.storePtr(node, 0, parent);
        // Push onto the parent's child list.
        GuestPtr first = ctx.loadPtr(parent, ptrOff(ctx, 1));
        ctx.storePtr(node, ptrOff(ctx, 2), first);
        ctx.storePtr(parent, ptrOff(ctx, 1), node);
        // An attribute node for every third element.
        if (i % 3 == 0) {
            GuestPtr attr = heap.malloc(node_bytes);
            ctx.store<u64>(attr, payload_off, ~i);
            ctx.storePtr(node, ptrOff(ctx, 3), attr);
        }
        nodes.push_back(node);
    }
    // Repeated full-tree traversals (XPath evaluation flavour).
    u64 checksum = 0;
    for (int pass = 0; pass < 3; ++pass) {
        std::vector<GuestPtr> stack{root};
        while (!stack.empty()) {
            GuestPtr cur = stack.back();
            stack.pop_back();
            checksum += ctx.load<u64>(cur, payload_off);
            GuestPtr attr = ctx.loadPtr(cur, ptrOff(ctx, 3));
            if (!attr.isNull() && attr.addr() != 0)
                checksum ^= ctx.load<u64>(attr, payload_off);
            GuestPtr child = ctx.loadPtr(cur, ptrOff(ctx, 1));
            while (!child.isNull() && child.addr() != 0) {
                stack.push_back(child);
                child = ctx.loadPtr(child, ptrOff(ctx, 2));
                ctx.work(2);
            }
        }
    }
    GuestPtr out = heap.malloc(8);
    ctx.store<u64>(out, 0, checksum);
}

} // namespace

/** Pointer-array qsort used by auto-qsort (exposed for reuse). */
void
gQsortPtrs(GuestContext &ctx, const GuestPtr &arr, u64 n)
{
    gQsort(ctx, arr, n, ctx.ptrSize(),
           [](GuestContext &c, const GuestPtr &x, const GuestPtr &y) {
               GuestPtr px = c.isCheri() ? c.loadPtr(x)
                                         : c.ptrFromInt(c.load<u64>(x));
               GuestPtr py = c.isCheri() ? c.loadPtr(y)
                                         : c.ptrFromInt(c.load<u64>(y));
               u64 a = c.load<u64>(px);
               u64 b = c.load<u64>(py);
               return a < b ? -1 : (a > b ? 1 : 0);
           });
}

const std::vector<Workload> &
figure4Workloads()
{
    static const std::vector<Workload> workloads = {
        {"security-sha", [](GuestContext &c, GuestMalloc &h) {
             securitySha(c, h);
         }},
        {"office-stringsearch", [](GuestContext &c, GuestMalloc &h) {
             officeStringsearch(c, h);
         }},
        {"auto-qsort", [](GuestContext &c, GuestMalloc &h) {
             autoQsort(c, h);
         }},
        {"auto-basicmath", [](GuestContext &c, GuestMalloc &h) {
             autoBasicmath(c, h);
         }},
        {"network-dijkstra", [](GuestContext &c, GuestMalloc &h) {
             networkDijkstra(c, h);
         }},
        {"network-patricia", [](GuestContext &c, GuestMalloc &h) {
             networkPatricia(c, h);
         }},
        {"telco-adpcm-enc", [](GuestContext &c, GuestMalloc &h) {
             telcoAdpcm(c, h, true);
         }},
        {"telco-adpcm-dec", [](GuestContext &c, GuestMalloc &h) {
             telcoAdpcm(c, h, false);
         }},
        {"spec2006-gobmk", [](GuestContext &c, GuestMalloc &h) {
             specGobmk(c, h);
         }},
        {"spec2006-libquantum", [](GuestContext &c, GuestMalloc &h) {
             specLibquantum(c, h);
         }},
        {"spec2006-astar", [](GuestContext &c, GuestMalloc &h) {
             specAstar(c, h);
         }},
        {"spec2006-xalancbmk", [](GuestContext &c, GuestMalloc &h) {
             specXalancbmk(c, h);
         }},
    };
    return workloads;
}

WorkloadResult
runWorkload(const Workload &w, Abi abi, KernelConfig cfg, u64 aslr_seed)
{
    if (aslr_seed)
        cfg.aslrSeed = aslr_seed;
    GuestSystem sys(abi, {.name = w.name, .textSize = 0x8000}, {w.name}, {},
                    cfg);
    if (!sys)
        throw std::runtime_error("execve failed: " + w.name);
    GuestMalloc heap(*sys.ctx);
    // Measure only the benchmark kernel, as the paper does.
    CostModel &cost = sys.proc->cost();
    cost.reset();
    sys.hosted([&] { w.run(*sys.ctx, heap); });
    WorkloadResult r;
    r.name = w.name;
    r.instructions = cost.instructions();
    r.cycles = cost.cycles();
    r.l2Misses = cost.l2Misses();
    r.codeBytes = cost.codeBytes();
    return r;
}

double
overheadPct(u64 mips, u64 cheri)
{
    if (mips == 0)
        return 0.0;
    return (static_cast<double>(cheri) - static_cast<double>(mips)) /
           static_cast<double>(mips) * 100.0;
}

} // namespace cheri::apps
