#include "apps/minidb.h"

#include <sstream>

#include "libc/cstring.h"
#include "libc/tls.h"
#include "sanitizer/asan.h"

namespace cheri::apps
{

namespace
{

/** The dynamically linked MiniPG image: program + two libraries. */
SelfObject
makeLibpq()
{
    SelfObject lib{.name = "libpq.so", .textSize = 0x10000,
                   .data = std::vector<u8>(2048)};
    lib.addGlobals("pq_global_", 24, 64);
    lib.symbols.push_back({"PQconnect", 0x100, 0x200, true});
    lib.relocs.push_back({RelocKind::CapFunction, 24, 0, "PQconnect"});
    return lib;
}

SelfObject
makeLibpgcommon()
{
    SelfObject lib{.name = "libpgcommon.so", .textSize = 0x8000,
                   .data = std::vector<u8>(1024)};
    lib.addGlobals("pg_common_", 16, 32);
    return lib;
}

SelfObject
makeInitdbProgram()
{
    SelfObject prog{.name = "initdb", .textSize = 0x20000,
                    .data = std::vector<u8>(4096),
                    .needed = {"libpq.so", "libpgcommon.so"}};
    prog.addGlobals("initdb_global_", 32, 64);
    return prog;
}

/** A running MiniPG instance. */
class MiniPg
{
  public:
    MiniPg(GuestContext &ctx, AsanRuntime *asan = nullptr)
        : ctx(ctx), heap(ctx), tls(ctx), asan(asan)
    {
        const LinkedObject &main_obj = ctx.proc().image.objects.front();
        gotBase = main_obj.gotBase;
        gotSlots = std::max<u64>(main_obj.gotSlots, 1);
    }

    GuestContext &context() { return ctx; }

    /** Global access through the GOT (dynamically linked code). */
    void
    globalRef(u64 which)
    {
        ctx.cost().gotLoad(gotBase + (which % gotSlots) *
                                         ctx.ptrSize());
    }

    GuestPtr
    alloc(u64 size)
    {
        return asan ? asan->malloc(size) : heap.malloc(size);
    }

    /** Row: { next-in-bucket ptr, payload ptr, oid u64 } — pointers
     *  first, so the layout is naturally aligned under both ABIs. */
    u64 rowBytes() const { return 2 * ctx.ptrSize() + 8; }
    s64 payloadOff() const { return static_cast<s64>(ctx.ptrSize()); }
    s64 oidOff() const { return static_cast<s64>(2 * ctx.ptrSize()); }

    /** Build one bootstrap catalog with a chained hash index. */
    GuestPtr
    buildCatalog(const std::string &name, u64 rows, u64 &rows_out)
    {
        const u64 nbuckets = 64;
        GuestPtr buckets = alloc(nbuckets * ctx.ptrSize());
        for (u64 b = 0; b < nbuckets; ++b)
            ctx.storePtr(buckets, static_cast<s64>(b * ctx.ptrSize()),
                         GuestPtr());
        for (u64 i = 0; i < rows; ++i) {
            GuestPtr row = alloc(rowBytes());
            u64 oid = 16384 + i * 7 % (rows * 8);
            ctx.store<u64>(row, oidOff(), oid);
            GuestPtr text = alloc(24);
            std::string val = name + "_" + std::to_string(i);
            ctx.write(text, val.c_str(),
                      std::min<u64>(val.size() + 1, 24));
            ctx.storePtr(row, payloadOff(), text);
            u64 bucket = oid % nbuckets;
            s64 slot = static_cast<s64>(bucket * ctx.ptrSize());
            ctx.storePtr(row, 0, ctx.loadPtr(buckets, slot));
            ctx.storePtr(buckets, slot, row);
            // Catalog caches, error state, encoding tables, memory
            // contexts: each row insert touches many globals through
            // the GOT (initdb is the paper's GOT-bound workload).
            for (u64 g = 0; g < 10; ++g)
                globalRef(i + g);
            globalRef(oid);
            ctx.work(12);
        }
        rows_out += rows;
        return buckets;
    }

    /** Sort a catalog's rows by oid (pg_proc ordering). */
    void
    sortCatalog(const GuestPtr &buckets, u64 nbuckets, u64 expected_rows)
    {
        GuestPtr arr = alloc(expected_rows * ctx.ptrSize());
        u64 n = 0;
        for (u64 b = 0; b < nbuckets && n < expected_rows; ++b) {
            GuestPtr row =
                ctx.loadPtr(buckets, static_cast<s64>(b * ctx.ptrSize()));
            while (!row.isNull() && row.addr() != 0 &&
                   n < expected_rows) {
                ctx.storePtr(arr,
                             static_cast<s64>(n * ctx.ptrSize()), row);
                ++n;
                row = ctx.loadPtr(row, 0);
                globalRef(n);
            }
        }
        s64 oid_off = oidOff();
        gQsort(ctx, arr, n, ctx.ptrSize(),
               [oid_off](GuestContext &c, const GuestPtr &x,
                         const GuestPtr &y) {
                   GuestPtr px = c.isCheri()
                                     ? c.loadPtr(x)
                                     : c.ptrFromInt(c.load<u64>(x));
                   GuestPtr py = c.isCheri()
                                     ? c.loadPtr(y)
                                     : c.ptrFromInt(c.load<u64>(y));
                   u64 a = c.load<u64>(px, oid_off);
                   u64 b = c.load<u64>(py, oid_off);
                   return a < b ? -1 : (a > b ? 1 : 0);
               });
    }

    /** Write a catalog file through the VFS. */
    bool
    writeFile(const std::string &path, u64 bytes)
    {
        s64 fd = ctx.open(path, O_RDWR | O_CREAT | O_TRUNC);
        if (fd < 0)
            return false;
        GuestPtr block = alloc(8192);
        for (u64 i = 0; i < 8192; i += 8)
            ctx.store<u64>(block, static_cast<s64>(i), i * 0x9E37);
        u64 written = 0;
        while (written < bytes) {
            u64 chunk = std::min<u64>(8192, bytes - written);
            if (ctx.write(static_cast<int>(fd), block, chunk) < 0)
                return false;
            written += chunk;
            globalRef(written);
            globalRef(written + 1);
            globalRef(written + 3);
        }
        ctx.close(static_cast<int>(fd));
        return true;
    }

    /** Shared-memory buffer pool + semaphore words. */
    bool
    setupSharedMemory()
    {
        SysResult id = ctx.kernel().sysShmget(ctx.proc(), 0x52, 512 * 1024);
        if (id.failed())
            return false;
        UserPtr seg;
        if (ctx.kernel()
                .sysShmat(ctx.proc(), static_cast<int>(id.value),
                          UserPtr::null(), &seg)
                .failed()) {
            return false;
        }
        GuestPtr shm(seg.isCap ? seg.cap
                               : Capability::fromAddress(seg.addr()));
        // Buffer descriptors hold *offsets*, never pointers: shared
        // memory is visible to other principals.
        for (u64 i = 0; i < 2048; ++i) {
            ctx.store<u64>(shm, static_cast<s64>(i * 16), i * 8192);
            ctx.store<u64>(shm, static_cast<s64>(i * 16 + 8), 0);
            ctx.work(3);
        }
        // Semaphore words at the tail.
        for (u64 s = 0; s < 64; ++s)
            ctx.store<u32>(shm, static_cast<s64>(480 * 1024 + s * 4), 1);
        return true;
    }

    /** Backend-local state lives in TLS. */
    void
    setupBackendTls()
    {
        GuestPtr block = tls.moduleBlock(1, 512);
        (void)block;
        for (u64 i = 0; i < 512; i += 8)
            ctx.store<u64>(tls.var(1, i), 0, 0);
    }

    GuestMalloc &heapRef() { return heap; }

  private:
    GuestContext &ctx;
    GuestMalloc heap;
    GuestTls tls;
    AsanRuntime *asan;
    u64 gotBase = 0;
    u64 gotSlots = 1;
};

/** Shared catalogs written by initdb, with their row counts. */
const std::pair<const char *, u64> catalogFiles[] = {
    {"/pgdata/global/pg_database", 16 * 1024},
    {"/pgdata/global/pg_authid", 8 * 1024},
    {"/pgdata/global/pg_tablespace", 8 * 1024},
    {"/pgdata/base/1/pg_class", 48 * 1024},
    {"/pgdata/base/1/pg_type", 32 * 1024},
    {"/pgdata/base/1/pg_proc", 64 * 1024},
    {"/pgdata/base/1/pg_attribute", 64 * 1024},
    {"/pgdata/base/1/pg_index", 16 * 1024},
    {"/pgdata/base/1/pg_operator", 24 * 1024},
    {"/pgdata/base/1/pg_am", 8 * 1024},
    {"/pgdata/pg_xact/0000", 8 * 1024},
};

} // namespace

InitdbResult
runInitdb(Abi abi, MachineFeatures features, bool asan)
{
    KernelConfig cfg;
    cfg.features = features;
    cfg.features.asanInstrumentation = asan;
    GuestSystem sys(cfg);
    static const SelfObject libpq = makeLibpq();
    static const SelfObject libpgcommon = makeLibpgcommon();
    sys.kern.rtld().registerLibrary(&libpq);
    sys.kern.rtld().registerLibrary(&libpgcommon);
    static const SelfObject prog = makeInitdbProgram();
    if (!sys.boot(abi, prog, {"initdb", "-D", "/pgdata", "--no-sync"},
                  {"LC_ALL=C"}))
        throw std::runtime_error("initdb: execve failed");
    GuestContext &ctx = *sys.ctx;
    Vfs &vfs = sys.kern.vfs();
    InitdbResult r;
    sys.hosted([&] {
        std::unique_ptr<AsanRuntime> asan_rt;
        if (asan)
            asan_rt = std::make_unique<AsanRuntime>(ctx);
        // Measure the whole initdb run (it *is* the benchmark).
        ctx.cost().reset();
        MiniPg pg(ctx, asan_rt.get());

        vfs.mkdir("/pgdata/base/1");
        vfs.mkdir("/pgdata/global");
        vfs.mkdir("/pgdata/pg_xact");
        vfs.mkdir("/pgdata/pg_wal");

        // Bootstrap catalogs: pointer-dense hash tables, then sorted.
        GuestPtr pg_class =
            pg.buildCatalog("pg_class", 360, r.catalogRows);
        GuestPtr pg_type = pg.buildCatalog("pg_type", 420, r.catalogRows);
        GuestPtr pg_proc = pg.buildCatalog("pg_proc", 900, r.catalogRows);
        pg.sortCatalog(pg_proc, 64, 900);
        pg.sortCatalog(pg_type, 64, 420);
        (void)pg_class;

        // Catalog relation files + WAL segment.
        for (const auto &[path, bytes] : catalogFiles)
            r.filesCreated += pg.writeFile(path, bytes);
        r.filesCreated +=
            pg.writeFile("/pgdata/pg_wal/000000010000", 256 * 1024);
        r.filesCreated += pg.writeFile("/pgdata/postgresql.conf", 4 * 1024);
        r.filesCreated += pg.writeFile("/pgdata/pg_hba.conf", 2 * 1024);

        pg.setupSharedMemory();
        pg.setupBackendTls();
    });
    const CostModel &cost = ctx.cost();
    r.instructions = cost.instructions();
    r.cycles = cost.cycles();
    r.l2Misses = cost.l2Misses();
    r.codeBytes = cost.codeBytes();
    return r;
}

// ---------------------------------------------------------------------
// pg_regress
// ---------------------------------------------------------------------

namespace
{

/** A tiny relational engine the regression tests drive. */
class Engine
{
  public:
    explicit Engine(GuestContext &ctx) : ctx(ctx), heap(ctx) {}

    GuestContext &context() { return ctx; }
    GuestMalloc &heapRef() { return heap; }

    /** Row layout: { payload ptr | i64 key | i32 val }. */
    u64 rowBytes() const { return ctx.ptrSize() + 12; }

    GuestPtr
    makeTable(u64 nrows, u64 seed)
    {
        GuestPtr dir = heap.malloc(nrows * ctx.ptrSize());
        u64 x = seed;
        for (u64 i = 0; i < nrows; ++i) {
            GuestPtr row = heap.malloc(rowBytes());
            GuestPtr text = heap.malloc(16);
            ctx.store<u64>(text, 0, x);
            ctx.storePtr(row, 0, text);
            x = x * 1103515245 + 12345;
            ctx.store<s64>(row, static_cast<s64>(ctx.ptrSize()),
                           static_cast<s64>(x % 1000));
            ctx.store<u32>(row, static_cast<s64>(ctx.ptrSize()) + 8,
                           static_cast<u32>(i));
            ctx.storePtr(dir, static_cast<s64>(i * ctx.ptrSize()), row);
        }
        return dir;
    }

    GuestPtr
    row(const GuestPtr &dir, u64 i)
    {
        if (ctx.isCheri())
            return ctx.loadPtr(dir, static_cast<s64>(i * ctx.ptrSize()));
        return ctx.ptrFromInt(
            ctx.load<u64>(dir, static_cast<s64>(i * ctx.ptrSize())));
    }

    s64
    key(const GuestPtr &r)
    {
        return ctx.load<s64>(r, static_cast<s64>(ctx.ptrSize()));
    }

  private:
    GuestContext &ctx;
    GuestMalloc heap;
};

using TestFn = std::function<bool(Engine &)>;

struct RegressTest
{
    std::string name;
    TestFn fn;
    /** Test is skipped when the ABI lacks a required feature. */
    bool requiresSbrk = false;
};

std::vector<RegressTest>
buildRegressTests()
{
    std::vector<RegressTest> tests;
    auto add = [&](std::string name, TestFn fn, bool sbrk = false) {
        tests.push_back({std::move(name), std::move(fn), sbrk});
    };

    // --- 130 parameterized clean tests ---------------------------------
    for (int n = 0; n < 40; ++n) {
        add("select_scan_" + std::to_string(n), [n](Engine &e) {
            GuestPtr t = e.makeTable(20 + n, n + 1);
            s64 sum = 0;
            for (u64 i = 0; i < 20u + n; ++i)
                sum += e.key(e.row(t, i));
            return sum >= 0;
        });
    }
    for (int n = 0; n < 30; ++n) {
        add("order_by_" + std::to_string(n), [n](Engine &e) {
            GuestContext &ctx = e.context();
            u64 rows = 16 + n;
            GuestPtr t = e.makeTable(rows, n + 99);
            // ORDER BY key: sort the row directory by the key column.
            s64 key_off = static_cast<s64>(ctx.ptrSize());
            gQsort(ctx, t, rows, ctx.ptrSize(),
                   [key_off](GuestContext &c, const GuestPtr &x,
                             const GuestPtr &y) {
                       s64 a = c.load<s64>(c.loadPtr(x), key_off);
                       s64 b = c.load<s64>(c.loadPtr(y), key_off);
                       return a < b ? -1 : (a > b ? 1 : 0);
                   });
            s64 prev = -1;
            for (u64 i = 0; i < rows; ++i) {
                s64 v = e.key(e.row(t, i));
                if (v < prev)
                    return false;
                prev = v;
            }
            return true;
        });
    }
    for (int n = 0; n < 30; ++n) {
        add("aggregate_" + std::to_string(n), [n](Engine &e) {
            GuestPtr t = e.makeTable(32, n + 7);
            s64 mx = -1;
            for (u64 i = 0; i < 32; ++i)
                mx = std::max(mx, e.key(e.row(t, i)));
            return mx >= 0 && mx < 1000;
        });
    }
    for (int n = 0; n < 30; ++n) {
        add("join_" + std::to_string(n), [n](Engine &e) {
            GuestPtr a = e.makeTable(24, n + 3);
            GuestPtr b = e.makeTable(24, n + 3); // same seed: join hits
            u64 matches = 0;
            for (u64 i = 0; i < 24; ++i) {
                for (u64 j = 0; j < 24; ++j) {
                    matches += e.key(e.row(a, i)) == e.key(e.row(b, j));
                    e.context().work(2);
                }
            }
            return matches >= 24;
        });
    }

    // --- 20 more clean tests: storage layer -----------------------------
    for (int n = 0; n < 20; ++n) {
        add("storage_" + std::to_string(n), [n](Engine &e) {
            GuestContext &ctx = e.context();
            s64 fd = ctx.open("/tmp/regress_" + std::to_string(n),
                              O_RDWR | O_CREAT | O_TRUNC);
            if (fd < 0)
                return false;
            GuestPtr buf = e.heapRef().malloc(256);
            for (u64 i = 0; i < 256; i += 8)
                ctx.store<u64>(buf, static_cast<s64>(i), i * n);
            bool ok =
                ctx.write(static_cast<int>(fd), buf, 256) == 256;
            ctx.close(static_cast<int>(fd));
            return ok;
        });
    }

    // --- 8 failures: pointer-size and output-order assumptions ----------
    // (paper: "outputs are sorted in a different order or the test
    // assumes a pointer size of 4 or 8 bytes")
    for (int n = 0; n < 4; ++n) {
        add("rowsize_assume8_" + std::to_string(n), [](Engine &e) {
            // The expected on-disk row size is computed for 8-byte
            // pointers; the CheriABI row is wider.
            return e.rowBytes() == 8 + 12;
        });
    }
    for (int n = 0; n < 4; ++n) {
        add("copy_binary_" + std::to_string(n), [n](Engine &e) {
            // COPY BINARY serializes raw rows; the golden file was
            // produced with 8-byte pointers, so the byte count is off.
            GuestContext &ctx = e.context();
            GuestPtr dir = e.makeTable(4, n + 11);
            s64 fd = ctx.open("/tmp/copybin_" + std::to_string(n),
                              O_RDWR | O_CREAT | O_TRUNC);
            if (fd < 0)
                return false;
            u64 written = 0;
            for (u64 i = 0; i < 4; ++i) {
                s64 w = ctx.write(static_cast<int>(fd), e.row(dir, i),
                                  e.rowBytes());
                if (w > 0)
                    written += static_cast<u64>(w);
            }
            ctx.close(static_cast<int>(fd));
            const u64 golden = 4 * (8 + 12); // 8-byte-pointer rows
            return written == golden;
        });
    }

    // --- 1 failure: under-aligned pointer (traps on CHERI) --------------
    add("underaligned_tuple_ptr", [](Engine &e) {
        GuestContext &ctx = e.context();
        GuestPtr rec = e.heapRef().malloc(32);
        GuestPtr text = e.heapRef().malloc(8);
        // Tuple header packs a pointer at offset 4.
        ctx.storePtr(rec, 4, text);
        GuestPtr back = ctx.isCheri()
                            ? ctx.loadPtr(rec, 4)
                            : ctx.ptrFromInt(ctx.load<u64>(rec, 4));
        return back.addr() == text.addr();
    });

    // --- 7 failures: "slightly different results" ------------------------
    for (int n = 0; n < 7; ++n) {
        add("legacy_field_offset_" + std::to_string(n), [n](Engine &e) {
            // The test's expected output was computed by reading the
            // key column at its legacy offset (8, after an 8-byte
            // pointer).  Under CheriABI the key lives at offset 16;
            // offset 8 reads the middle of the capability instead —
            // "slightly different results" (paper section 5.1).
            GuestContext &ctx = e.context();
            GuestPtr dir = e.makeTable(16, n + 31);
            s64 sig = 0, golden = 0;
            for (u64 i = 0; i < 16; ++i) {
                GuestPtr r = e.row(dir, i);
                sig += ctx.load<s64>(r, 8); // legacy offset
                golden += e.key(r);         // schema-correct offset
            }
            ctx.work(8);
            return sig == golden;
        });
    }

    // --- 1 skip under CheriABI: sbrk-based memory-context test ----------
    add("memory_context_sbrk", [](Engine &e) {
        SysResult r =
            e.context().kernel().sysSbrk(e.context().proc(), 65536);
        return r.error == E_OK;
    },
        /*requiresSbrk=*/true);

    return tests;
}

} // namespace

RegressTotals
runPgRegress(Abi abi, std::vector<RegressCase> *cases)
{
    GuestSystem sys(abi, {.name = "pg_regress"}, {"pg_regress"});
    if (!sys)
        throw std::runtime_error("pg_regress: execve failed");

    RegressTotals totals;
    auto tests = buildRegressTests();
    sys.hosted([&] {
        for (const RegressTest &t : tests) {
            RegressCase rc;
            rc.name = t.name;
            if (t.requiresSbrk && abi == Abi::CheriAbi) {
                rc.outcome = RegressCase::Outcome::Skip;
                rc.detail = "sbrk not supported under CheriABI";
                ++totals.skip;
            } else {
                Engine engine(*sys.ctx);
                bool ok;
                try {
                    ok = t.fn(engine);
                } catch (const CapTrap &trap) {
                    ok = false;
                    rc.detail = trap.what();
                }
                rc.outcome = ok ? RegressCase::Outcome::Pass
                                : RegressCase::Outcome::Fail;
                ++(ok ? totals.pass : totals.fail);
            }
            if (cases)
                cases->push_back(rc);
        }
    });
    return totals;
}

} // namespace cheri::apps
