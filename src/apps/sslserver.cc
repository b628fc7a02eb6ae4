#include "apps/sslserver.h"

#include "libc/cstring.h"
#include "libc/malloc.h"
#include "libc/tls.h"

namespace cheri::apps
{

namespace
{

SelfObject
makeLibcrypto()
{
    SelfObject lib{.name = "libcrypto.so", .textSize = 0x18000,
                   .data = std::vector<u8>(4096)};
    lib.addGlobals("crypto_table_", 20, 128);
    lib.symbols.push_back({"BN_mod_exp", 0x400, 0x300, true});
    lib.symbols.push_back({"EVP_cipher", 0x800, 0x200, true});
    lib.relocs.push_back({RelocKind::CapFunction, 20, 0, "BN_mod_exp"});
    lib.relocs.push_back({RelocKind::CapFunction, 21, 0, "EVP_cipher"});
    return lib;
}

SelfObject
makeLibssl()
{
    SelfObject lib{.name = "libssl.so", .textSize = 0x14000,
                   .data = std::vector<u8>(2048), .needed = {"libcrypto.so"}};
    lib.addGlobals("ssl_state_", 12, 64);
    lib.symbols.push_back({"SSL_accept", 0x200, 0x400, true});
    lib.relocs.push_back({RelocKind::CapFunction, 12, 0, "SSL_accept"});
    lib.relocs.push_back({RelocKind::CapFunction, 13, 0, "BN_mod_exp"});
    return lib;
}

SelfObject
makeServerProgram()
{
    SelfObject prog{.name = "mini_s_server", .textSize = 0xC000,
                    .data = std::vector<u8>(1024), .needed = {"libssl.so"}};
    prog.addGlobals("srv_conf_", 8, 32);
    prog.relocs.push_back({RelocKind::CapFunction, 8, 0, "SSL_accept"});
    return prog;
}

/** Toy modular exponentiation (the "RSA" of the handshake). */
u64
modPow(GuestContext &ctx, u64 base, u64 exp, u64 mod)
{
    u64 result = 1;
    base %= mod;
    while (exp) {
        if (exp & 1)
            result = (result * base) % mod;
        base = (base * base) % mod;
        exp >>= 1;
        ctx.work(8);
    }
    return result;
}

/** Keystream cipher: xorshift seeded with the session key. */
void
cipherInPlace(GuestContext &ctx, const GuestPtr &buf, u64 len, u64 key)
{
    u64 ks = key | 1;
    for (u64 i = 0; i < len; ++i) {
        ks ^= ks << 13;
        ks ^= ks >> 7;
        ks ^= ks << 17;
        u8 b = ctx.load<u8>(buf, static_cast<s64>(i));
        ctx.store<u8>(buf, static_cast<s64>(i),
                      b ^ static_cast<u8>(ks));
    }
}

/** The server body: handshake with the in-process client over a pty,
 *  then serve the document encrypted. */
void
serve(GuestContext &ctx, SslServerReport &report)
{
    Kernel &kern = ctx.kernel();
    Process &proc = ctx.proc();
    GuestMalloc heap(ctx);
    GuestTls tls(ctx);

    // "Listening socket": a pty pair; the master side is the client.
    auto [client_end, server_end] = Vfs::makePty();
    auto server_of = std::make_shared<OpenFile>();
    server_of->node = server_end;
    server_of->flags = O_RDWR;
    int server_fd = proc.allocFd(server_of);
    auto client_of = std::make_shared<OpenFile>();
    client_of->node = client_end;
    client_of->flags = O_RDWR;
    int client_fd = proc.allocFd(client_of);

    // Session state lives in libssl's TLS block.
    GuestPtr session = tls.moduleBlock(2, 256);

    // kevent registration: the kernel holds the session pointer.
    KEvent reg;
    reg.ident = server_fd;
    reg.filter = KFilter::Read;
    reg.udata = session.cap;
    kern.sysKevent(proc, {reg}, nullptr, 0);

    // --- Client hello: nonce + DH-ish public value. -----------------
    {
        StackFrame frame(ctx, 256, 2);
        GuestPtr hello = frame.alloc(32);
        ctx.store<u64>(hello, 0, 0x48454C4C4F313341); // magic
        u64 client_secret = 0x1234567;
        u64 client_pub = modPow(ctx, 5, client_secret, 0xFFFFFFFB);
        ctx.store<u64>(hello, 8, client_pub);
        ctx.store<u64>(hello, 16, 0xC11E47); // nonce
        ctx.write(client_fd, hello, 32);

        // --- Server accept: poll, read hello, compute shared key. ---
        std::vector<KEvent> events;
        kern.sysKevent(proc, {}, &events, 4);
        report.handshakeOk = !events.empty() &&
                             events[0].udata.address() ==
                                 session.cap.address();
        GuestPtr inbuf = heap.malloc(64);
        ++report.allocations;
        ctx.read(server_fd, inbuf, 32);
        u64 magic = ctx.load<u64>(inbuf, 0);
        report.handshakeOk &= magic == 0x48454C4C4F313341;
        u64 peer_pub = ctx.load<u64>(inbuf, 8);
        u64 server_secret = 0x7654321;
        u64 server_pub = modPow(ctx, 5, server_secret, 0xFFFFFFFB);
        u64 shared = modPow(ctx, peer_pub, server_secret, 0xFFFFFFFB);
        // Stash the session key in TLS.
        ctx.store<u64>(tls.var(2, 0), 0, shared);
        ctx.store<u64>(tls.var(2, 8), 0, ctx.load<u64>(inbuf, 16));
        heap.free(inbuf);

        // --- Server hello back. -------------------------------------
        GuestPtr shello = frame.alloc(16);
        ctx.store<u64>(shello, 0, server_pub);
        ctx.store<u64>(shello, 8, 0x53525632); // server nonce
        ctx.write(server_fd, shello, 16);

        // Client derives the same key.
        GuestPtr cin = heap.malloc(16);
        ++report.allocations;
        ctx.read(client_fd, cin, 16);
        u64 client_shared =
            modPow(ctx, ctx.load<u64>(cin, 0), client_secret,
                   0xFFFFFFFB);
        report.handshakeOk &= client_shared == shared;
        heap.free(cin);
    }

    // --- Serve the file: read, encrypt, send in records. --------------
    u64 key = ctx.load<u64>(tls.var(2, 0), 0);
    s64 fd = ctx.open("/var/www/index.html", O_RDONLY);
    if (fd >= 0) {
        for (;;) {
            GuestPtr record = heap.malloc(512);
            ++report.allocations;
            s64 n = ctx.read(static_cast<int>(fd), record, 512);
            if (n <= 0) {
                heap.free(record);
                break;
            }
            cipherInPlace(ctx, record, static_cast<u64>(n), key);
            // Frame header: length + sequence.
            {
                StackFrame frame(ctx, 64, 1);
                GuestPtr hdr = frame.alloc(16);
                ctx.store<u64>(hdr, 0, static_cast<u64>(n));
                ctx.store<u64>(hdr, 8, report.sessionsServed);
                ctx.write(server_fd, hdr, 16);
            }
            ctx.write(server_fd, record, static_cast<u64>(n));
            // Client drains and decrypts.
            GuestPtr chdr = heap.malloc(16);
            ctx.read(client_fd, chdr, 16);
            u64 len = ctx.load<u64>(chdr, 0);
            heap.free(chdr);
            GuestPtr cbuf = heap.malloc(len);
            ++report.allocations;
            ctx.read(client_fd, cbuf, len);
            cipherInPlace(ctx, cbuf, len, key);
            report.bytesServed += len;
            heap.free(cbuf);
            heap.free(record);
        }
        ctx.close(static_cast<int>(fd));
    }
    ++report.sessionsServed;
}

} // namespace

SslServerReport
runSslServer(Abi abi, TraceSink *trace)
{
    GuestSystem sys;
    Kernel &kern = sys.kern;
    kern.setTrace(trace);
    static const SelfObject libcrypto = makeLibcrypto();
    static const SelfObject libssl = makeLibssl();
    kern.rtld().registerLibrary(&libcrypto);
    kern.rtld().registerLibrary(&libssl);
    static const SelfObject prog = makeServerProgram();

    // The document the server will serve.
    auto doc = kern.vfs().createFile("/var/www/index.html");
    std::string body =
        "<html><body>CheriABI reproduction: abstract capabilities "
        "in practice</body></html>\n";
    for (int i = 0; i < 220; ++i) {
        doc->data.insert(doc->data.end(), body.begin(), body.end());
    }

    if (!sys.boot(abi, prog,
                  {"mini_s_server", "-cert", "/etc/server.pem", "-www"},
                  {"OPENSSL_CONF=/etc/openssl.cnf"}))
        throw std::runtime_error("s_server: execve failed");
    SslServerReport report;
    sys.hosted([&] { serve(*sys.ctx, report); });
    kern.setTrace(nullptr);
    return report;
}

} // namespace cheri::apps
