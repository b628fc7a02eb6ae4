/**
 * @file
 * The symmetric archive behind CHRIIMG1 images and CHRILOG1 logs.
 *
 * Writer and Reader offer the same verbs, so a serialized struct lists
 * its fields once, in one function template over the archive:
 *
 *     template <class Ar, class T>
 *     void io(Ar &ar, T &m)
 *     {
 *         ar.u64(m.len);
 *         ar.enumeration(m.kind, 9, "map kind");
 *         ar.str(m.name);
 *     }
 *
 * Saving passes a const T and the Writer reads each field; restoring
 * passes a mutable T and the Reader assigns each field.  Code that
 * genuinely runs one way only (object construction, id lookups) tests
 * `Ar::loading` under `if constexpr`.
 *
 * The stream is little-endian and fixed-width.  Reading is
 * bounds-checked at every step: a short or corrupt stream raises
 * ParseError, never a host fault.  A count is bounded by the bytes
 * left over the smallest encoding of one element; code that allocates
 * ahead of parsing passes that real minimum, so a forged count costs no
 * more than the elements that would fit in the rest of the stream.
 */

#ifndef CHERI_OS_SNAPSHOT_ARCHIVE_H
#define CHERI_OS_SNAPSHOT_ARCHIVE_H

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace cheri::snap
{

/** The archives' wire widths (inside them, u8..u64 name verbs). */
using U8 = std::uint8_t;
using U16 = std::uint16_t;
using U32 = std::uint32_t;
using U64 = std::uint64_t;

static_assert(std::endian::native == std::endian::little,
              "archive streams are little-endian: a big-endian host "
              "needs byte swaps in Writer::put and Reader::get");

/** A stream the Reader refuses; carries the error text. */
struct ParseError
{
    explicit ParseError(std::string m) : msg(std::move(m)) {}
    std::string msg;
};

/** Appends fields to a byte vector.  The inclusive bounds and names
 *  that the Reader checks are accepted and ignored. */
class Writer
{
  public:
    static constexpr bool saving = true;
    static constexpr bool loading = false;

    /** @name Fixed-width fields, in order */
    /// @{
    template <class... T> void u8(const T &...v) { (put<U8>(v), ...); }
    template <class... T> void u16(const T &...v) { (put<U16>(v), ...); }
    template <class... T> void u32(const T &...v) { (put<U32>(v), ...); }
    template <class... T> void u64(const T &...v) { (put<U64>(v), ...); }
    template <class... B> void flag(const B &...v) { (put<U8>(v), ...); }
    /// @}

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    void
    bytes(const void *p, U64 n)
    {
        const auto *b = static_cast<const U8 *>(p);
        out.insert(out.end(), b, b + n);
    }

    template <class E>
    void
    enumeration(const E &e, U8, const char *)
    {
        put<U8>(e);
    }

    void count(U64 n, U64 = 1) { u64(n); }
    void tag(U32 t, const char *) { u32(t); }
    void truncation(const char *) {}

    U64 size() const { return out.size(); }
    std::vector<U8> take() { return std::move(out); }

  private:
    /** One fixed-width integer, appended in one step. */
    template <class W, class T>
    void
    put(const T &v)
    {
        W w = static_cast<W>(v);
        const auto *b = reinterpret_cast<const U8 *>(&w);
        out.insert(out.end(), b, b + sizeof(W));
    }

    std::vector<U8> out;
};

/** Assigns fields from a byte vector, checking every read. */
class Reader
{
  public:
    static constexpr bool saving = false;
    static constexpr bool loading = true;

    explicit Reader(const std::vector<U8> &v)
        : p(v.data()), end(v.data() + v.size())
    {
    }

    /** @name Fixed-width fields, in order */
    /// @{
    template <class... T> void u8(T &...v) { (get<U8>(v), ...); }
    template <class... T> void u16(T &...v) { (get<U16>(v), ...); }
    template <class... T> void u32(T &...v) { (get<U32>(v), ...); }
    template <class... T> void u64(T &...v) { (get<U64>(v), ...); }
    template <class... B> void flag(B &...v) { (getFlag(v), ...); }
    /// @}

    void
    str(std::string &s)
    {
        U64 n = get<U64>();
        need(n);
        s.assign(reinterpret_cast<const char *>(p), n);
        p += n;
    }

    void
    bytes(void *dst, U64 n)
    {
        need(n);
        if (n != 0) // an empty vector's data() may be null
            std::memcpy(dst, p, n);
        p += n;
    }

    /** An enum byte with an inclusive upper bound. */
    template <class E>
    void
    enumeration(E &e, U8 max, const char *what)
    {
        U8 v = get<U8>();
        if (v > max)
            throw ParseError(std::string("corrupt enum value: ") + what);
        e = static_cast<E>(v);
    }

    /** An element count, bounded by the bytes left over @p minBytes,
     *  the smallest encoding of one element. */
    void
    count(U64 &n, U64 minBytes = 1)
    {
        n = get<U64>();
        if (n > remaining() / minBytes)
            throw ParseError("corrupt element count");
    }

    void
    tag(U32 t, const char *what)
    {
        if (get<U32>() != t)
            throw ParseError(std::string("bad section tag: ") + what);
    }

    /** The error a read that runs off the end reports from here on. */
    void truncation(const char *msg) { truncated = msg; }

  private:
    U64 remaining() const { return static_cast<U64>(end - p); }

    void
    need(U64 n)
    {
        if (remaining() < n)
            throw ParseError(truncated);
    }

    template <class W>
    W
    get()
    {
        need(sizeof(W));
        W w = 0;
        std::memcpy(&w, p, sizeof(W));
        p += sizeof(W);
        return w;
    }

    template <class W, class T>
    void
    get(T &v)
    {
        v = static_cast<T>(get<W>());
    }

    void
    getFlag(bool &v)
    {
        U8 b = get<U8>();
        if (b > 1)
            throw ParseError("corrupt boolean");
        v = b != 0;
    }

    const U8 *p;
    const U8 *end;
    const char *truncated = "truncated image";
};

/** A sequence: its count, then each element through @p fn.  Loading
 *  replaces the contents, appending each element as it is read. */
template <class Ar, class C, class Fn>
void
seq(Ar &ar, C &c, Fn &&fn)
{
    U64 n = c.size();
    ar.count(n);
    if constexpr (Ar::loading) {
        c.clear();
        for (U64 i = 0; i < n; ++i) {
            typename C::value_type v{};
            fn(v);
            c.push_back(std::move(v));
        }
    } else {
        for (auto &v : c)
            fn(v);
    }
}

} // namespace cheri::snap

#endif // CHERI_OS_SNAPSHOT_ARCHIVE_H
