/**
 * @file
 * Minimal JSON emitter for the observability layer.
 *
 * A push-style writer producing compact, valid JSON with no external
 * dependencies.  It tracks nesting and comma placement so metric
 * emitters can stream objects/arrays without string surgery.
 */

#ifndef CHERI_OBS_JSON_H
#define CHERI_OBS_JSON_H

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "cap/types.h"

namespace cheri::obs
{

class JsonWriter
{
  public:
    JsonWriter &
    beginObject()
    {
        comma();
        out.push_back('{');
        fresh.push_back(true);
        return *this;
    }

    JsonWriter &
    endObject()
    {
        out.push_back('}');
        fresh.pop_back();
        return *this;
    }

    JsonWriter &
    beginArray()
    {
        comma();
        out.push_back('[');
        fresh.push_back(true);
        return *this;
    }

    JsonWriter &
    endArray()
    {
        out.push_back(']');
        fresh.pop_back();
        return *this;
    }

    JsonWriter &
    key(std::string_view k)
    {
        comma();
        quote(k);
        out.push_back(':');
        // The upcoming value must not emit its own comma.
        if (!fresh.empty())
            fresh.back() = true;
        return *this;
    }

    JsonWriter &
    value(std::string_view v)
    {
        comma();
        quote(v);
        return *this;
    }

    JsonWriter &
    value(u64 v)
    {
        comma();
        out += std::to_string(v);
        return *this;
    }

    JsonWriter &
    value(s64 v)
    {
        comma();
        out += std::to_string(v);
        return *this;
    }

    JsonWriter &
    value(int v)
    {
        return value(static_cast<s64>(v));
    }

    JsonWriter &
    value(unsigned v)
    {
        return value(static_cast<u64>(v));
    }

    JsonWriter &
    value(double v)
    {
        comma();
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.4g", v);
        out += buf;
        return *this;
    }

    JsonWriter &
    value(bool v)
    {
        comma();
        out += v ? "true" : "false";
        return *this;
    }

    /** Splice in a complete JSON document verbatim as the next value. */
    JsonWriter &
    raw(std::string_view json)
    {
        comma();
        out += json;
        return *this;
    }

    const std::string &str() const { return out; }

  private:
    void
    comma()
    {
        if (fresh.empty())
            return;
        if (!fresh.back())
            out.push_back(',');
        fresh.back() = false;
    }

    void
    quote(std::string_view s)
    {
        out.push_back('"');
        for (char c : s) {
            switch (c) {
              case '"': out += "\\\""; break;
              case '\\': out += "\\\\"; break;
              case '\n': out += "\\n"; break;
              case '\r': out += "\\r"; break;
              case '\t': out += "\\t"; break;
              default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x",
                                  static_cast<unsigned>(c));
                    out += buf;
                } else {
                    out.push_back(c);
                }
            }
        }
        out.push_back('"');
    }

    std::string out;
    /** One flag per open container: true until its first element. */
    std::vector<bool> fresh;
};

} // namespace cheri::obs

#endif // CHERI_OBS_JSON_H
