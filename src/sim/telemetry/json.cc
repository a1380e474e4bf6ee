#include "sim/telemetry/json.hh"

#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace macrosim
{

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
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
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%g", v);
    double back = 0.0;
    std::sscanf(buf, "%lf", &back);
    if (back != v)
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

JsonObject &
JsonObject::add(std::string_view key, std::string value)
{
    members_.emplace_back(jsonEscape(key), std::move(value));
    return *this;
}

JsonObject &
JsonObject::number(std::string_view key, double v)
{
    return add(key, jsonNumber(v));
}

JsonObject &
JsonObject::string(std::string_view key, std::string_view v)
{
    return add(key, '"' + jsonEscape(v) + '"');
}

JsonObject &
JsonObject::boolean(std::string_view key, bool v)
{
    return add(key, v ? "true" : "false");
}

JsonObject &
JsonObject::numbers(std::string_view key, const std::vector<double> &v)
{
    std::string text = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        text += (i ? "," : "") + jsonNumber(v[i]);
    return add(key, text + "]");
}

JsonObject &
JsonObject::object(std::string_view key, const JsonObject &v)
{
    return add(key, v.str());
}

JsonObject &
JsonObject::objects(std::string_view key,
                    const std::vector<JsonObject> &v)
{
    std::string text = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        text += (i ? ",\n    " : "\n    ") + v[i].str();
    return add(key, text + (v.empty() ? "]" : "\n  ]"));
}

JsonObject &
JsonObject::append(const JsonObject &o)
{
    members_.insert(members_.end(), o.members_.begin(), o.members_.end());
    return *this;
}

std::string
JsonObject::str(bool one_per_line) const
{
    const char *open = one_per_line ? "{\n  " : "{";
    const char *sep = one_per_line ? ",\n  " : ",";
    const char *colon = one_per_line ? ": " : ":";
    std::string out = open;
    for (std::size_t i = 0; i < members_.size(); ++i) {
        out += (i ? sep : "") + ('"' + members_[i].first + '"') + colon
            + members_[i].second;
    }
    return out + (one_per_line ? "\n}\n" : "}");
}

namespace
{

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
        if (!__get_cpuid(0x80000002u + i, &regs[4 * i],
                         &regs[4 * i + 1], &regs[4 * i + 2],
                         &regs[4 * i + 3]))
            return "unknown";
    }
    std::string brand(reinterpret_cast<const char *>(regs),
                      sizeof(regs));
    brand.erase(brand.find_last_not_of(std::string(" \0", 2)) + 1);
    brand.erase(0, brand.find_first_not_of(' '));
    return brand;
#else
    return "unknown";
#endif
}

double
threadScaling4()
{
    using Clock = std::chrono::steady_clock;
    constexpr std::uint64_t iters = 60'000'000;
    std::atomic<std::uint64_t> sink{0};
    const auto burn = [&sink] {
        std::uint64_t s = 0;
        for (std::uint64_t i = 0; i < iters; ++i)
            s += i * i;
        sink.fetch_add(s, std::memory_order_relaxed);
    };
    // The serial burn runs on a thread too, so both phases time the
    // one compiled copy of the loop (std::thread's entry point): an
    // inlined second copy would sit at its own code alignment and
    // move the ratio by placement alone.
    const Clock::time_point t0 = Clock::now();
    std::thread(burn).join();
    const Clock::time_point t1 = Clock::now();
    std::vector<std::thread> threads;
    for (int i = 0; i < 4; ++i)
        threads.emplace_back(burn);
    for (std::thread &t : threads)
        t.join();
    const Clock::time_point t2 = Clock::now();
    const double serial =
        std::chrono::duration<double>(t1 - t0).count();
    const double par = std::chrono::duration<double>(t2 - t1).count();
    return par > 0.0 ? 4.0 * serial / par : 0.0;
}

/** Recursive-descent cursor over the input text. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    bool
    run(std::string *error)
    {
        skipWs();
        if (!value()) {
            report(error);
            return false;
        }
        skipWs();
        if (pos_ != text_.size()) {
            err_ = "trailing garbage";
            errPos_ = pos_;
            report(error);
            return false;
        }
        return true;
    }

  private:
    bool
    value()
    {
        if (depth_ > maxDepth)
            return fail("nesting too deep");
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        switch (text_[pos_]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        ++depth_;
        skipWs();
        if (peek() == '}') {
            ++pos_;
            --depth_;
            return true;
        }
        for (;;) {
            skipWs();
            if (peek() != '"')
                return fail("expected object key string");
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return fail("expected ':' after key");
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            const char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == '}') {
                ++pos_;
                --depth_;
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        ++depth_;
        skipWs();
        if (peek() == ']') {
            ++pos_;
            --depth_;
            return true;
        }
        for (;;) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            const char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == ']') {
                ++pos_;
                --depth_;
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    string()
    {
        ++pos_; // opening '"'
        while (pos_ < text_.size()) {
            const unsigned char c =
                static_cast<unsigned char>(text_[pos_]);
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                ++pos_;
                if (pos_ >= text_.size())
                    return fail("dangling escape");
                const char e = text_[pos_];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++pos_;
                        if (pos_ >= text_.size() ||
                            !std::isxdigit(static_cast<unsigned char>(
                                text_[pos_]))) {
                            return fail("bad \\u escape");
                        }
                    }
                } else if (e != '"' && e != '\\' && e != '/' &&
                           e != 'b' && e != 'f' && e != 'n' &&
                           e != 'r' && e != 't') {
                    return fail("bad escape character");
                }
                ++pos_;
            } else if (c < 0x20) {
                return fail("raw control character in string");
            } else {
                ++pos_;
            }
        }
        return fail("unterminated string");
    }

    bool
    number()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        const std::size_t intStart = pos_;
        if (!digits())
            return fail("expected digit");
        // JSON forbids leading zeros: "0" is fine, "01" is not.
        if (text_[intStart] == '0' && pos_ - intStart > 1)
            return fail("leading zero in number");
        if (peek() == '.') {
            ++pos_;
            if (!digits())
                return fail("expected fraction digits");
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            if (!digits())
                return fail("expected exponent digits");
        }
        return pos_ > start;
    }

    bool
    digits()
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
        return pos_ > start;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return fail("bad literal");
        pos_ += word.size();
        return true;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char
    peek() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    bool
    fail(const char *what)
    {
        if (!err_) {
            err_ = what;
            errPos_ = pos_;
        }
        return false;
    }

    void
    report(std::string *error) const
    {
        if (!error)
            return;
        char buf[128];
        std::snprintf(buf, sizeof(buf), "%s at byte %zu",
                      err_ ? err_ : "invalid JSON", errPos_);
        *error = buf;
    }

    static constexpr int maxDepth = 256;

    std::string_view text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
    const char *err_ = nullptr;
    std::size_t errPos_ = 0;
};

} // namespace

JsonObject
probeHost(std::string_view build_type)
{
#if defined(__clang__)
    const char *compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    const char *compiler = "gcc " __VERSION__;
#else
    const char *compiler = "unknown";
#endif
    JsonObject host;
    host.number("nproc", std::thread::hardware_concurrency())
        .string("cpu", cpuModel())
        .string("compiler", compiler)
        .string("build_type", build_type)
        .number("thread_scaling_4", threadScaling4());
    return host;
}

bool
jsonValid(std::string_view text, std::string *error)
{
    return Parser(text).run(error);
}

} // namespace macrosim
