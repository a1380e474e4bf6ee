/**
 * @file
 * The one owner of JSON text: string escaping, number rendering, a
 * small insertion-ordered object builder, a host probe for the
 * BENCH_*.json pins, and a minimal JSON *syntax* validator.
 *
 * Every JSON document the simulator and its benches write — Perfetto
 * traces, pins — renders its strings and numbers here, so there is
 * one answer to "what does a non-finite value look like" (null) and
 * one validator they are all checked with. jsonValid() checks
 * grammar only — no DOM is built, no semantic checks — so it stays
 * dependency-free and O(n).
 */

#ifndef MACROSIM_SIM_TELEMETRY_JSON_HH
#define MACROSIM_SIM_TELEMETRY_JSON_HH

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace macrosim
{

/** Escape a string for embedding inside JSON double quotes. */
std::string jsonEscape(std::string_view s);

/**
 * Render @p v as a JSON number: "%g" when that reads back as @p v,
 * else "%.17g", so every finite double round-trips and common values
 * stay short ("3", not "3.0000000000000000"). JSON has no inf or
 * NaN: every non-finite value renders as null.
 */
std::string jsonNumber(double v);

/**
 * An insertion-ordered JSON object under construction. Each member
 * is rendered when added; str() joins them. Keys and string values
 * are escaped, numbers go through jsonNumber().
 */
class JsonObject
{
  public:
    JsonObject &number(std::string_view key, double v);
    JsonObject &string(std::string_view key, std::string_view v);
    JsonObject &boolean(std::string_view key, bool v);
    /** An array of numbers. */
    JsonObject &numbers(std::string_view key,
                        const std::vector<double> &v);
    JsonObject &object(std::string_view key, const JsonObject &v);
    /** An array of objects, one element per line. */
    JsonObject &objects(std::string_view key,
                        const std::vector<JsonObject> &v);
    /** Every member of @p o, after this object's own. */
    JsonObject &append(const JsonObject &o);

    /**
     * The object's text: compact, or with @p one_per_line each member
     * on its own line, indented two spaces, and a final newline.
     */
    std::string str(bool one_per_line = false) const;

  private:
    JsonObject &add(std::string_view key, std::string value);

    /** (escaped key, rendered value) in insertion order. */
    std::vector<std::pair<std::string, std::string>> members_;
};

/**
 * This host, as the pins record it: {"nproc", "cpu", "compiler",
 * "build_type": @p build_type (the caller's build configuration),
 * "thread_scaling_4"}. The last is how much CPU four concurrent busy
 * loops get — 4.0 on four free cores, about 1.0 in a one-core
 * container — which bounds any parallel speedup measured here; it
 * takes a few hundred milliseconds of wall time.
 */
JsonObject probeHost(std::string_view build_type);

/**
 * @return true iff @p text is one syntactically complete JSON value
 * (object, array, string, number, true/false/null) with nothing but
 * whitespace after it. On failure, if @p error is non-null it
 * receives a short description with the byte offset.
 */
bool jsonValid(std::string_view text, std::string *error = nullptr);

} // namespace macrosim

#endif // MACROSIM_SIM_TELEMETRY_JSON_HH
