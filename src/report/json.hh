/**
 * @file
 * A small strict JSON parser with line/column diagnostics.
 *
 * The report layer consumes this repository's own machine output — the
 * JSONL event traces (`trace::toJsonlLine`), campaign result documents
 * (`CampaignResult::toJson`) and bench artefacts (`BENCH_*.json`) — so
 * the parser is deliberately strict: RFC 8259 grammar only, duplicate
 * object keys rejected, no trailing garbage, and every error carries the
 * 1-based line and column where parsing stopped. Nothing here tries to
 * be a general-purpose JSON library; it is the consumption half of the
 * observability contract, sized to the documents we emit.
 *
 * Two properties matter to callers:
 *
 *  - **Positions.** Every parsed value remembers where it started, so
 *    schema validation downstream (trace_reader, campaign_json) can
 *    point at the offending value, not just the offending line.
 *  - **Raw number text.** Numbers keep their source spelling alongside
 *    the parsed double, which is what lets the JSONL round trip
 *    (`toJsonlLine` → reader → re-serialize) be byte-identical: the
 *    writer's shortest-round-trip rendering is re-emitted verbatim.
 */

#ifndef VOLTBOOT_REPORT_JSON_HH
#define VOLTBOOT_REPORT_JSON_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace voltboot
{
namespace report
{

/** Deepest array/object nesting parseJson accepts. */
constexpr size_t kMaxJsonDepth = 512;

/** Parse failure; the message embeds "<source>:<line>:<col>". */
class JsonParseError : public FatalError
{
  public:
    JsonParseError(const std::string &source, size_t line, size_t column,
                   const std::string &detail);

    size_t line() const { return line_; }
    size_t column() const { return column_; }

  private:
    size_t line_;
    size_t column_;
};

/** One parsed JSON value (a small, copyable tree). */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    /** String value (Kind::String, unescaped) or the raw source text of
     * a number (Kind::Number, byte-exact). */
    std::string text;
    std::vector<JsonValue> items; ///< Kind::Array elements, in order.
    /** Kind::Object members in document order (keys are unescaped). */
    std::vector<std::pair<std::string, JsonValue>> members;

    /** 1-based position of the value's first character. */
    size_t line = 1;
    size_t column = 1;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Object member lookup; nullptr when absent (or not an object). */
    const JsonValue *find(std::string_view key) const;

    /**
     * The value as an unsigned count, or nullopt when it is not one: a
     * non-number, negative, non-integral, or >= 2^64. Plain integer
     * spellings convert exactly at any magnitude (64-bit seeds).
     */
    std::optional<uint64_t> asCount() const;

    /** Human name of @p kind for diagnostics ("object", "number", ...). */
    static const char *kindName(Kind kind);
};

/**
 * Parse @p text as exactly one JSON document (leading/trailing
 * whitespace allowed, anything else after the value is an error).
 * Arrays and objects nested more than kMaxJsonDepth deep are an error
 * at the bracket that opens the level too many.
 *
 * @param source      Name used in diagnostics (file path, "<string>").
 * @param first_line  Line number of @p text's first line, so callers
 *                    slicing one line out of a JSONL file report real
 *                    file positions.
 * @throws JsonParseError on any deviation from the JSON grammar.
 */
JsonValue parseJson(std::string_view text,
                    const std::string &source = "<string>",
                    size_t first_line = 1);

} // namespace report
} // namespace voltboot

#endif // VOLTBOOT_REPORT_JSON_HH
