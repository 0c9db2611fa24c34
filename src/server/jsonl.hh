/**
 * @file
 * A small self-contained JSON value type plus newline-delimited
 * framing, for the campaign daemon's wire protocol. One request or
 * response is exactly one line of compact JSON (strings escape
 * embedded newlines, so multi-line verdict documents travel as string
 * fields without breaking the framing).
 *
 * Deliberately minimal — no external dependency, objects keep
 * insertion order so serialization is deterministic, and integers are
 * kept as 64-bit integers (not doubles) so job ids and 64-bit seeds
 * round-trip exactly.
 */

#ifndef SCAL_SERVER_JSONL_HH
#define SCAL_SERVER_JSONL_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace scal::server::jsonl
{

/** Deepest array/object nesting parse() accepts. Requests nest three
 *  deep; the cap only has to stop a hostile line from exhausting the
 *  stack. */
inline constexpr int kMaxDepth = 64;

/** Longest unterminated line a server connection buffers. The largest
 *  bundled circuit sent inline is well under 1 MiB of JSON. */
inline constexpr std::size_t kMaxLineBytes = std::size_t{16} << 20;

/** Parse failure, carrying the byte offset of the offending input. */
struct ParseError : std::runtime_error
{
    ParseError(const std::string &msg, std::size_t at)
        : std::runtime_error(msg + " at byte " + std::to_string(at)),
          offset(at)
    {
    }
    std::size_t offset;
};

class Value;
using Array = std::vector<Value>;
using Member = std::pair<std::string, Value>;
using Object = std::vector<Member>;

class Value
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Int,    ///< signed 64-bit (covers unsigned values <= INT64_MAX)
        Uint,   ///< unsigned values above INT64_MAX
        Double, ///< anything with a fraction or exponent
        String,
        Array,
        Object,
    };

    Value() : kind_(Kind::Null) {}
    Value(std::nullptr_t) : kind_(Kind::Null) {}
    Value(bool b) : kind_(Kind::Bool), bool_(b) {}
    Value(int n) : kind_(Kind::Int), int_(n) {}
    Value(long n) : kind_(Kind::Int), int_(n) {}
    Value(long long n) : kind_(Kind::Int), int_(n) {}
    Value(unsigned long long n)
        : kind_(n <= 0x7fffffffffffffffull ? Kind::Int : Kind::Uint)
    {
        if (kind_ == Kind::Int)
            int_ = static_cast<std::int64_t>(n);
        else
            uint_ = n;
    }
    Value(unsigned long n) : Value(static_cast<unsigned long long>(n)) {}
    Value(unsigned n) : Value(static_cast<unsigned long long>(n)) {}
    Value(double d) : kind_(Kind::Double), double_(d) {}
    Value(const char *s) : kind_(Kind::String), string_(s) {}
    Value(std::string s) : kind_(Kind::String), string_(std::move(s)) {}
    Value(jsonl::Array a) : kind_(Kind::Array), array_(std::move(a)) {}
    Value(jsonl::Object o) : kind_(Kind::Object), object_(std::move(o)) {}

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isObject() const { return kind_ == Kind::Object; }
    bool isString() const { return kind_ == Kind::String; }

    bool asBool() const;
    std::int64_t asInt64() const;  ///< Int/Uint(in range)/integral Double
    std::uint64_t asUint64() const;
    double asDouble() const;
    const std::string &asString() const;
    const jsonl::Array &asArray() const;
    const jsonl::Object &asObject() const;

    /** Object member lookup; nullptr when absent (or not an object). */
    const Value *find(const std::string &key) const;
    /** Append or replace an object member (null value stays a member). */
    void set(const std::string &key, Value v);

    /** Compact single-line serialization (newlines escaped). */
    std::string dump() const;

  private:
    void dumpTo(std::string &out) const;

    Kind kind_;
    bool bool_ = false;
    std::int64_t int_ = 0;
    std::uint64_t uint_ = 0;
    double double_ = 0;
    std::string string_;
    jsonl::Array array_;
    jsonl::Object object_;
};

/** Parse exactly one JSON document (trailing whitespace allowed). */
Value parse(const std::string &text);

/**
 * Incremental newline framing over a byte stream: feed() raw reads,
 * pop() complete lines (without the terminator) as they arrive.
 */
class LineBuffer
{
  public:
    void feed(const char *data, std::size_t n) { buf_.append(data, n); }

    bool
    pop(std::string *line)
    {
        const std::size_t nl = buf_.find('\n', scanned_);
        if (nl == std::string::npos) {
            scanned_ = buf_.size();
            return false;
        }
        *line = buf_.substr(0, nl);
        if (!line->empty() && line->back() == '\r')
            line->pop_back();
        buf_.erase(0, nl + 1);
        scanned_ = 0;
        return true;
    }

    /** True when the unterminated tail left after pop() returned
     *  false is longer than kMaxLineBytes. */
    bool overlong() const { return buf_.size() > kMaxLineBytes; }

  private:
    std::string buf_;
    std::size_t scanned_ = 0; ///< prefix of buf_ known to hold no '\n'
};

} // namespace scal::server::jsonl

#endif // SCAL_SERVER_JSONL_HH
