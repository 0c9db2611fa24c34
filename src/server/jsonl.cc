#include "server/jsonl.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/json.hh"

namespace scal::server::jsonl
{

bool
Value::asBool() const
{
    if (kind_ != Kind::Bool)
        throw std::runtime_error("json: expected bool");
    return bool_;
}

std::int64_t
Value::asInt64() const
{
    switch (kind_) {
      case Kind::Int:
        return int_;
      case Kind::Uint:
        throw std::runtime_error("json: integer out of int64 range");
      case Kind::Double:
        if (double_ != std::floor(double_))
            throw std::runtime_error("json: expected integer");
        return static_cast<std::int64_t>(double_);
      default:
        throw std::runtime_error("json: expected number");
    }
}

std::uint64_t
Value::asUint64() const
{
    switch (kind_) {
      case Kind::Int:
        if (int_ < 0)
            throw std::runtime_error("json: expected unsigned");
        return static_cast<std::uint64_t>(int_);
      case Kind::Uint:
        return uint_;
      case Kind::Double:
        if (double_ < 0 || double_ != std::floor(double_))
            throw std::runtime_error("json: expected unsigned integer");
        return static_cast<std::uint64_t>(double_);
      default:
        throw std::runtime_error("json: expected number");
    }
}

double
Value::asDouble() const
{
    switch (kind_) {
      case Kind::Int:
        return static_cast<double>(int_);
      case Kind::Uint:
        return static_cast<double>(uint_);
      case Kind::Double:
        return double_;
      default:
        throw std::runtime_error("json: expected number");
    }
}

const std::string &
Value::asString() const
{
    if (kind_ != Kind::String)
        throw std::runtime_error("json: expected string");
    return string_;
}

const Array &
Value::asArray() const
{
    if (kind_ != Kind::Array)
        throw std::runtime_error("json: expected array");
    return array_;
}

const Object &
Value::asObject() const
{
    if (kind_ != Kind::Object)
        throw std::runtime_error("json: expected object");
    return object_;
}

const Value *
Value::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const Member &m : object_)
        if (m.first == key)
            return &m.second;
    return nullptr;
}

void
Value::set(const std::string &key, Value v)
{
    if (kind_ != Kind::Object) {
        kind_ = Kind::Object;
        object_.clear();
    }
    for (Member &m : object_) {
        if (m.first == key) {
            m.second = std::move(v);
            return;
        }
    }
    object_.emplace_back(key, std::move(v));
}

void
Value::dumpTo(std::string &out) const
{
    switch (kind_) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Kind::Int:
        out += std::to_string(int_);
        break;
      case Kind::Uint:
        out += std::to_string(uint_);
        break;
      case Kind::Double: {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", double_);
        out += buf;
        break;
      }
      case Kind::String:
        out += '"';
        out += util::jsonEscape(string_);
        out += '"';
        break;
      case Kind::Array: {
        out += '[';
        bool first = true;
        for (const Value &v : array_) {
            if (!first)
                out += ',';
            first = false;
            v.dumpTo(out);
        }
        out += ']';
        break;
      }
      case Kind::Object: {
        out += '{';
        bool first = true;
        for (const Member &m : object_) {
            if (!first)
                out += ',';
            first = false;
            out += '"';
            out += util::jsonEscape(m.first);
            out += "\":";
            m.second.dumpTo(out);
        }
        out += '}';
        break;
      }
    }
}

std::string
Value::dump() const
{
    std::string out;
    dumpTo(out);
    return out;
}

namespace
{

class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Value
    parseDocument()
    {
        Value v = parseValue();
        skipWs();
        if (at_ != text_.size())
            throw ParseError("trailing garbage", at_);
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &msg)
    {
        throw ParseError(msg, at_);
    }

    void
    skipWs()
    {
        while (at_ < text_.size() &&
               (text_[at_] == ' ' || text_[at_] == '\t' ||
                text_[at_] == '\n' || text_[at_] == '\r'))
            ++at_;
    }

    char
    peek()
    {
        if (at_ >= text_.size())
            fail("unexpected end of input");
        return text_[at_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++at_;
    }

    bool
    consume(const char *word)
    {
        const std::size_t n = std::char_traits<char>::length(word);
        if (text_.compare(at_, n, word) == 0) {
            at_ += n;
            return true;
        }
        return false;
    }

    Value
    parseValue()
    {
        skipWs();
        const char c = peek();
        switch (c) {
          case '{':
          case '[': {
            if (depth_ == kMaxDepth)
                fail("nesting deeper than " + std::to_string(kMaxDepth));
            ++depth_;
            Value v = c == '{' ? parseObject() : parseArray();
            --depth_;
            return v;
          }
          case '"': return Value(parseString());
          case 't':
            if (consume("true"))
                return Value(true);
            fail("bad literal");
          case 'f':
            if (consume("false"))
                return Value(false);
            fail("bad literal");
          case 'n':
            if (consume("null"))
                return Value(nullptr);
            fail("bad literal");
          default:
            return parseNumber();
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (at_ >= text_.size())
                fail("unterminated string");
            const char c = text_[at_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (at_ >= text_.size())
                fail("unterminated escape");
            const char e = text_[at_++];
            switch (e) {
              case '"':  out += '"'; break;
              case '\\': out += '\\'; break;
              case '/':  out += '/'; break;
              case 'b':  out += '\b'; break;
              case 'f':  out += '\f'; break;
              case 'n':  out += '\n'; break;
              case 'r':  out += '\r'; break;
              case 't':  out += '\t'; break;
              case 'u': {
                if (at_ + 4 > text_.size())
                    fail("bad \\u escape");
                unsigned cp = 0;
                for (int k = 0; k < 4; ++k) {
                    const char h = text_[at_++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape");
                }
                // UTF-8 encode (surrogate pairs are not needed by
                // this protocol; lone surrogates encode as-is).
                if (cp < 0x80) {
                    out += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    out += static_cast<char>(0xc0 | (cp >> 6));
                    out += static_cast<char>(0x80 | (cp & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (cp >> 12));
                    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (cp & 0x3f));
                }
                break;
              }
              default:
                fail("bad escape");
            }
        }
    }

    Value
    parseNumber()
    {
        const std::size_t begin = at_;
        if (at_ < text_.size() && (text_[at_] == '-' || text_[at_] == '+'))
            ++at_;
        bool integral = true;
        while (at_ < text_.size()) {
            const char c = text_[at_];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                ++at_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '-' ||
                       c == '+') {
                if (c == '.' || c == 'e' || c == 'E')
                    integral = false;
                ++at_;
            } else {
                break;
            }
        }
        if (at_ == begin)
            fail("expected value");
        const std::string_view sv(text_.data() + begin, at_ - begin);
        if (integral) {
            if (sv[0] == '-') {
                std::int64_t n = 0;
                const auto r = std::from_chars(sv.data(),
                                               sv.data() + sv.size(), n);
                if (r.ec == std::errc() && r.ptr == sv.data() + sv.size())
                    return Value(static_cast<long long>(n));
            } else {
                std::uint64_t n = 0;
                const char *first =
                    sv[0] == '+' ? sv.data() + 1 : sv.data();
                const auto r =
                    std::from_chars(first, sv.data() + sv.size(), n);
                if (r.ec == std::errc() && r.ptr == sv.data() + sv.size())
                    return Value(static_cast<unsigned long long>(n));
            }
        }
        double d = 0;
        const auto r =
            std::from_chars(sv.data(), sv.data() + sv.size(), d);
        if (r.ec != std::errc() || r.ptr != sv.data() + sv.size())
            fail("bad number");
        return Value(d);
    }

    Value
    parseArray()
    {
        expect('[');
        Array out;
        skipWs();
        if (peek() == ']') {
            ++at_;
            return Value(std::move(out));
        }
        for (;;) {
            out.push_back(parseValue());
            skipWs();
            const char c = peek();
            ++at_;
            if (c == ']')
                return Value(std::move(out));
            if (c != ',')
                fail("expected ',' or ']'");
        }
    }

    Value
    parseObject()
    {
        expect('{');
        Object out;
        skipWs();
        if (peek() == '}') {
            ++at_;
            return Value(std::move(out));
        }
        for (;;) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            out.emplace_back(std::move(key), parseValue());
            skipWs();
            const char c = peek();
            ++at_;
            if (c == '}')
                return Value(std::move(out));
            if (c != ',')
                fail("expected ',' or '}'");
        }
    }

    const std::string &text_;
    std::size_t at_ = 0;
    int depth_ = 0;
};

} // namespace

Value
parse(const std::string &text)
{
    return Parser(text).parseDocument();
}

} // namespace scal::server::jsonl
