#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <string_view>

#include "util/error.h"
#include "util/string_util.h"

namespace accpar::util {

namespace {

/** Indexed by Json::Kind, for kind-mismatch messages. */
const char *const kKindNames[] = {"null",     "a bool",   "a number",
                                  "a string", "an array", "an object"};

/** The alternative @p T of @p value, or a ConfigError naming both
 *  kinds. */
template <typename T, typename Variant>
auto &
alternative(Variant &value, Json::Kind wanted)
{
    if (auto *p = std::get_if<T>(&value))
        return *p;
    throw ConfigError(std::string("JSON value is ") +
                      kKindNames[value.index()] + ", expected " +
                      kKindNames[static_cast<int>(wanted)]);
}

void
escapeString(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

/**
 * Integral values below 9e15 in magnitude print as integers; all
 * others as printf "%.17g" in the "C" locale, which is what to_chars
 * with chars_format::general and precision 17 is defined to produce.
 */
void
formatNumber(std::string &out, double v)
{
    if (!std::isfinite(v))
        throw ConfigError("JSON cannot represent a non-finite number");
    char buf[32];
    std::to_chars_result result;
    if (std::abs(v) < 9.0e15 &&
        static_cast<double>(static_cast<std::int64_t>(v)) == v)
        result = std::to_chars(buf, buf + sizeof(buf),
                               static_cast<std::int64_t>(v));
    else
        result = std::to_chars(buf, buf + sizeof(buf), v,
                               std::chars_format::general, 17);
    out.append(buf, result.ptr);
}

void
newline(std::string &out, int indent, int depth)
{
    if (indent > 0) {
        out += '\n';
        out.append(static_cast<std::size_t>(indent) *
                       static_cast<std::size_t>(depth),
                   ' ');
    }
}

} // namespace

bool
Json::asBool() const
{
    return alternative<bool>(_value, Kind::Bool);
}

double
Json::asNumber() const
{
    return alternative<double>(_value, Kind::Number);
}

std::int64_t
Json::asInt() const
{
    const double v = asNumber();
    const auto i = static_cast<std::int64_t>(std::llround(v));
    if (std::abs(v - static_cast<double>(i)) < 1e-9)
        return i;
    std::string text;
    formatNumber(text, v);
    throw ConfigError("JSON number " + text + " is not an integer");
}

const std::string &
Json::asString() const
{
    return alternative<std::string>(_value, Kind::String);
}

const Json::Array &
Json::asArray() const
{
    return alternative<Array>(_value, Kind::Array);
}

const Json::Object &
Json::asObject() const
{
    return alternative<Object>(_value, Kind::Object);
}

const Json &
Json::at(const std::string &key) const
{
    const Object &obj = asObject();
    auto it = obj.find(key);
    if (it == obj.end())
        throw ConfigError("JSON object has no key '" + key + "'");
    return it->second;
}

bool
Json::contains(const std::string &key) const
{
    const Object *obj = std::get_if<Object>(&_value);
    return obj && obj->count(key) > 0;
}

Json &
Json::operator[](const std::string &key)
{
    if (isNull())
        _value.emplace<Object>();
    return alternative<Object>(_value, Kind::Object)[key];
}

void
Json::push(Json value)
{
    if (isNull())
        _value.emplace<Array>();
    alternative<Array>(_value, Kind::Array).push_back(std::move(value));
}

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    switch (kind()) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += std::get<bool>(_value) ? "true" : "false";
        break;
      case Kind::Number:
        formatNumber(out, std::get<double>(_value));
        break;
      case Kind::String:
        escapeString(out, std::get<std::string>(_value));
        break;
      case Kind::Array: {
        const Array &array = std::get<Array>(_value);
        if (array.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (std::size_t i = 0; i < array.size(); ++i) {
            if (i > 0)
                out += ',';
            newline(out, indent, depth + 1);
            array[i].dumpTo(out, indent, depth + 1);
        }
        newline(out, indent, depth);
        out += ']';
        break;
      }
      case Kind::Object: {
        const Object &object = std::get<Object>(_value);
        if (object.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        bool first = true;
        for (const auto &[key, value] : object) {
            if (!first)
                out += ',';
            first = false;
            newline(out, indent, depth + 1);
            escapeString(out, key);
            out += indent > 0 ? ": " : ":";
            value.dumpTo(out, indent, depth + 1);
        }
        newline(out, indent, depth);
        out += '}';
        break;
      }
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

namespace {

/** Recursive-descent JSON parser. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : _text(text) {}

    /**
     * Maximum container nesting depth. The parser recurses once per
     * nested array/object, so without a limit a hostile document of a
     * few hundred thousand '['s overflows the stack; 128 is far beyond
     * any document the toolchain produces (plans nest ~4 deep).
     */
    static constexpr int kMaxDepth = 128;

    Json
    parseDocument()
    {
        skipWs();
        Json value = parseValue();
        skipWs();
        if (_pos != _text.size())
            throw error("trailing characters after JSON document");
        return value;
    }

  private:
    /** The error for input rejected at the current offset, hlp-style:
     *  the message carries the byte index where parsing stopped. */
    ConfigError
    error(const std::string &what) const
    {
        return ConfigError(what + " at byte " + std::to_string(_pos));
    }

    void
    skipWs()
    {
        while (_pos < _text.size() &&
               std::isspace(static_cast<unsigned char>(_text[_pos])))
            ++_pos;
    }

    char
    peek() const
    {
        if (_pos >= _text.size())
            throw error("unexpected end of JSON input");
        return _text[_pos];
    }

    void
    expect(char c)
    {
        const char got = peek();
        if (got != c)
            throw error(std::string("expected '") + c + "', got '" +
                        got + "'");
        ++_pos;
    }

    bool
    consumeKeyword(const char *kw)
    {
        const std::size_t len = std::string(kw).size();
        if (_text.compare(_pos, len, kw) == 0) {
            _pos += len;
            return true;
        }
        return false;
    }

    Json
    parseValue()
    {
        skipWs();
        const char c = peek();
        if (c == '{' || c == '[') {
            if (_depth >= kMaxDepth)
                throw error("JSON nesting deeper than " +
                            std::to_string(kMaxDepth) + " levels");
            ++_depth;
            Json value = c == '{' ? parseObject() : parseArray();
            --_depth;
            return value;
        }
        if (c == '"')
            return Json(parseString());
        if (consumeKeyword("true"))
            return Json(true);
        if (consumeKeyword("false"))
            return Json(false);
        if (consumeKeyword("null"))
            return Json(nullptr);
        return parseNumber();
    }

    Json
    parseObject()
    {
        expect('{');
        Json::Object obj;
        skipWs();
        if (peek() == '}') {
            ++_pos;
            return Json(std::move(obj));
        }
        while (true) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            obj[std::move(key)] = parseValue();
            skipWs();
            if (peek() == ',') {
                ++_pos;
                continue;
            }
            expect('}');
            break;
        }
        return Json(std::move(obj));
    }

    Json
    parseArray()
    {
        expect('[');
        Json::Array arr;
        skipWs();
        if (peek() == ']') {
            ++_pos;
            return Json(std::move(arr));
        }
        while (true) {
            arr.push_back(parseValue());
            skipWs();
            if (peek() == ',') {
                ++_pos;
                continue;
            }
            expect(']');
            break;
        }
        return Json(std::move(arr));
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (_pos >= _text.size())
                throw error("unterminated JSON string");
            const char c = _text[_pos++];
            if (c == '"')
                break;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (_pos >= _text.size())
                throw error("unterminated escape in JSON string");
            const char esc = _text[_pos++];
            switch (esc) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'n':
                out += '\n';
                break;
              case 't':
                out += '\t';
                break;
              case 'r':
                out += '\r';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'u': {
                if (_pos + 4 > _text.size())
                    throw error("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = _text[_pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code += static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code += static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code += static_cast<unsigned>(h - 'A' + 10);
                    else
                        throw error("bad hex digit in \\u escape");
                }
                // UTF-8 encode (BMP only).
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out +=
                        static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default:
                throw error(std::string("bad escape \\") + esc);
            }
        }
        return out;
    }

    bool
    atDigit() const
    {
        return _pos < _text.size() &&
               std::isdigit(static_cast<unsigned char>(_text[_pos]));
    }

    bool
    at(char c) const
    {
        return _pos < _text.size() && _text[_pos] == c;
    }

    /** The error for a number that breaks the grammar at the current
     *  offset; quotes the number-like run starting at @p start. */
    ConfigError
    numberError(std::size_t start, const std::string &why) const
    {
        std::size_t end = start;
        while (end < _text.size() &&
               (std::isdigit(static_cast<unsigned char>(_text[end])) ||
                std::string_view(".eE+-").find(_text[end]) !=
                    std::string_view::npos))
            ++end;
        if (end == start)
            return error("invalid JSON value");
        return error("invalid JSON number '" +
                     _text.substr(start, end - start) + "': " + why);
    }

    /** One or more digits, or a grammar error naming @p where. */
    void
    digits(std::size_t start, const char *where)
    {
        if (!atDigit())
            throw numberError(start,
                              std::string("expected a digit ") + where);
        while (atDigit())
            ++_pos;
    }

    /**
     * RFC 8259 §6: [ "-" ] ( "0" / 1-9 *DIGIT ) [ "." 1*DIGIT ]
     * [ ( "e" / "E" ) [ "+" / "-" ] 1*DIGIT ]. A violation is reported
     * at the byte where the grammar fails.
     */
    Json
    parseNumber()
    {
        const std::size_t start = _pos;
        if (at('-'))
            ++_pos;
        if (at('0')) {
            ++_pos;
            if (atDigit())
                throw numberError(start, "leading zero");
        } else {
            digits(start, _pos == start ? "or '-' to start a number"
                                        : "after '-'");
        }
        if (at('.')) {
            ++_pos;
            digits(start, "after '.'");
        }
        if (at('e') || at('E')) {
            ++_pos;
            if (at('+') || at('-'))
                ++_pos;
            digits(start, "in the exponent");
        }
        const std::string token = _text.substr(start, _pos - start);
        // Locale-independent (ALINT10): std::stod reads LC_NUMERIC
        // and would misparse "3.14" under a comma locale. The grammar
        // already holds, so only an out-of-range magnitude fails here.
        const std::optional<double> value = parseDouble(token);
        if (!value) {
            _pos = start;
            throw error("invalid JSON number '" + token + "'");
        }
        return Json(*value);
    }

    const std::string &_text;
    std::size_t _pos = 0;
    int _depth = 0;
};

} // namespace

Json
Json::parse(const std::string &text)
{
    Parser parser(text);
    return parser.parseDocument();
}

} // namespace accpar::util
