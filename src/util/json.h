/**
 * @file
 * Minimal JSON value type, parser and serializer.
 *
 * Used to persist partition plans and benchmark results. Supports the
 * full JSON data model (null, bool, number, string with escapes, array,
 * object) minus exotic corners we do not need (no \u surrogate pairs
 * beyond the BMP, numbers parsed as double).
 *
 * A value holds exactly one alternative (a std::variant in Kind
 * order), so a node costs the size of its largest payload, not of all
 * five. Numbers serialize as integers when integral and below 9e15 in
 * magnitude, otherwise with 17 significant digits exactly as C printf
 * formats them in the "C" locale (see formatNumber in json.cpp); the
 * output bytes are part of the plan and certificate formats.
 */

#ifndef ACCPAR_UTIL_JSON_H
#define ACCPAR_UTIL_JSON_H

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

namespace accpar::util {

/** A JSON document node. */
class Json
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    using Array = std::vector<Json>;
    /** Ordered map keeps output deterministic. */
    using Object = std::map<std::string, Json>;

    /// @name Constructors for each kind.
    /// @{
    Json() = default;
    Json(std::nullptr_t) {}
    Json(bool value) : _value(value) {}
    Json(double value) : _value(value) {}
    Json(int value) : Json(static_cast<double>(value)) {}
    Json(std::int64_t value) : Json(static_cast<double>(value)) {}
    Json(const char *value)
        : _value(std::in_place_type<std::string>, value)
    {
    }
    Json(std::string value) : _value(std::move(value)) {}
    Json(Array value) : _value(std::move(value)) {}
    Json(Object value) : _value(std::move(value)) {}
    /// @}

    Kind kind() const { return static_cast<Kind>(_value.index()); }
    bool isNull() const { return kind() == Kind::Null; }

    /// @name Typed access; throws ConfigError on kind mismatch.
    /// @{
    bool asBool() const;
    double asNumber() const;
    std::int64_t asInt() const;
    const std::string &asString() const;
    const Array &asArray() const;
    const Object &asObject() const;
    /// @}

    /** Object member access; throws when absent or not an object. */
    const Json &at(const std::string &key) const;

    /** True when this is an object containing @p key. */
    bool contains(const std::string &key) const;

    /** Mutable object member (creates the entry; must be an object
     *  or null; null becomes an empty object first). */
    Json &operator[](const std::string &key);

    /** Appends to an array (must be an array or null; null becomes
     *  an empty array first). */
    void push(Json value);

    /** Serializes; @p indent > 0 pretty-prints with that many spaces. */
    std::string dump(int indent = 0) const;

    /** Parses a document; throws ConfigError naming the byte offset
     *  on malformed input. */
    static Json parse(const std::string &text);

    bool operator==(const Json &other) const
    {
        return _value == other._value;
    }

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    std::variant<std::nullptr_t, bool, double, std::string, Array,
                 Object>
        _value;
};

} // namespace accpar::util

#endif // ACCPAR_UTIL_JSON_H
