/** @file Tests for the JSON value type, parser and serializer. */

#include <gtest/gtest.h>

#include <cfloat>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "util/error.h"
#include "util/json.h"

namespace {

using accpar::util::ConfigError;
using accpar::util::Json;

/** The number contract, spelled with printf: integral values below
 *  9e15 in magnitude print as integers, everything else as "%.17g". */
std::string
printfReference(double v)
{
    char buf[40];
    if (std::abs(v) < 9.0e15 &&
        static_cast<double>(static_cast<std::int64_t>(v)) == v)
        std::snprintf(buf, sizeof(buf), "%" PRId64,
                      static_cast<std::int64_t>(v));
    else
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** The ConfigError message @p parse throws, or "" when it parses. */
std::string
parseError(const std::string &text)
{
    try {
        Json::parse(text);
    } catch (const ConfigError &e) {
        return e.what();
    }
    return "";
}

TEST(Json, ScalarRoundTrips)
{
    EXPECT_EQ(Json::parse("null"), Json(nullptr));
    EXPECT_EQ(Json::parse("true").asBool(), true);
    EXPECT_EQ(Json::parse("false").asBool(), false);
    EXPECT_DOUBLE_EQ(Json::parse("3.5").asNumber(), 3.5);
    EXPECT_DOUBLE_EQ(Json::parse("-17").asNumber(), -17.0);
    EXPECT_DOUBLE_EQ(Json::parse("1e3").asNumber(), 1000.0);
    EXPECT_EQ(Json::parse("\"hi\"").asString(), "hi");
}

TEST(Json, DumpScalars)
{
    EXPECT_EQ(Json(nullptr).dump(), "null");
    EXPECT_EQ(Json(true).dump(), "true");
    EXPECT_EQ(Json(42).dump(), "42");
    EXPECT_EQ(Json(2.5).dump(), "2.5");
    EXPECT_EQ(Json("x").dump(), "\"x\"");
}

TEST(Json, StringEscapes)
{
    const Json v("a\"b\\c\nd\te");
    const std::string dumped = v.dump();
    EXPECT_EQ(dumped, "\"a\\\"b\\\\c\\nd\\te\"");
    EXPECT_EQ(Json::parse(dumped), v);
}

TEST(Json, UnicodeEscapesParse)
{
    EXPECT_EQ(Json::parse("\"\\u0041\"").asString(), "A");
    EXPECT_EQ(Json::parse("\"\\u00e9\"").asString(), "\xC3\xA9");
    EXPECT_EQ(Json::parse("\"\\u20ac\"").asString(), "\xE2\x82\xAC");
}

TEST(Json, ArraysAndObjects)
{
    const Json doc = Json::parse(
        R"({"name": "accpar", "values": [1, 2, 3], "nested": {"ok": true}})");
    EXPECT_EQ(doc.at("name").asString(), "accpar");
    EXPECT_EQ(doc.at("values").asArray().size(), 3u);
    EXPECT_DOUBLE_EQ(doc.at("values").asArray()[2].asNumber(), 3.0);
    EXPECT_TRUE(doc.at("nested").at("ok").asBool());
    EXPECT_TRUE(doc.contains("name"));
    EXPECT_FALSE(doc.contains("missing"));
}

TEST(Json, BuilderInterface)
{
    Json doc;
    doc["alpha"] = 0.25;
    doc["tags"].push("a");
    doc["tags"].push("b");
    EXPECT_DOUBLE_EQ(doc.at("alpha").asNumber(), 0.25);
    EXPECT_EQ(doc.at("tags").asArray().size(), 2u);
}

TEST(Json, RoundTripComplexDocument)
{
    Json doc;
    doc["empty_arr"] = Json(Json::Array{});
    doc["empty_obj"] = Json(Json::Object{});
    doc["list"].push(Json(1));
    doc["list"].push(Json("two"));
    doc["list"].push(Json(nullptr));
    Json inner;
    inner["x"] = -1.5;
    doc["inner"] = std::move(inner);

    for (int indent : {0, 2}) {
        const std::string text = doc.dump(indent);
        EXPECT_EQ(Json::parse(text), doc) << "indent=" << indent;
    }
}

TEST(Json, IntegersPrintWithoutFraction)
{
    EXPECT_EQ(Json(1000000).dump(), "1000000");
    EXPECT_EQ(Json(static_cast<std::int64_t>(-7)).dump(), "-7");
}

TEST(Json, AsIntChecksIntegrality)
{
    EXPECT_EQ(Json(5).asInt(), 5);
    EXPECT_THROW(Json(5.5).asInt(), ConfigError);
}

TEST(Json, KindMismatchesThrow)
{
    const Json v(1.0);
    EXPECT_THROW(v.asString(), ConfigError);
    EXPECT_THROW(v.asArray(), ConfigError);
    EXPECT_THROW(v.asObject(), ConfigError);
    EXPECT_THROW(v.at("k"), ConfigError);
    EXPECT_THROW(Json("s").asBool(), ConfigError);
}

TEST(Json, MalformedInputsThrow)
{
    for (const char *bad :
         {"", "{", "[1,", "\"unterminated", "{\"a\" 1}", "tru",
          "01x", "[1] trailing", "{\"a\":}", "\"\\q\""}) {
        EXPECT_THROW(Json::parse(bad), ConfigError) << bad;
    }
}

TEST(Json, WhitespaceTolerant)
{
    const Json doc = Json::parse("  {\n\t\"a\" :\r [ 1 , 2 ]\n}  ");
    EXPECT_EQ(doc.at("a").asArray().size(), 2u);
}

TEST(Json, ObjectKeysAreOrderedDeterministically)
{
    Json doc;
    doc["zebra"] = 1;
    doc["apple"] = 2;
    // std::map ordering: apple before zebra.
    EXPECT_LT(doc.dump().find("apple"), doc.dump().find("zebra"));
}

TEST(Json, NestingBeyondDepthLimitThrows)
{
    // The parser bounds recursion: a pathological document must raise
    // a clean ConfigError instead of overflowing the stack.
    for (int depth : {129, 1000, 100000}) {
        const std::string deep =
            std::string(static_cast<std::size_t>(depth), '[') +
            std::string(static_cast<std::size_t>(depth), ']');
        EXPECT_THROW(Json::parse(deep), ConfigError) << depth;
    }
    const std::string deep_objects = [] {
        std::string text;
        for (int i = 0; i < 200; ++i)
            text += "{\"k\":";
        text += "1";
        text.append(200, '}');
        return text;
    }();
    EXPECT_THROW(Json::parse(deep_objects), ConfigError);
}

TEST(Json, NestingWithinDepthLimitParses)
{
    const std::string deep = std::string(120, '[') + "7" +
                             std::string(120, ']');
    Json doc = Json::parse(deep);
    for (int i = 0; i < 120; ++i) {
        Json inner = doc.asArray()[0];
        doc = std::move(inner);
    }
    EXPECT_EQ(doc.asInt(), 7);
    // The limit applies per parse, not cumulatively.
    EXPECT_NO_THROW(Json::parse(deep));
}

TEST(Json, NumberFormattingMatchesPrintfOnEdgeValues)
{
    const std::pair<double, const char *> cases[] = {
        {0.0, "0"},
        {-0.0, "0"},
        {-7.0, "-7"},
        {-123456789.0, "-123456789"},
        {8999999999999999.0, "8999999999999999"},
        {-8999999999999999.0, "-8999999999999999"},
        {9.0e15, "9000000000000000"},
        {-9.0e15, "-9000000000000000"},
        {1e21, "1e+21"},
        {0.1, "0.10000000000000001"},
        {-2.5, "-2.5"},
        {4.9406564584124654e-324, "4.9406564584124654e-324"},
        {DBL_MIN, "2.2250738585072014e-308"},
        {DBL_MAX, "1.7976931348623157e+308"},
        {-DBL_MAX, "-1.7976931348623157e+308"},
    };
    for (const auto &[value, text] : cases) {
        EXPECT_EQ(Json(value).dump(), text);
        EXPECT_EQ(printfReference(value), text);
    }
}

TEST(Json, NumberFormattingMatchesPrintfOnRandomBitPatterns)
{
    // Serialized numbers are part of the plan and certificate formats:
    // to_chars must give printf's bytes on every finite double. Seeded
    // SplitMix64 over raw bit patterns (all exponents, denormals and
    // both signs) plus values in the ranges plans actually hold.
    std::uint64_t state = 0x5eedULL;
    auto next = [&state] {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    };
    int mismatches = 0;
    auto check = [&mismatches](double value) {
        if (Json(value).dump() != printfReference(value) &&
            ++mismatches <= 5)
            ADD_FAILURE() << "mismatch for " << printfReference(value)
                          << ": " << Json(value).dump();
    };
    for (int finite = 0; finite < 1000000;) {
        const std::uint64_t bits = next();
        double value = 0.0;
        std::memcpy(&value, &bits, sizeof(value));
        if (std::isfinite(value)) {
            check(value);
            ++finite;
        }
    }
    // Costs, alphas and byte counts: uniform in [0, 1) scaled by a
    // power of ten between 1e-6 and 1e12.
    for (int i = 0; i < 200000; ++i) {
        const std::uint64_t bits = next();
        check(static_cast<double>(bits >> 11) * 0x1.0p-53 *
              std::pow(10.0, static_cast<int>(bits % 19) - 6));
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(Json, NonFiniteNumbersAreRejected)
{
    EXPECT_THROW(Json(std::nan("")).dump(), ConfigError);
    EXPECT_THROW(Json(HUGE_VAL).dump(), ConfigError);
}

TEST(Json, ConstCharIsAStringNotABool)
{
    EXPECT_EQ(Json("x").kind(), Json::Kind::String);
    EXPECT_EQ(Json("").kind(), Json::Kind::String);
    EXPECT_EQ(Json(true).kind(), Json::Kind::Bool);
    EXPECT_EQ(Json(3).kind(), Json::Kind::Number);
    EXPECT_EQ(Json().kind(), Json::Kind::Null);
}

TEST(Json, NullBecomesObjectOrArrayOnFirstUse)
{
    Json object;
    object["k"];
    EXPECT_EQ(object.kind(), Json::Kind::Object);
    EXPECT_TRUE(object.at("k").isNull());

    Json array;
    array.push(1);
    EXPECT_EQ(array.kind(), Json::Kind::Array);
    EXPECT_EQ(array.asArray().size(), 1u);
}

TEST(Json, MutatingTheWrongKindThrows)
{
    Json number(1.0);
    EXPECT_THROW(number["k"], ConfigError);
    EXPECT_THROW(number.push(1), ConfigError);
    Json array{Json::Array{}};
    EXPECT_THROW(array["k"], ConfigError);
    Json object{Json::Object{}};
    EXPECT_THROW(object.push(1), ConfigError);
    // The failed mutation leaves the value as it was.
    EXPECT_EQ(number, Json(1.0));
    EXPECT_EQ(array.kind(), Json::Kind::Array);
    EXPECT_FALSE(object.contains("k"));
}

TEST(Json, CopiesAreIndependent)
{
    Json source;
    source["list"].push(1);
    source["name"] = "a";
    Json copy = source;
    EXPECT_EQ(copy, source);
    copy["list"].push(2);
    copy["name"] = "b";
    EXPECT_EQ(source.at("list").asArray().size(), 1u);
    EXPECT_EQ(source.at("name").asString(), "a");
    EXPECT_NE(copy, source);
}

TEST(Json, EqualityComparesKindAndValue)
{
    EXPECT_NE(Json(0), Json(false));
    EXPECT_NE(Json(nullptr), Json(Json::Object{}));
    EXPECT_NE(Json(Json::Array{}), Json(Json::Object{}));
    EXPECT_EQ(Json(1), Json(1.0));
    EXPECT_EQ(Json::parse(R"({"a":[1,"x",null]})"),
              Json::parse(R"({ "a" : [ 1 , "x" , null ] })"));
}

TEST(Json, OneValueHoldsOnePayload)
{
    // The largest alternative (std::map) plus the variant index.
    EXPECT_LE(sizeof(Json), 64u);
}

TEST(Json, ParseErrorsNameTheByteOffset)
{
    EXPECT_EQ(parseError(R"({"a": [1, 2, 3)"),
              "unexpected end of JSON input at byte 14");
    EXPECT_EQ(parseError(""), "unexpected end of JSON input at byte 0");
    EXPECT_EQ(parseError("[1] x"),
              "trailing characters after JSON document at byte 4");
    EXPECT_EQ(parseError(R"({"a" 1})"),
              "expected ':', got '1' at byte 5");
    EXPECT_EQ(parseError("[1, @]"), "invalid JSON value at byte 4");
    EXPECT_EQ(parseError("[1, 1e+]"),
              "invalid JSON number '1e+': expected a digit in the "
              "exponent at byte 7");
    EXPECT_EQ(parseError(R"(["abc)"),
              "unterminated JSON string at byte 5");
}

TEST(Json, NumbersFollowTheRfc8259Grammar)
{
    // Each input breaks the grammar at the byte named in its error.
    const std::pair<const char *, const char *> bad[] = {
        {"01", "invalid JSON number '01': leading zero at byte 1"},
        {"-01", "invalid JSON number '-01': leading zero at byte 2"},
        {"+1", "invalid JSON number '+1': expected a digit or '-' to "
               "start a number at byte 0"},
        {"1.", "invalid JSON number '1.': expected a digit after '.' "
               "at byte 2"},
        {".5", "invalid JSON number '.5': expected a digit or '-' to "
               "start a number at byte 0"},
        {"1e", "invalid JSON number '1e': expected a digit in the "
               "exponent at byte 2"},
        {"-", "invalid JSON number '-': expected a digit after '-' at "
              "byte 1"},
        {"1e+", "invalid JSON number '1e+': expected a digit in the "
                "exponent at byte 3"},
        {"[0, 1.e5]", "invalid JSON number '1.e5': expected a digit "
                      "after '.' at byte 6"},
        {R"({"batch": +1})", "invalid JSON number '+1': expected a "
                             "digit or '-' to start a number at byte 10"},
    };
    for (const auto &[text, message] : bad)
        EXPECT_EQ(parseError(text), message) << text;

    const std::pair<const char *, double> good[] = {
        {"0", 0.0},       {"-0", -0.0},        {"10", 10.0},
        {"0.5", 0.5},     {"-1.25e-3", -1.25e-3}, {"1E+2", 100.0},
        {"1e05", 1e5},    {"2.5E-0", 2.5},
    };
    for (const auto &[text, value] : good)
        EXPECT_EQ(Json::parse(text).asNumber(), value) << text;
}

TEST(Json, EmittedNumbersParseBackToTheSameValue)
{
    // Every number the emitter prints is grammatical and reads back
    // as the value it came from: integers, %.17g mantissas, and
    // exponents of every width (denormals included).
    std::uint64_t state = 0x8259ULL;
    int mismatches = 0;
    for (int finite = 0; finite < 200000;) {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        const std::uint64_t bits = z ^ (z >> 31);
        double value = 0.0;
        std::memcpy(&value, &bits, sizeof(value));
        if (!std::isfinite(value))
            continue;
        ++finite;
        const std::string text = Json(value).dump();
        if (parseError(text) != "" ||
            Json::parse(text).asNumber() != value) {
            if (++mismatches <= 5)
                ADD_FAILURE() << "does not read back: " << text;
        }
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(Json, ErrorsCarryNoCheckTextOrSourcePath)
{
    std::vector<std::string> messages;
    for (const char *bad :
         {"", "{", "[1,", "\"unterminated", "{\"a\" 1}", "tru", "01x",
          "[1] trailing", "{\"a\":}", "\"\\q\"", "\"\\u00zz\""})
        messages.push_back(parseError(bad));
    const Json number(1.5);
    for (auto access : {+[](const Json &j) { j.asString(); },
                        +[](const Json &j) { j.asInt(); },
                        +[](const Json &j) { j.at("k"); }}) {
        try {
            access(number);
            ADD_FAILURE() << "accessor did not throw";
        } catch (const ConfigError &e) {
            messages.push_back(e.what());
        }
    }
    for (const std::string &message : messages) {
        EXPECT_FALSE(message.empty());
        EXPECT_EQ(message.find("requirement failed"), std::string::npos)
            << message;
        EXPECT_EQ(message.find(".cpp"), std::string::npos) << message;
    }
    EXPECT_EQ(messages[messages.size() - 3],
              "JSON value is a number, expected a string");
    EXPECT_EQ(messages[messages.size() - 2],
              "JSON number 1.5 is not an integer");
}

} // namespace
