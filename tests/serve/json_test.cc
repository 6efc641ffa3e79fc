/**
 * @file
 * serve/json: the hardened parser and the deterministic renderer the
 * wire protocol's byte-identity guarantees rest on.
 */

#include "serve/json.hh"

#include <gtest/gtest.h>

#include <cerrno>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>

using namespace dhdl;
using namespace dhdl::serve;

namespace {

Json
parsed(const std::string& text)
{
    Json j;
    Status st = parseJson(text, j);
    EXPECT_TRUE(st.ok()) << st.diag().str() << " in: " << text;
    return j;
}

std::string
rejected(const std::string& text)
{
    Json j;
    Status st = parseJson(text, j);
    EXPECT_FALSE(st.ok()) << "accepted: " << text;
    EXPECT_EQ(st.diag().code, DiagCode::ParseError);
    return st.diag().message;
}

TEST(ServeJson, RendersScalars)
{
    EXPECT_EQ(Json().render(), "null");
    EXPECT_EQ(Json(true).render(), "true");
    EXPECT_EQ(Json(false).render(), "false");
    EXPECT_EQ(Json(42).render(), "42");
    EXPECT_EQ(Json(int64_t(-7)).render(), "-7");
    EXPECT_EQ(Json(1.5).render(), "1.5");
    EXPECT_EQ(Json("hi").render(), "\"hi\"");
}

TEST(ServeJson, ObjectKeepsInsertionOrderAndNoWhitespace)
{
    Json j = Json::object();
    j.set("z", 1);
    j.set("a", 2);
    j.set("m", Json::array().push(1).push("x"));
    EXPECT_EQ(j.render(), "{\"z\":1,\"a\":2,\"m\":[1,\"x\"]}");
    // Replacing a key keeps its original position.
    j.set("z", 9);
    EXPECT_EQ(j.render(), "{\"z\":9,\"a\":2,\"m\":[1,\"x\"]}");
}

TEST(ServeJson, StringEscapes)
{
    Json j = Json(std::string("a\"b\\c\n\t\x01"));
    EXPECT_EQ(j.render(), "\"a\\\"b\\\\c\\n\\t\\u0001\"");
    Json back = parsed(j.render());
    EXPECT_EQ(back.asString(), "a\"b\\c\n\t\x01");
}

TEST(ServeJson, DoubleRoundTripsExactly)
{
    // %.17g reproduces every double bit-exactly through strtod —
    // the foundation of streamed-vs-offline byte identity.
    for (double v : {0.1, 1.0 / 3.0, 6.02214076e23, 5e-324,
                     -123456.789012345678, 216482464.0}) {
        Json j(v);
        Json back = parsed(j.render());
        EXPECT_EQ(back.asDouble(), v) << j.render();
        // And the re-render is byte-identical.
        EXPECT_EQ(back.render(), j.render());
    }
}

TEST(ServeJson, NonFiniteRendersAsNull)
{
    EXPECT_EQ(Json(std::nan("")).render(), "null");
    EXPECT_EQ(Json(INFINITY).render(), "null");
}

TEST(ServeJson, ParsesNumbers)
{
    EXPECT_EQ(parsed("42").asInt(), 42);
    EXPECT_EQ(parsed("-9223372036854775808").asInt(),
              INT64_MIN);
    EXPECT_EQ(parsed("9223372036854775807").asInt(), INT64_MAX);
    // Overflowing integers degrade to double, not to garbage.
    EXPECT_DOUBLE_EQ(parsed("99999999999999999999").asDouble(),
                     1e20);
    EXPECT_DOUBLE_EQ(parsed("2.5e3").asDouble(), 2500.0);
}

TEST(ServeJson, ParsesNested)
{
    Json j = parsed(
        R"({"op":"submit","config":{"points":200},"tags":[1,2]})");
    ASSERT_TRUE(j.isObject());
    EXPECT_EQ(j.find("op")->asString(), "submit");
    EXPECT_EQ(j.find("config")->find("points")->asInt(), 200);
    EXPECT_EQ(j.find("tags")->items().size(), 2u);
    EXPECT_EQ(j.find("missing"), nullptr);
}

TEST(ServeJson, UnicodeEscapes)
{
    // BMP escape, surrogate pair, lone surrogate -> U+FFFD.
    EXPECT_EQ(parsed("\"\\u00e9\"").asString(), "\xc3\xa9");
    EXPECT_EQ(parsed("\"\\ud83d\\ude00\"").asString(),
              "\xf0\x9f\x98\x80");
    EXPECT_EQ(parsed("\"\\ud83d\"").asString(), "\xef\xbf\xbd");
}

TEST(ServeJson, RejectsMalformed)
{
    rejected("");
    rejected("{");
    rejected("[1,]");
    rejected("{\"a\":}");
    rejected("{\"a\" 1}");
    rejected("tru");
    rejected("\"unterminated");
    rejected("{} trailing");
    rejected("nul");
    // Raw control bytes inside strings are rejected.
    rejected(std::string("\"a\nb\""));
}

TEST(ServeJson, NeverThrowsAndReportsOffset)
{
    Json j;
    Status st = parseJson("{\"a\": bad}", j);
    ASSERT_FALSE(st.ok());
    // The message names a byte offset so protocol errors are
    // debuggable from the client side.
    EXPECT_NE(st.diag().message.find("byte"), std::string::npos)
        << st.diag().message;
}

TEST(ServeJson, DepthCapStopsRecursion)
{
    std::string deep(1000, '[');
    deep += std::string(1000, ']');
    rejected(deep);
    // Within the cap parses fine.
    std::string ok(10, '[');
    ok += "1";
    ok += std::string(10, ']');
    parsed(ok);
}

TEST(ServeJson, SizeCap)
{
    JsonLimits limits;
    limits.maxBytes = 8;
    Json j;
    EXPECT_FALSE(parseJson("[1,2,3,4,5]", j, limits).ok());
}

TEST(ServeJson, RoundTripIsStable)
{
    const std::string wire =
        R"({"ok":true,"front":[{"cycles":1.5,"i":3}],"s":"x"})";
    Json j = parsed(wire);
    EXPECT_EQ(j.render(), wire);
    EXPECT_EQ(parsed(j.render()).render(), wire);
}

// ------------------------------------------------ differential tests
//
// The codec renders with std::to_chars and parses with
// std::from_chars. printf, strtod and strtoll are the oracle here: the
// wire bytes and the accepted-token set must not move.

std::string
printfDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

uint64_t
bitsOf(double v)
{
    uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

double
fromBits(uint64_t b)
{
    double v;
    std::memcpy(&v, &b, sizeof v);
    return v;
}

TEST(ServeJson, DoublesRenderLikePrintf)
{
    const double edges[] = {
        0.0, -0.0, 5e-324, -5e-324, 4e-320,
        2.2250738585072009e-308, // largest subnormal
        DBL_MIN, -DBL_MIN, DBL_MAX, -DBL_MAX, DBL_EPSILON,
        9007199254740991.0, 9007199254740992.0, 9007199254740993.0,
        1e15, 9999999999999998.0, 1e16, 1e16 + 2, 99999999999999984.0,
        1e17, 1e17 + 16, 1e21, 1e22, 1e-4, 1e-5, 0.00012345, 0.1, 0.5,
        1.0 / 3.0, 123456.789, 7254.6487775993364, 6.02214076e23};
    for (double v : edges)
        EXPECT_EQ(Json(v).render(), printfDouble(v)) << bitsOf(v);

    std::mt19937_64 rng(20160618);
    size_t finite = 0;
    for (int i = 0; i < 1000000; ++i) {
        const double v = fromBits(rng());
        const std::string got = Json(v).render();
        if (!std::isfinite(v)) {
            ASSERT_EQ(got, "null");
            continue;
        }
        ++finite;
        ASSERT_EQ(got, printfDouble(v)) << "bits " << bitsOf(v);
    }
    EXPECT_GT(finite, 990000u);
    // The magnitudes the protocol carries (areas, cycle counts,
    // scales): random mantissas, small exponents.
    std::uniform_real_distribution<double> mag(-12, 12);
    for (int i = 0; i < 200000; ++i) {
        const double v = std::pow(10.0, mag(rng)) * (i % 2 ? -1 : 1);
        ASSERT_EQ(Json(v).render(), printfDouble(v)) << bitsOf(v);
    }
}

TEST(ServeJson, IntegersRenderLikePrintf)
{
    auto oracle = [](int64_t v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
        return std::string(buf);
    };
    for (int64_t v : {int64_t(0), int64_t(-1), int64_t(9), int64_t(10),
                      INT64_MIN, INT64_MAX, INT64_MIN + 1})
        EXPECT_EQ(Json(v).render(), oracle(v));
    std::mt19937_64 rng(7);
    for (int i = 0; i < 100000; ++i) {
        // Every width: random bits shifted right by 0..63.
        const int64_t v = int64_t(rng()) >> (i % 64);
        ASSERT_EQ(Json(v).render(), oracle(v));
    }
}

/** How a number-only document parses, by strtoll/strtod. */
struct NumberVerdict {
    bool ok = false;
    Json::Kind kind = Json::Kind::Null;
    int64_t i = 0;
    uint64_t bits = 0;
};

/**
 * The number rules the parser keeps: the token is an optional '-'
 * then any run of [0-9.eE+-]. Only digits after the sign: strtoll,
 * unless out of range. Otherwise strtod, which must consume the whole
 * token and give a finite value (an underflow to +-0 counts).
 */
NumberVerdict
oracleNumber(const std::string& doc)
{
    NumberVerdict r;
    size_t n = !doc.empty() && doc[0] == '-' ? 1 : 0;
    bool integral = true;
    for (; n < doc.size(); ++n) {
        const char c = doc[n];
        if (c >= '0' && c <= '9')
            continue;
        if (c == 0 || !std::strchr(".eE+-", c))
            break;
        integral = false;
    }
    if (n != doc.size() || n == 0 || doc == "-")
        return r; // Trailing bytes, or no token at all.
    char* end = nullptr;
    if (integral) {
        errno = 0;
        const long long v = std::strtoll(doc.c_str(), &end, 10);
        if (end == doc.c_str() + doc.size() && errno != ERANGE) {
            r.ok = true;
            r.kind = Json::Kind::Int;
            r.i = v;
            return r;
        }
    }
    const double d = std::strtod(doc.c_str(), &end);
    if (end != doc.c_str() + doc.size() || !std::isfinite(d))
        return r;
    r.ok = true;
    r.kind = Json::Kind::Double;
    r.bits = bitsOf(d);
    return r;
}

void
expectParsesLikeOracle(const std::string& doc)
{
    const NumberVerdict want = oracleNumber(doc);
    Json j;
    const bool ok = parseJson(doc, j).ok();
    ASSERT_EQ(ok, want.ok) << "token " << doc;
    if (!ok)
        return;
    ASSERT_EQ(j.kind(), want.kind) << "token " << doc;
    if (want.kind == Json::Kind::Int)
        ASSERT_EQ(j.asInt(), want.i) << "token " << doc;
    else
        ASSERT_EQ(bitsOf(j.asDouble()), want.bits) << "token " << doc;
}

TEST(ServeJson, NumberTokensParseLikeStrtod)
{
    const char* const table[] = {
        // Lenient spellings strtod/strtoll take.
        "+5", ".5", "5.", "-.5", "-5.", "+.5", "00012", "-00012", "-0",
        "0", "+0", "-0.0", "0e0", "1E5", "1e+5", "1e-5", "1.5e3",
        // Range: overflow rejects, underflow is +-0, subnormals stay.
        "1e400", "-1e400", "1e-400", "-1e-400", "4e-320", "-4e-320",
        "5e-324", "2e-324", "3e-324", "2.4703282292062327e-324",
        "2.4703282292062328e-324", "1.7976931348623157e308",
        "1.7976931348623158e308", "1.7976931348623159e308",
        "2.2250738585072011e-308", "0e999999999999",
        "0.000000000000000000000000000001e-99999999999999999999",
        "1e-99999999999999999999", "1e99999999999999999999",
        "123456789012345678901234567890e-330",
        // int64 edges, and overflow to double.
        "9223372036854775807", "9223372036854775808",
        "-9223372036854775808", "-9223372036854775809",
        "99999999999999999999", "18446744073709551616",
        // Long mantissas round correctly.
        "0.1000000000000000055511151231257827021181583404541015625",
        "9007199254740993", "9007199254740993.0", "7254.6487775993364",
        // Malformed, before and after.
        "-", "+", ".", "e", "e5", "1e", "1e+", "1e-", "1.5e", "--5",
        "+-5", "-+5", "++5", "1..5", "1.5.5", "1e5.5", "1e5e5", "5-3",
        "5+", "0x10", "1f", "0b1", "inf", "nan"};
    for (const char* tok : table)
        expectParsesLikeOracle(tok);
}

TEST(ServeJson, RandomNumberTokensParseLikeStrtod)
{
    std::mt19937_64 rng(42);
    // Random strings over the token alphabet: mostly rejections, and
    // every odd accepted spelling.
    const char alphabet[] = "0123456789.eE+-00119";
    for (int i = 0; i < 200000; ++i) {
        std::string tok(1 + rng() % 24, ' ');
        for (char& c : tok)
            c = alphabet[rng() % (sizeof alphabet - 1)];
        expectParsesLikeOracle(tok);
    }
    // Well-formed numbers of every magnitude, in several spellings.
    static const char* const fmts[] = {"%.17g", "%.3g", "%.25e",
                                       "%.0f", "%.30f"};
    char buf[400];
    for (int i = 0; i < 100000; ++i) {
        const double v = fromBits(rng());
        if (!std::isfinite(v))
            continue;
        std::snprintf(buf, sizeof buf, fmts[i % 5], v);
        expectParsesLikeOracle(buf);
    }
}

/** Reference escaper: one byte at a time, control bytes through
 *  printf "\\u%04x". */
std::string
referenceEscape(const std::string& s)
{
    std::string out = "\"";
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
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (uint8_t(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

TEST(ServeJson, StringsRenderAndParseBack)
{
    std::string controls;
    for (int c = 0; c < 0x20; ++c)
        controls += char(c);
    // Long runs with an escape at both ends.
    std::string quoted(4096, 'x'), spaced(3000, 'y');
    quoted.front() = '"';
    quoted.back() = '\\';
    spaced.front() = '\n';
    spaced.back() = '\x01';
    std::vector<std::string> cases = {
        "", "\"", "\\", "\x1f", std::string(1, '\0'),
        std::string(5000, 'a'), quoted, spaced,
        "caf\xc3\xa9 \xf0\x9f\x98\x80 \x7f \xff",
        controls + "mid" + controls};
    std::mt19937_64 rng(3);
    for (int i = 0; i < 2000; ++i) {
        std::string s(rng() % 200, ' ');
        for (char& c : s)
            c = char(rng() % 4 ? 0x20 + rng() % 0x60 : rng() % 256);
        cases.push_back(std::move(s));
    }
    for (const std::string& s : cases) {
        const std::string wire = Json(s).render();
        ASSERT_EQ(wire, referenceEscape(s));
        ASSERT_EQ(parsed(wire).asString(), s);
    }
}

TEST(ServeJson, EscapesAndSurrogatesDecode)
{
    const std::string run(1000, 'r');
    EXPECT_EQ(parsed("\"\\n" + run + "\\u0041\"").asString(),
              "\n" + run + "A");
    EXPECT_EQ(parsed("\"\\/\\b\\f\\\"\\\\" + run + "\\t\"").asString(),
              "/\b\f\"\\" + run + "\t");
    // A paired surrogate combines. A lone one (low, or high not
    // followed by a low escape) becomes U+FFFD; a non-low escape
    // after a high surrogate is consumed with it.
    EXPECT_EQ(parsed("\"" + run + "\\uD83D\\uDE00\"").asString(),
              run + "\xf0\x9f\x98\x80");
    EXPECT_EQ(parsed("\"\\udc00" + run + "\"").asString(),
              "\xef\xbf\xbd" + run);
    EXPECT_EQ(parsed("\"" + run + "\\ud800\"").asString(),
              run + "\xef\xbf\xbd");
    EXPECT_EQ(parsed("\"\\ud800\\u0041\"").asString(), "\xef\xbf\xbd");
    EXPECT_EQ(parsed("\"\\ud800x\"").asString(), "\xef\xbf\xbdx");
    rejected("\"" + run + "\\ud800\\u00g1\"");
    rejected("\"" + run + "\\x\"");
    rejected("\"" + run + "\\u12\"");
    rejected("\"" + run + "\\");
    rejected("\"" + run + "\x01\"");
}

TEST(ServeJson, DuplicateKeysKeepFirstPositionLastValue)
{
    Json j = parsed(R"({"a":1,"b":{"a":[1,{"a":2,"a":3}]},"a":4})");
    EXPECT_EQ(j.render(), R"({"a":4,"b":{"a":[1,{"a":3}]}})");
}

/** Past the small-object scan the parser indexes keys: a 40k-key
 *  object (with a repeat of every tenth key, and a nested object in
 *  the middle) parses in linear time with the same members and the
 *  same first-position, last-value rule. */
TEST(ServeJson, ManyKeyObjectKeepsFirstPositionLastValue)
{
    constexpr int kKeys = 40000;
    std::string text = "{";
    for (int i = 0; i < kKeys; ++i) {
        text += "\"k" + std::to_string(i) + "\":" + std::to_string(i) + ",";
        if (i == kKeys / 2)
            text += "\"nested\":{\"x\":1,\"x\":2},";
        if (i % 10 == 9)
            text += "\"k" + std::to_string(i - 9) + "\":-1,";
    }
    text.back() = '}';
    const Json j = parsed(text);
    const auto& m = j.members();
    ASSERT_EQ(m.size(), size_t(kKeys) + 1);
    for (int i = 0; i < kKeys; ++i) {
        const size_t at = size_t(i) + (i > kKeys / 2 ? 1 : 0);
        ASSERT_EQ(m[at].first, "k" + std::to_string(i));
        ASSERT_EQ(m[at].second.asInt(), i % 10 == 0 ? -1 : i);
    }
    EXPECT_EQ(m[size_t(kKeys) / 2 + 1].second.render(), R"({"x":2})");
}

} // namespace
