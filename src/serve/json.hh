/**
 * @file
 * Minimal JSON value type + hardened parser for the serving
 * protocol (serve/protocol.hh). The daemon reads untrusted bytes off
 * a socket, so the parser follows the core/parser rules: it never
 * throws, never aborts, caps input size and nesting depth, and turns
 * every rejection into a structured ParseError Diag.
 *
 * Rendering is deterministic: object members keep insertion order,
 * numbers render as exact integers when integral and otherwise as
 * doubles with 17 significant digits (the bytes of printf "%.17g",
 * produced by std::to_chars), and no whitespace is emitted.
 * parse(render(v)) reproduces v exactly — the serving byte-identity
 * tests lean on this round trip. Neither direction goes through
 * printf, strtod or a stream.
 */

#ifndef DHDL_SERVE_JSON_HH
#define DHDL_SERVE_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/diag.hh"

namespace dhdl::serve {

/** One JSON value; arrays/objects own their children. */
class Json
{
  public:
    enum class Kind : uint8_t {
        Null,
        Bool,
        Int,    //!< Integral number, rendered without a decimal point.
        Double, //!< Non-integral number.
        String,
        Array,
        Object,
    };

    Json() = default;
    Json(bool b) : kind_(Kind::Bool), bool_(b) {}
    // Spelled with the fundamental integer types (not the
    // <cstdint> aliases) so every width converts without the
    // aliases colliding on LP64 targets.
    Json(int v) : kind_(Kind::Int), int_(v) {}
    Json(long v) : kind_(Kind::Int), int_(v) {}
    Json(long long v) : kind_(Kind::Int), int_(int64_t(v)) {}
    Json(unsigned v) : kind_(Kind::Int), int_(int64_t(v)) {}
    Json(unsigned long v) : kind_(Kind::Int), int_(int64_t(v)) {}
    Json(unsigned long long v) : kind_(Kind::Int), int_(int64_t(v)) {}
    Json(double v) : kind_(Kind::Double), dbl_(v) {}
    Json(std::string s) : kind_(Kind::String), str_(std::move(s)) {}
    Json(const char* s) : kind_(Kind::String), str_(s) {}

    static Json
    array()
    {
        Json j;
        j.kind_ = Kind::Array;
        return j;
    }

    static Json
    object()
    {
        Json j;
        j.kind_ = Kind::Object;
        return j;
    }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isObject() const { return kind_ == Kind::Object; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isString() const { return kind_ == Kind::String; }
    bool
    isNumber() const
    {
        return kind_ == Kind::Int || kind_ == Kind::Double;
    }

    bool
    asBool(bool dflt = false) const
    {
        return kind_ == Kind::Bool ? bool_ : dflt;
    }

    int64_t
    asInt(int64_t dflt = 0) const
    {
        if (kind_ == Kind::Int)
            return int_;
        if (kind_ == Kind::Double)
            return int64_t(dbl_);
        return dflt;
    }

    double
    asDouble(double dflt = 0) const
    {
        if (kind_ == Kind::Double)
            return dbl_;
        if (kind_ == Kind::Int)
            return double(int_);
        return dflt;
    }

    const std::string&
    asString() const
    {
        return str_;
    }

    /** Append to an array (turns a Null into an Array). */
    Json&
    push(Json v)
    {
        kind_ = Kind::Array;
        items_.push_back(std::move(v));
        return *this;
    }

    /** Set an object member (turns a Null into an Object); keeps
     *  insertion order, replaces an existing key in place. */
    Json& set(std::string key, Json v);

    /** Member by key; nullptr when absent or not an object. */
    const Json* find(const std::string& key) const;

    /** Array items (empty unless isArray()). */
    const std::vector<Json>& items() const { return items_; }

    /** Object members in insertion order. */
    const std::vector<std::pair<std::string, Json>>&
    members() const
    {
        return members_;
    }

    /** Deterministic single-line rendering (no whitespace). */
    std::string render() const;
    void renderTo(std::string& out) const;

  private:
    friend class JsonParser; // Builds values in place.

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    int64_t int_ = 0;
    double dbl_ = 0;
    std::string str_;
    std::vector<Json> items_;
    std::vector<std::pair<std::string, Json>> members_;
};

/** Parser limits; the defaults bound a hostile peer. */
struct JsonLimits {
    size_t maxBytes = 32u << 20; //!< Input size cap.
    int maxDepth = 64;           //!< Array/object nesting cap.
};

/**
 * Parse one JSON document (surrounding whitespace allowed, trailing
 * garbage rejected). Never throws; failures return a ParseError
 * Status naming the byte offset.
 */
Status parseJson(std::string_view text, Json& out,
                 const JsonLimits& limits = {});

} // namespace dhdl::serve

#endif // DHDL_SERVE_JSON_HH
