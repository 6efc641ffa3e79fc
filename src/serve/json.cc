#include "serve/json.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <unordered_map>

namespace dhdl::serve {

Json&
Json::set(std::string key, Json v)
{
    kind_ = Kind::Object;
    for (auto& [k, val] : members_) {
        if (k == key) {
            val = std::move(v);
            return *this;
        }
    }
    members_.emplace_back(std::move(key), std::move(v));
    return *this;
}

const Json*
Json::find(const std::string& key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto& [k, v] : members_) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

namespace {

/** Append `s` as a quoted JSON string: runs of bytes that need no
 *  escape are copied in bulk, control bytes become \u00XX. */
void
escapeTo(std::string& out, std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    out += '"';
    size_t run = 0;
    for (size_t i = 0; i < s.size(); ++i) {
        const uint8_t c = uint8_t(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s.data() + run, i - run);
        run = i + 1;
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
        default: {
            const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                kHex[c & 0xF]};
            out.append(esc, sizeof esc);
        }
        }
    }
    out.append(s.data() + run, s.size() - run);
    out += '"';
}

} // namespace

void
Json::renderTo(std::string& out) const
{
    switch (kind_) {
    case Kind::Null:
        out += "null";
        return;
    case Kind::Bool:
        out += bool_ ? "true" : "false";
        return;
    case Kind::Int: {
        char buf[24];
        out.append(buf, std::to_chars(buf, buf + sizeof buf, int_).ptr);
        return;
    }
    case Kind::Double: {
        // 17 significant digits ("%.17g", which to_chars reproduces
        // byte for byte) round-trip every finite double, so
        // parse(render(v)) == v and re-rendering is byte-stable.
        // Non-finite values have no JSON spelling; emit null.
        if (!std::isfinite(dbl_)) {
            out += "null";
            return;
        }
        char buf[32];
        out.append(buf, std::to_chars(buf, buf + sizeof buf, dbl_,
                                      std::chars_format::general, 17)
                            .ptr);
        return;
    }
    case Kind::String:
        escapeTo(out, str_);
        return;
    case Kind::Array:
        out += '[';
        for (size_t i = 0; i < items_.size(); ++i) {
            if (i)
                out += ',';
            items_[i].renderTo(out);
        }
        out += ']';
        return;
    case Kind::Object:
        out += '{';
        for (size_t i = 0; i < members_.size(); ++i) {
            if (i)
                out += ',';
            escapeTo(out, members_[i].first);
            out += ':';
            members_[i].second.renderTo(out);
        }
        out += '}';
        return;
    }
}

std::string
Json::render() const
{
    std::string out;
    renderTo(out);
    return out;
}

namespace {

/**
 * True when the decimal token [p, last), which from_chars matched
 * whole but found out of double range, is below 1 in magnitude: an
 * underflow rather than an overflow. Its value is 0.d1d2... x
 * 10^(e10 + exponent) with d1 the first nonzero digit, and a range
 * error only happens far from 1, so the sign of that power decides.
 */
bool
underflows(const char* p, const char* last)
{
    if (*p == '-')
        ++p;
    int64_t e10 = 0;
    bool lead = false, frac = false;
    for (; p != last && *p != 'e' && *p != 'E'; ++p) {
        if (*p == '.') {
            frac = true;
            continue;
        }
        lead = lead || *p != '0';
        if (lead && !frac)
            ++e10; // An integer digit from the first nonzero on.
        else if (!lead && frac)
            --e10; // A fraction zero before the first nonzero.
    }
    int64_t exp = 0;
    bool neg = false;
    if (p != last) {
        ++p; // 'e' or 'E'
        if (p != last && (*p == '+' || *p == '-'))
            neg = *p++ == '-';
        for (; p != last; ++p)
            exp = std::min<int64_t>(exp * 10 + (*p - '0'),
                                    int64_t(1) << 40);
    }
    return e10 + (neg ? -exp : exp) <= 0;
}

/**
 * strtod's verdict on a whole number token, with from_chars: accept
 * when the entire token converts to a finite double. strtod also
 * takes a leading '+', and on a range error returns +-HUGE_VAL
 * (rejected here as non-finite) or, on underflow, +-0.
 */
bool
wholeDouble(const char* first, const char* last, double& out)
{
    if (first != last && *first == '+') {
        ++first;
        if (first != last && *first == '-')
            return false;
    }
    const auto [end, ec] = std::from_chars(first, last, out);
    if (end != last)
        return false;
    if (ec == std::errc())
        return std::isfinite(out);
    if (ec != std::errc::result_out_of_range || !underflows(first, last))
        return false;
    out = *first == '-' ? -0.0 : 0.0;
    return true;
}

void
appendUtf8(std::string& out, uint32_t cp)
{
    if (cp < 0x80) {
        out += char(cp);
    } else if (cp < 0x800) {
        out += char(0xC0 | (cp >> 6));
        out += char(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
        out += char(0xE0 | (cp >> 12));
        out += char(0x80 | ((cp >> 6) & 0x3F));
        out += char(0x80 | (cp & 0x3F));
    } else {
        out += char(0xF0 | (cp >> 18));
        out += char(0x80 | ((cp >> 12) & 0x3F));
        out += char(0x80 | ((cp >> 6) & 0x3F));
        out += char(0x80 | (cp & 0x3F));
    }
}

} // namespace

/**
 * Recursive-descent parser over a bounded view; never throws. It
 * writes values in place, and collects the elements of an open array
 * or object on a stack shared by all depths, so each container's
 * storage is allocated once, at its final size.
 */
class JsonParser
{
  public:
    JsonParser(std::string_view text, const JsonLimits& limits)
        : text_(text), limits_(limits) {}

    Status
    parse(Json& out)
    {
        out = Json();
        if (text_.size() > limits_.maxBytes)
            fail(0, "input exceeds size cap");
        else if (value(out, 0)) {
            skipWs();
            if (pos_ == text_.size())
                return Status();
            fail(pos_, "trailing bytes after document");
        }
        return std::move(err_);
    }

  private:
    /** Record the first failure; always false. */
    bool
    fail(size_t at, const char* what)
    {
        Diag d;
        d.code = DiagCode::ParseError;
        d.severity = DiagSeverity::Error;
        d.stage = "json";
        d.message = std::string(what) + " (byte " +
                    std::to_string(at) + ")";
        err_ = Status::error(std::move(d));
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    bool
    value(Json& out, int depth)
    {
        if (depth > limits_.maxDepth)
            return fail(pos_, "nesting exceeds depth cap");
        skipWs();
        if (pos_ >= text_.size())
            return fail(pos_, "unexpected end of input");
        const char c = text_[pos_];
        if (c == '{')
            return object(out, depth);
        if (c == '[')
            return array(out, depth);
        if (c == '"') {
            out.kind_ = Json::Kind::String;
            return string(out.str_);
        }
        if (literal("true") || literal("false")) {
            out.kind_ = Json::Kind::Bool;
            out.bool_ = c == 't';
            return true;
        }
        if (literal("null"))
            return true;
        return number(out);
    }

    bool
    object(Json& out, int depth)
    {
        consume('{');
        out.kind_ = Json::Kind::Object;
        const size_t base = members_.size();
        // Key -> member offset, built once the object passes
        // kIndexAfter members: a hostile many-key object then parses
        // in linear time instead of quadratic, while the small objects
        // of real traffic keep the cheaper linear scan.
        std::unordered_map<std::string, size_t> index;
        skipWs();
        bool ok = consume('}');
        while (!ok) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail(pos_, "expected object key");
            std::string key;
            if (!string(key))
                return false;
            skipWs();
            if (!consume(':'))
                return fail(pos_, "expected ':' after key");
            Json v;
            if (!value(v, depth + 1))
                return false;
            // A repeated key replaces the value in place, like set().
            const size_t n = members_.size() - base;
            size_t at = 0;
            if (n < kIndexAfter) {
                while (at < n && members_[base + at].first != key)
                    ++at;
            } else {
                if (index.empty())
                    for (size_t i = 0; i < n; ++i)
                        index.emplace(members_[base + i].first, i);
                at = index.try_emplace(key, n).first->second;
            }
            if (at < n)
                members_[base + at].second = std::move(v);
            else
                members_.emplace_back(std::move(key), std::move(v));
            skipWs();
            if (consume(','))
                continue;
            if (!consume('}'))
                return fail(pos_, "expected ',' or '}' in object");
            ok = true;
        }
        out.members_.assign(
            std::make_move_iterator(members_.begin() + ptrdiff_t(base)),
            std::make_move_iterator(members_.end()));
        members_.resize(base);
        return true;
    }

    bool
    array(Json& out, int depth)
    {
        consume('[');
        out.kind_ = Json::Kind::Array;
        const size_t base = items_.size();
        skipWs();
        bool ok = consume(']');
        while (!ok) {
            Json v;
            if (!value(v, depth + 1))
                return false;
            items_.push_back(std::move(v));
            skipWs();
            if (consume(','))
                continue;
            if (!consume(']'))
                return fail(pos_, "expected ',' or ']' in array");
            ok = true;
        }
        out.items_.assign(
            std::make_move_iterator(items_.begin() + ptrdiff_t(base)),
            std::make_move_iterator(items_.end()));
        items_.resize(base);
        return true;
    }

    bool
    string(std::string& out)
    {
        const size_t start = pos_;
        consume('"');
        while (true) {
            // Copy the run of bytes that need no decoding in one go.
            const size_t run = pos_;
            while (pos_ < text_.size()) {
                const uint8_t c = uint8_t(text_[pos_]);
                if (c == '"' || c == '\\' || c < 0x20)
                    break;
                ++pos_;
            }
            out.append(text_.data() + run, pos_ - run);
            if (pos_ >= text_.size())
                break;
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\')
                return fail(pos_ - 1, "unescaped control byte in string");
            if (pos_ >= text_.size())
                break;
            switch (text_[pos_++]) {
            case '"':
                out += '"';
                break;
            case '\\':
                out += '\\';
                break;
            case '/':
                out += '/';
                break;
            case 'b':
                out += '\b';
                break;
            case 'f':
                out += '\f';
                break;
            case 'n':
                out += '\n';
                break;
            case 'r':
                out += '\r';
                break;
            case 't':
                out += '\t';
                break;
            case 'u': {
                uint32_t cp = 0;
                if (!hex4(cp))
                    return fail(pos_, "bad \\u escape");
                // Surrogate pair: combine when a low surrogate
                // follows; a lone surrogate encodes as U+FFFD.
                if (cp >= 0xD800 && cp <= 0xDBFF &&
                    text_.size() - pos_ >= 6 &&
                    text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
                    pos_ += 2;
                    uint32_t lo = 0;
                    if (!hex4(lo))
                        return fail(pos_, "bad \\u escape");
                    if (lo >= 0xDC00 && lo <= 0xDFFF)
                        cp = 0x10000 + ((cp - 0xD800) << 10) +
                             (lo - 0xDC00);
                    else
                        cp = 0xFFFD;
                } else if (cp >= 0xD800 && cp <= 0xDFFF) {
                    cp = 0xFFFD;
                }
                appendUtf8(out, cp);
                break;
            }
            default:
                return fail(pos_ - 1, "bad escape character");
            }
        }
        return fail(start, "unterminated string");
    }

    bool
    hex4(uint32_t& out)
    {
        if (text_.size() - pos_ < 4)
            return false;
        out = 0;
        for (int i = 0; i < 4; ++i) {
            char c = text_[pos_++];
            out <<= 4;
            if (c >= '0' && c <= '9')
                out |= uint32_t(c - '0');
            else if (c >= 'a' && c <= 'f')
                out |= uint32_t(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                out |= uint32_t(c - 'A' + 10);
            else
                return false;
        }
        return true;
    }

    /** A token of sign, digits, '.', 'e' and signs, converted from
     *  the view itself: exactly strtoll's result when the whole
     *  token is an in-range integer, else exactly strtod's. */
    bool
    number(Json& out)
    {
        const size_t start = pos_;
        bool integral = true;
        consume('-');
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c >= '0' && c <= '9') {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                integral = false;
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start ||
            (pos_ == start + 1 && text_[start] == '-'))
            return fail(start, "expected a value");
        const char* first = text_.data() + start;
        const char* last = text_.data() + pos_;
        if (integral) {
            const auto [end, ec] = std::from_chars(first, last, out.int_);
            if (ec == std::errc() && end == last) {
                out.kind_ = Json::Kind::Int;
                return true;
            }
            // Out-of-range integers fall through to double.
        }
        if (!wholeDouble(first, last, out.dbl_))
            return fail(start, "malformed number");
        out.kind_ = Json::Kind::Double;
        return true;
    }

    /**
     * Where indexing starts to pay. Measured (Release, g++ 12): the
     * hash index costs 1.6-1.7x the linear scan per object up to 32
     * members, breaks even near 48 and wins from 64 on. The objects
     * of serve traffic have 2-12 members (most are 6-member Pareto
     * front entries), so they all take the linear scan.
     */
    static constexpr size_t kIndexAfter = 48;

    std::string_view text_;
    const JsonLimits& limits_;
    size_t pos_ = 0;
    Status err_;
    /** Elements of the arrays and objects still open, outermost
     *  first; each container takes its tail when it closes. */
    std::vector<Json> items_;
    std::vector<std::pair<std::string, Json>> members_;
};

Status
parseJson(std::string_view text, Json& out, const JsonLimits& limits)
{
    JsonParser p(text, limits);
    return p.parse(out);
}

} // namespace dhdl::serve
