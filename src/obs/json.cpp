#include "obs/json.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace drel::obs {
namespace {

[[noreturn]] void kind_error(const char* wanted, JsonValue::Kind got) {
    throw std::invalid_argument(std::string("JsonValue: expected ") + wanted + ", kind is " +
                                std::to_string(static_cast<int>(got)));
}

void append_escaped(std::string& out, const std::string& s) {
    out.push_back('"');
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out.push_back(c);
                }
        }
    }
    out.push_back('"');
}

void dump_value(const JsonValue& v, std::string& out, int indent, int depth) {
    const std::string pad(indent > 0 ? static_cast<std::size_t>(indent * (depth + 1)) : 0, ' ');
    const std::string close_pad(indent > 0 ? static_cast<std::size_t>(indent * depth) : 0, ' ');
    const char* nl = indent > 0 ? "\n" : "";
    switch (v.kind()) {
        case JsonValue::Kind::kNull: out += "null"; return;
        case JsonValue::Kind::kBool: out += v.as_bool() ? "true" : "false"; return;
        case JsonValue::Kind::kUint: out += std::to_string(v.as_uint()); return;
        case JsonValue::Kind::kDouble: out += format_json_double(v.as_number()); return;
        case JsonValue::Kind::kString: append_escaped(out, v.as_string()); return;
        case JsonValue::Kind::kArray: {
            const auto& items = v.as_array();
            if (items.empty()) {
                out += "[]";
                return;
            }
            out += "[";
            bool first = true;
            for (const JsonValue& item : items) {
                if (!first) out += ",";
                first = false;
                out += nl;
                out += pad;
                dump_value(item, out, indent, depth + 1);
            }
            out += nl;
            out += close_pad;
            out += "]";
            return;
        }
        case JsonValue::Kind::kObject: {
            const auto& fields = v.as_object();
            if (fields.empty()) {
                out += "{}";
                return;
            }
            out += "{";
            bool first = true;
            for (const auto& [key, value] : fields) {
                if (!first) out += ",";
                first = false;
                out += nl;
                out += pad;
                append_escaped(out, key);
                out += indent > 0 ? ": " : ":";
                dump_value(value, out, indent, depth + 1);
            }
            out += nl;
            out += close_pad;
            out += "}";
            return;
        }
    }
}

class Parser {
 public:
    explicit Parser(std::string_view text) : text_(text) {}

    JsonValue parse_document() {
        JsonValue v = parse_value();
        skip_whitespace();
        if (pos_ != text_.size()) fail("trailing characters after document");
        return v;
    }

 private:
    [[noreturn]] void fail(const std::string& what) const {
        throw std::invalid_argument("JsonValue::parse: " + what + " at offset " +
                                    std::to_string(pos_));
    }

    void skip_whitespace() {
        while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                       text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char peek() {
        skip_whitespace();
        if (pos_ >= text_.size()) fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consume_literal(std::string_view literal) {
        if (text_.substr(pos_, literal.size()) != literal) return false;
        pos_ += literal.size();
        return true;
    }

    JsonValue parse_value() {
        switch (peek()) {
            case '{': return parse_object();
            case '[': return parse_array();
            case '"': return JsonValue(parse_string());
            case 't':
                if (!consume_literal("true")) fail("bad literal");
                return JsonValue(true);
            case 'f':
                if (!consume_literal("false")) fail("bad literal");
                return JsonValue(false);
            case 'n':
                if (!consume_literal("null")) fail("bad literal");
                return JsonValue();
            default: return parse_number();
        }
    }

    JsonValue parse_object() {
        expect('{');
        JsonValue::Object fields;
        if (peek() == '}') {
            ++pos_;
            return JsonValue(std::move(fields));
        }
        while (true) {
            std::string key = parse_string_at_peek();
            expect(':');
            fields.emplace(std::move(key), parse_value());
            const char c = peek();
            ++pos_;
            if (c == '}') return JsonValue(std::move(fields));
            if (c != ',') fail("expected ',' or '}' in object");
        }
    }

    JsonValue parse_array() {
        expect('[');
        JsonValue::Array items;
        if (peek() == ']') {
            ++pos_;
            return JsonValue(std::move(items));
        }
        while (true) {
            items.push_back(parse_value());
            const char c = peek();
            ++pos_;
            if (c == ']') return JsonValue(std::move(items));
            if (c != ',') fail("expected ',' or ']' in array");
        }
    }

    std::string parse_string_at_peek() {
        if (peek() != '"') fail("expected string");
        return parse_string();
    }

    std::string parse_string() {
        // pos_ is at the opening quote (peek already skipped whitespace).
        ++pos_;
        std::string out;
        while (true) {
            if (pos_ >= text_.size()) fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size()) fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'u': {
                    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
                        else fail("bad \\u escape digit");
                    }
                    if (code > 0x7f) fail("\\u escape above ASCII is unsupported");
                    out.push_back(static_cast<char>(code));
                    break;
                }
                default: fail("unknown escape");
            }
        }
    }

    bool consume_char(char c) {
        if (pos_ >= text_.size() || text_[pos_] != c) return false;
        ++pos_;
        return true;
    }

    bool consume_digits() {
        const std::size_t begin = pos_;
        while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
        return pos_ > begin;
    }

    /// Scans JSON's number grammar exactly,
    /// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and fails at the first
    /// character that breaks it; whatever follows a complete number is left
    /// to the caller, which rejects anything but a delimiter. A non-negative
    /// integer token becomes a uint64, every other number a double.
    JsonValue parse_number() {
        skip_whitespace();
        const std::size_t start = pos_;
        const bool negative = consume_char('-');
        if (!consume_char('0') && !consume_digits()) {
            fail(negative ? "expected a digit after '-'" : "expected a value");
        }
        bool integral = !negative;
        if (consume_char('.')) {
            integral = false;
            if (!consume_digits()) fail("expected a digit after '.'");
        }
        if (consume_char('e') || consume_char('E')) {
            integral = false;
            if (!consume_char('+')) consume_char('-');
            if (!consume_digits()) fail("expected a digit in the exponent");
        }
        const std::string token(text_.substr(start, pos_ - start));
        if (integral) {
            try {
                return JsonValue(static_cast<std::uint64_t>(std::stoull(token)));
            } catch (const std::out_of_range&) {
                fail("integer out of range '" + token + "'");
            }
        }
        // strtod, not stod: a token that underflows reads as the nearest
        // subnormal or zero, as the writer's own subnormals must; only an
        // overflow is out of range.
        errno = 0;
        const double value = std::strtod(token.c_str(), nullptr);
        if (errno == ERANGE && std::isinf(value)) fail("number out of range '" + token + "'");
        return JsonValue(value);
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

}  // namespace

bool JsonValue::as_bool() const {
    if (!is_bool()) kind_error("bool", kind_);
    return bool_;
}

std::uint64_t JsonValue::as_uint() const {
    if (!is_uint()) kind_error("uint", kind_);
    return uint_;
}

double JsonValue::as_number() const {
    if (is_uint()) return static_cast<double>(uint_);
    if (!is_double()) kind_error("number", kind_);
    return double_;
}

const std::string& JsonValue::as_string() const {
    if (!is_string()) kind_error("string", kind_);
    return string_;
}

const JsonValue::Array& JsonValue::as_array() const {
    if (!is_array()) kind_error("array", kind_);
    return array_;
}

const JsonValue::Object& JsonValue::as_object() const {
    if (!is_object()) kind_error("object", kind_);
    return object_;
}

const JsonValue& JsonValue::at(std::string_view key) const {
    const auto& fields = as_object();
    const auto it = fields.find(std::string(key));
    if (it == fields.end()) {
        throw std::invalid_argument("JsonValue::at: missing key '" + std::string(key) + "'");
    }
    return it->second;
}

std::string JsonValue::dump(int indent) const {
    std::string out;
    dump_value(*this, out, indent, 0);
    return out;
}

JsonValue JsonValue::parse(std::string_view text) {
    return Parser(text).parse_document();
}

std::string format_json_double(double value) {
    if (!std::isfinite(value)) {
        // JSON has no Inf/NaN; observability values should never be either,
        // so surface the bug instead of writing an unparseable document.
        throw std::invalid_argument("format_json_double: non-finite value");
    }
    if (value == std::floor(value) && std::fabs(value) < 9.0e15) {
        return std::to_string(static_cast<long long>(value));
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

}  // namespace drel::obs
