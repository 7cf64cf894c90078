// Minimal JSON value tree with a deterministic writer and a strict parser.
//
// The observability layer needs exactly two things from JSON: (1) emit
// metrics snapshots and bench sidecars whose text is byte-identical for
// identical inputs — object keys are kept in a std::map, so serialization
// order is the sorted key order, never insertion order — and (2) read those
// documents back in tests to validate schema and diff goldens structurally.
// A third-party JSON dependency is deliberately avoided (container policy:
// nothing new gets installed); this is the small subset we need, strict
// about what it accepts (throws std::invalid_argument on malformed input).
//
// Numbers are kept in two kinds: unsigned 64-bit integers (metric counts —
// printed exactly, never via double) and doubles (gauges, timings — printed
// with round-trip precision, integral values without a trailing fraction).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace drel::obs {

class JsonValue {
 public:
    enum class Kind { kNull, kBool, kUint, kDouble, kString, kArray, kObject };

    using Array = std::vector<JsonValue>;
    using Object = std::map<std::string, JsonValue>;

    JsonValue() : kind_(Kind::kNull) {}
    JsonValue(bool value) : kind_(Kind::kBool), bool_(value) {}                 // NOLINT
    JsonValue(std::uint64_t value) : kind_(Kind::kUint), uint_(value) {}        // NOLINT
    JsonValue(double value) : kind_(Kind::kDouble), double_(value) {}           // NOLINT
    JsonValue(std::string value) : kind_(Kind::kString), string_(std::move(value)) {}  // NOLINT
    JsonValue(const char* value) : kind_(Kind::kString), string_(value) {}      // NOLINT
    JsonValue(Array value) : kind_(Kind::kArray), array_(std::move(value)) {}   // NOLINT
    JsonValue(Object value) : kind_(Kind::kObject), object_(std::move(value)) {}  // NOLINT

    Kind kind() const noexcept { return kind_; }
    bool is_null() const noexcept { return kind_ == Kind::kNull; }
    bool is_bool() const noexcept { return kind_ == Kind::kBool; }
    bool is_uint() const noexcept { return kind_ == Kind::kUint; }
    bool is_double() const noexcept { return kind_ == Kind::kDouble; }
    /// Any JSON number (integer- or double-kinded).
    bool is_number() const noexcept { return is_uint() || is_double(); }
    bool is_string() const noexcept { return kind_ == Kind::kString; }
    bool is_array() const noexcept { return kind_ == Kind::kArray; }
    bool is_object() const noexcept { return kind_ == Kind::kObject; }

    /// Checked accessors; throw std::invalid_argument on kind mismatch.
    bool as_bool() const;
    std::uint64_t as_uint() const;
    double as_number() const;   ///< uint or double, widened to double
    const std::string& as_string() const;
    const Array& as_array() const;
    const Object& as_object() const;

    /// Object member; throws if this is not an object or the key is missing
    /// (the message names it).
    const JsonValue& at(std::string_view key) const;

    /// Serializes deterministically: object keys in sorted (map) order,
    /// `indent` spaces per nesting level (0 = compact single line), doubles
    /// with round-trip precision. Ends without a trailing newline.
    std::string dump(int indent = 2) const;

    /// Strict parser for the subset this writer emits (standard JSON minus
    /// exotic escapes: \uXXXX above the ASCII range is rejected). Throws
    /// std::invalid_argument with an offset on malformed input.
    static JsonValue parse(std::string_view text);

 private:
    Kind kind_;
    bool bool_ = false;
    std::uint64_t uint_ = 0;
    double double_ = 0.0;
    std::string string_;
    Array array_;
    Object object_;
};

/// Round-trip double formatting used by the writer: integral finite values
/// print as integers ("12" not "12.0"), everything else as shortest %.17g.
std::string format_json_double(double value);

}  // namespace drel::obs
