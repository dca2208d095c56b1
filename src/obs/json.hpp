// Minimal JSON utilities for the observability layer: string escaping for
// the emitters and one small DOM parser, so the run-ledger tooling
// (obs::Ledger, tools/scflow_report) can load the artifacts it wrote and
// tests can assert that every report.json / trace.json the flow writes is
// well-formed JSON (the structural half of "loads in Perfetto").
// json_validate is json_parse into a discarded value: one grammar, one
// set of diagnostics.  No dependencies.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace scflow::obs {

/// Escapes @p s for use inside a JSON string literal (quotes not added):
/// ", \, control characters as \uXXXX, common ones as \n \t \r \b \f.
/// Bytes >= 0x20 pass through, so UTF-8 payloads survive untouched.
[[nodiscard]] std::string json_escape(std::string_view s);

/// Renders a double as a JSON number.  JSON has no inf/nan tokens, so
/// non-finite values render as "null" — every emitter (registry gauges,
/// trace counter tracks, ledger fields) must go through this instead of
/// operator<< or the artifact stops parsing.  Finite values round-trip
/// (max_digits10 precision).
[[nodiscard]] std::string json_number(double v);

/// Full-syntax JSON well-formedness check (RFC 8259 grammar: values,
/// objects, arrays, strings with escapes, numbers, literals; rejects
/// trailing garbage): json_parse with the DOM discarded.  Returns true iff
/// @p text is one valid JSON value; on failure, *error (if given)
/// describes the first problem and its byte offset.
[[nodiscard]] bool json_validate(std::string_view text, std::string* error = nullptr);

/// Parsed JSON value (document order preserved for object members).
/// Integral numbers that fit keep an exact uint64 image next to the
/// double, so 64-bit counters survive a round-trip unrounded.
struct JsonValue {
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kObject, kArray };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::uint64_t uint_image = 0;  ///< exact value when is_uint
  bool is_uint = false;          ///< number was a non-negative integer <= 2^64-1
  std::string string;
  std::vector<std::pair<std::string, JsonValue>> members;  ///< kObject
  std::vector<JsonValue> items;                            ///< kArray

  /// First member with @p key, or nullptr (objects only).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  [[nodiscard]] std::uint64_t as_u64(std::uint64_t dflt = 0) const;
  [[nodiscard]] double as_double(double dflt = 0.0) const;
  [[nodiscard]] const std::string& as_string() const { return string; }
};

/// Parses one JSON document.  Returns false on malformed input with
/// *error describing the first problem and its byte offset.
[[nodiscard]] bool json_parse(std::string_view text, JsonValue* out,
                              std::string* error = nullptr);

}  // namespace scflow::obs
