// The field-level JSON helpers behind this repo's line-oriented text
// formats (report JSON, wire headers, the counters footer): escape a
// string and read the value after one `"key": `.  Not a general JSON
// reader: every format it reads is written by this repo's own emitters,
// one flat object per line.
#pragma once

#include <cstdint>
#include <string>

namespace latticesched {

/// `s` with quotes, backslashes and control characters escaped.
std::string json_escape(const std::string& s);

/// The value after the first `"key": ` in `text`.  A quoted string comes
/// back unescaped; a flat object comes back raw through its closing
/// brace; any other value comes back raw up to the next ',' or '}'.
/// Throws std::invalid_argument when the key is missing.
std::string json_field(const std::string& text, const std::string& key);

/// parse_u64 (util/cli.hpp) of json_field(text, key).
std::uint64_t json_u64(const std::string& text, const std::string& key);

}  // namespace latticesched
