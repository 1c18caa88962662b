#include "util/json.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "util/cli.hpp"

namespace latticesched {

namespace {

std::string json_unescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out += s[i];
      continue;
    }
    ++i;
    switch (s[i]) {
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'u':
        if (i + 4 < s.size()) {
          out += static_cast<char>(
              std::strtol(s.substr(i + 1, 4).c_str(), nullptr, 16));
          i += 4;
        }
        break;
      default: out += s[i];
    }
  }
  return out;
}

/// Index of the quote closing the string literal that opens at
/// `text[open]`, stepping over escape pairs so an escaped quote or
/// backslash cannot end it.  Throws when the literal is unterminated.
std::size_t closing_quote(const std::string& text, std::size_t open) {
  std::size_t end = open + 1;
  while (end < text.size() && text[end] != '"') {
    end += text[end] == '\\' ? 2 : 1;
  }
  if (end >= text.size()) {
    throw std::invalid_argument("JSON: unterminated string");
  }
  return end;
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_field(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) {
    throw std::invalid_argument("JSON: missing key '" + key + "'");
  }
  const std::size_t pos = at + needle.size();
  if (pos < text.size() && text[pos] == '"') {
    const std::size_t end = closing_quote(text, pos);
    return json_unescape(text.substr(pos + 1, end - pos - 1));
  }
  std::size_t end = pos;
  if (pos < text.size() && text[pos] == '{') {
    while (end < text.size() && text[end] != '}') {
      end = text[end] == '"' ? closing_quote(text, end) + 1 : end + 1;
    }
    if (end == text.size()) {
      throw std::invalid_argument("JSON: unterminated object for '" + key +
                                  "'");
    }
    return text.substr(pos, end + 1 - pos);
  }
  while (end < text.size() && text[end] != ',' && text[end] != '}') ++end;
  return text.substr(pos, end - pos);
}

std::uint64_t json_u64(const std::string& text, const std::string& key) {
  return parse_u64(json_field(text, key), key);
}

}  // namespace latticesched
