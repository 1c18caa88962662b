#include "util/json.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "util/cli.hpp"

namespace latticesched {

namespace {

/// Decodes the RFC 8259 short escapes and the \u0000-\u007f escapes
/// json_escape writes; any other escape throws std::invalid_argument.
std::string json_unescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    if (++i == s.size()) throw std::invalid_argument("JSON: dangling escape");
    switch (s[i]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        const std::string hex = s.substr(i + 1, 4);
        const bool digits = hex.size() == 4 &&
                            hex.find_first_not_of("0123456789abcdefABCDEF") ==
                                std::string::npos;
        const unsigned long code = digits ? std::stoul(hex, nullptr, 16) : 0x80;
        if (code > 0x7f) {
          throw std::invalid_argument("JSON: unsupported escape \\u" + hex);
        }
        out += static_cast<char>(code);
        i += 4;
        break;
      }
      default:
        throw std::invalid_argument(std::string("JSON: bad escape \\") + s[i]);
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
