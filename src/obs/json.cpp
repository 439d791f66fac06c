#include "obs/json.hpp"

#include <cstdio>

namespace stob::obs {

void json_escape(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        // Escape every remaining control character AND all non-ASCII bytes:
        // strings can carry arbitrary user input (paths, site names, stderr
        // captures), and emitting raw bytes >= 0x7f would make the output's
        // encoding depend on the input being valid UTF-8. The unsigned cast
        // matters — a negative char formatted with %04x sign-extends to 8
        // hex digits and overflows the \uXXXX form.
        const auto u = static_cast<unsigned char>(c);
        if (u < 0x20 || u >= 0x7f) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", u);
          out += buf;
        } else {
          out += c;
        }
      }
    }
  }
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  json_escape(out, s);
  return out;
}

}  // namespace stob::obs
