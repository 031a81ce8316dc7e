#include "common/json.h"

#include <cstdio>

namespace modelhub {

void AppendJsonString(std::string* out, std::string_view text) {
  out->push_back('"');
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (c == '\n') {
      out->append("\\n");
    } else if (c == '\r') {
      out->append("\\r");
    } else if (c == '\t') {
      out->append("\\t");
    } else if (byte < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(byte));
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace modelhub
