#ifndef MODELHUB_COMMON_JSON_H_
#define MODELHUB_COMMON_JSON_H_

#include <string>
#include <string_view>

namespace modelhub {

/// Appends `text` to `*out` as a quoted JSON string: `"` and `\` are
/// backslash-escaped, newline, carriage return and tab use `\n`, `\r` and
/// `\t`, every other control character below 0x20 becomes `\u00xx`, and
/// all other bytes (UTF-8 included) pass through unchanged.
void AppendJsonString(std::string* out, std::string_view text);

/// `text` as a quoted JSON string (see AppendJsonString).
inline std::string JsonString(std::string_view text) {
  std::string out;
  AppendJsonString(&out, text);
  return out;
}

}  // namespace modelhub

#endif  // MODELHUB_COMMON_JSON_H_
