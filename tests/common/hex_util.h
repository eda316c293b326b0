// Hex text for golden byte vectors: tests keep encoded formats as
// reviewable hex literals and compare in hex, so a mismatch shows where
// the bytes differ.

#ifndef RFIDCEP_TESTS_COMMON_HEX_UTIL_H_
#define RFIDCEP_TESTS_COMMON_HEX_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace rfidcep {

inline std::string ToHex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (char c : bytes) {
    out += kDigits[static_cast<uint8_t>(c) >> 4];
    out += kDigits[static_cast<uint8_t>(c) & 0xf];
  }
  return out;
}

inline std::string FromHex(std::string_view hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out += static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16));
  }
  return out;
}

}  // namespace rfidcep

#endif  // RFIDCEP_TESTS_COMMON_HEX_UTIL_H_
