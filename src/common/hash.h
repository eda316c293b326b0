// The hash mixers behind every hashed key: join keys and text hashes
// (events/binding.cc), store index hashes (store/value.cc), the rule-set
// fingerprint (engine/snapshot.cc), window-family signatures
// (engine/detector.cc) and the home slot of common::ChainTable. All are
// constexpr: an empty text's hash is a compile-time constant.

#ifndef RFIDCEP_COMMON_HASH_H_
#define RFIDCEP_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace rfidcep::common {

// 2^64 / phi, rounded to odd: the splitmix64 increment and the Fibonacci
// hashing multiplier.
inline constexpr uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ull;

// splitmix64 finalizer: full-avalanche mixing of a 64-bit state.
constexpr uint64_t Mix64(uint64_t x) {
  x += kGoldenGamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Folds `v` into the running hash `h` with one Fibonacci multiply and
// one xorshift (window-family signatures).
constexpr uint64_t HashCombine(uint64_t h, uint64_t v) {
  h = (h ^ v) * kGoldenGamma;
  return h ^ (h >> 31);
}

// FNV-1a over `bytes`, continuing from `h` (kFnvOffset to start).
inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t FnvBytes(uint64_t h, std::string_view bytes) {
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// FnvBytes over the eight little-endian bytes of `v`.
constexpr uint64_t FnvU64(uint64_t h, uint64_t v) {
  char bytes[8] = {};
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
  return FnvBytes(h, std::string_view(bytes, 8));
}

}  // namespace rfidcep::common

#endif  // RFIDCEP_COMMON_HASH_H_
