// The one little-endian byte codec behind snapshots, WAL segments and the
// rfidcepd wire protocol, and the CRC frame the WAL and the protocol
// share.
//
// ByteWriter appends to a caller-owned string, so a frame is built in
// place inside a larger buffer. ByteReader reads in the latched-error
// style: every read returns a value (zero or empty once it has failed),
// the first failure latches ok() to false with a static reason, and
// callers check ok() once per record rather than once per field. Strings
// come back as views into the input. A count is accepted only if that
// many elements of the caller's minimum encoded size fit in the remaining
// bytes, so a forged count fails before anything is sized from it.
//
// Frame: u32 payload length, u32 CRC-32 of the payload, then the payload.
// The CRC is IEEE 802.3 (reflected, polynomial 0xEDB88320), the checksum
// zlib's crc32() computes, so non-C++ clients can check frames with their
// standard library. It runs slicing-by-8: eight table lookups per eight
// bytes instead of one per byte.

#ifndef RFIDCEP_COMMON_BYTE_CODEC_H_
#define RFIDCEP_COMMON_BYTE_CODEC_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace rfidcep::common {

class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U16(uint16_t v) { Le(v, 2); }
  void U32(uint32_t v) { Le(v, 4); }
  void U64(uint64_t v) { Le(v, 8); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  // Length-prefixed bytes; the caller keeps `s` within the prefix's range.
  void Str16(std::string_view s) {
    U16(static_cast<uint16_t>(s.size()));
    Bytes(s);
  }
  void Str32(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    Bytes(s);
  }
  void Bytes(std::string_view s) { out_->append(s); }

 private:
  void Le(uint64_t v, int n) {
    char buf[8];
    for (int i = 0; i < n; ++i) buf[i] = static_cast<char>(v >> (8 * i));
    out_->append(buf, static_cast<size_t>(n));
  }

  std::string* out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  uint8_t U8() { return static_cast<uint8_t>(Le(1)); }
  uint16_t U16() { return static_cast<uint16_t>(Le(2)); }
  uint32_t U32() { return static_cast<uint32_t>(Le(4)); }
  uint64_t U64() { return Le(8); }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  std::string_view Str16() { return Bytes(U16()); }
  std::string_view Str32() { return Bytes(U32()); }
  std::string_view Bytes(size_t n) {
    if (!Need(n)) return {};
    std::string_view out = data_.substr(pos_, n);
    pos_ += n;
    return out;
  }
  // A u32 element count; 0 and a failure when that many elements of
  // `min_element_bytes` each cannot fit in the remaining input.
  uint32_t Count(size_t min_element_bytes) {
    const uint32_t n = U32();
    if (ok_ && n > (data_.size() - pos_) / min_element_bytes) {
      Fail("impossible element count");
      return 0;
    }
    return n;
  }

  // Latches a failure the caller found (an unknown tag, an index out of
  // range). The first reason sticks.
  void Fail(const char* reason) {
    if (!ok_) return;
    ok_ = false;
    error_ = reason;
  }
  bool ok() const { return ok_; }
  // True when every byte was consumed without a failure.
  bool AtEnd() const { return ok_ && pos_ == data_.size(); }
  // Why the first failure happened; empty while ok().
  const char* error() const { return error_; }

 private:
  bool Need(size_t n) {
    if (ok_ && data_.size() - pos_ >= n) return true;
    Fail("truncated input");
    return false;
  }
  uint64_t Le(int n) {
    if (!Need(static_cast<size_t>(n))) return 0;
    uint64_t v = 0;
    for (int i = 0; i < n; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += static_cast<size_t>(n);
    return v;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
  const char* error_ = "";
};

// --- CRC frames -------------------------------------------------------------

namespace crc32_internal {

// Slicing-by-8 tables: kTables[0] is the bytewise table of the reflected
// polynomial; kTables[k][b] is the CRC of byte b followed by k zero bytes,
// so one step folds eight input bytes with eight lookups.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

inline constexpr Tables kTables = MakeTables();

inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace crc32_internal

inline uint32_t Crc32(const char* data, size_t n) {
  const auto& t = crc32_internal::kTables;
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, p += 8) {
    const uint32_t lo = crc32_internal::LoadLe32(p) ^ crc;
    const uint32_t hi = crc32_internal::LoadLe32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

inline constexpr size_t kFrameHeaderBytes = 8;

// Reserves a frame header at the end of *out and returns its offset; the
// caller appends the payload, then calls EndFrame with that offset.
inline size_t BeginFrame(std::string* out) {
  const size_t start = out->size();
  out->append(kFrameHeaderBytes, '\0');
  return start;
}

// Fills in the header at `start` for the payload appended since BeginFrame.
inline void EndFrame(std::string* out, size_t start) {
  const size_t len = out->size() - start - kFrameHeaderBytes;
  const uint32_t crc = Crc32(out->data() + start + kFrameHeaderBytes, len);
  for (int i = 0; i < 4; ++i) {
    (*out)[start + i] = static_cast<char>(len >> (8 * i));
    (*out)[start + 4 + i] = static_cast<char>(crc >> (8 * i));
  }
}

enum class FrameCheck : uint8_t {
  kFrame,        // A whole frame whose CRC matches.
  kNeedMore,     // The input ends before the frame does.
  kEmpty,        // Zero-length payload: no frame carries one.
  kOversized,    // Length over the cap, rejected before it is trusted.
  kCrcMismatch,
};

struct ParsedFrame {
  FrameCheck check = FrameCheck::kNeedMore;
  uint32_t length = 0;       // Payload length from the header, once read.
  std::string_view payload;  // A view into the input; trust it on kFrame.
};

// Checks the frame at the start of `data`, payloads capped at `max_payload`.
inline ParsedFrame ParseFrame(std::string_view data, uint32_t max_payload) {
  ParsedFrame frame;
  if (data.size() < kFrameHeaderBytes) return frame;
  ByteReader header(data.substr(0, kFrameHeaderBytes));
  frame.length = header.U32();
  const uint32_t crc = header.U32();
  if (frame.length == 0) {
    frame.check = FrameCheck::kEmpty;
  } else if (frame.length > max_payload) {
    frame.check = FrameCheck::kOversized;
  } else if (data.size() - kFrameHeaderBytes >= frame.length) {
    frame.payload = data.substr(kFrameHeaderBytes, frame.length);
    frame.check = Crc32(frame.payload.data(), frame.length) == crc
                      ? FrameCheck::kFrame
                      : FrameCheck::kCrcMismatch;
  }
  return frame;
}

}  // namespace rfidcep::common

#endif  // RFIDCEP_COMMON_BYTE_CODEC_H_
