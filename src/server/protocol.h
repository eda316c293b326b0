// rfidcepd wire protocol: length-prefixed, CRC-framed binary frames
// over a TCP stream (docs/server.md "Protocol").
//
// A connection opens with a fixed hello — magic, protocol version, and
// the tenant name — then carries frames in both directions. Framing is
// the WAL's CRC frame (common/byte_codec.h): a u32 payload length, a u32
// CRC-32 of the payload (zlib-compatible), then the payload, whose first
// byte is the frame type. A frame that fails any check — header
// truncated by peer close, length over the cap, CRC mismatch, unknown
// type, undecodable body — is unrecoverable for the stream (framing
// gives no resynchronization point), so the decoder latches the error
// and the server fails the connection. The engine behind it is never
// touched by a bad frame.
//
// All integers are little-endian. Strings are u16/u32 length + bytes.

#ifndef RFIDCEP_SERVER_PROTOCOL_H_
#define RFIDCEP_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/byte_codec.h"
#include "common/status.h"
#include "events/observation.h"

namespace rfidcep::server {

// "RCEP" as the first four connection bytes.
inline constexpr uint32_t kProtocolMagic = 0x50454352u;
inline constexpr uint16_t kProtocolVersion = 1;
// Frame header: u32 payload length + u32 CRC32(payload).
inline constexpr size_t kFrameHeaderBytes = common::kFrameHeaderBytes;
// Per-frame payload cap; larger lengths are treated as corruption
// before any allocation happens.
inline constexpr uint32_t kMaxFrameBytes = 4u << 20;
// Hello prefix: u32 magic + u16 version + u16 tenant-name length.
inline constexpr size_t kHelloPrefixBytes = 8;
inline constexpr size_t kMaxTenantNameBytes = 256;

enum class FrameType : uint8_t {
  // Client -> server.
  kBatch = 1,       // u32 count, then per observation:
                    //   u16 reader len + bytes, u16 object len + bytes,
                    //   i64 timestamp (microseconds).
  kAdvance = 2,     // i64 t: AdvanceTo(t).
  kFlush = 3,       // Ends the stream (engine Flush).
  kStats = 4,       // Request a kStatsReply.
  kCheckpoint = 5,  // Checkpoint the tenant now.
  kPing = 6,        // Liveness probe; acked like any frame.
  // Server -> client.
  kAck = 0x80,        // u64: frames processed on this connection so far.
  kError = 0x81,      // u32 status code + u32 message len + message;
                      // the server closes the connection after sending.
  kStatsReply = 0x82,  // See StatsReply.
};

struct Frame {
  FrameType type = FrameType::kPing;
  std::string body;  // Payload minus the type byte.
};

// Per-tenant totals, for clients reconciling a stream end to end.
struct StatsReply {
  uint64_t observations = 0;  // Accepted by the detector.
  uint64_t matches = 0;       // Root completions reported.
  uint64_t rules_fired = 0;   // Matches whose condition held.
  uint64_t sql_actions = 0;
  uint64_t procedures = 0;
  std::vector<std::pair<std::string, uint64_t>> fired;  // Per rule id.
};

// --- Encoding (always succeeds) ---------------------------------------------

std::string EncodeHello(std::string_view tenant);
std::string EncodeFrame(FrameType type, std::string_view body);
std::string EncodeBatch(const std::vector<events::Observation>& batch);
std::string EncodeAdvance(TimePoint t);
std::string EncodeAck(uint64_t seq);
std::string EncodeError(const Status& status);
std::string EncodeStatsReply(const StatsReply& stats);

// --- Decoding ---------------------------------------------------------------

Status DecodeBatch(std::string_view body, std::vector<events::Observation>* out);
Status DecodeAdvance(std::string_view body, TimePoint* out);
Status DecodeAck(std::string_view body, uint64_t* out);
Status DecodeError(std::string_view body, Status* out);
Status DecodeStatsReply(std::string_view body, StatsReply* out);

struct Hello {
  uint16_t version = 0;
  std::string tenant;
};

// Incremental decoders share one result vocabulary: kItem when a
// complete unit was extracted, kNeedMore when the buffered bytes end
// mid-unit (feed more), kError when the stream is unrecoverable.
enum class DecodeResult : uint8_t { kItem, kNeedMore, kError };

// Incremental frame decoder over a raw byte stream. Feed() appends
// whatever recv() produced; Next() extracts complete frames. After
// kError the reader stays failed (error() describes why) and the
// connection must be dropped.
class FrameReader {
 public:
  void Feed(std::string_view bytes);
  DecodeResult Next(Frame* out);
  const std::string& error() const { return error_; }
  // Bytes buffered but not yet consumed (diagnostics).
  size_t buffered() const { return buffer_.size() - pos_; }

 private:
  DecodeResult Fail(std::string message);

  std::string buffer_;
  size_t pos_ = 0;
  std::string error_;
};

// Incremental hello decoder, same contract as FrameReader::Next.
// Validates magic, version, and tenant-name length.
DecodeResult DecodeHello(std::string_view buffer, Hello* out,
                         size_t* consumed, std::string* error);

}  // namespace rfidcep::server

#endif  // RFIDCEP_SERVER_PROTOCOL_H_
