// Robustness tests for the rfidcepd wire protocol (ISSUE 10): framing
// round-trips and golden bytes, then — in the WAL torn-tail test's
// style — every-byte truncation and every-byte corruption of a valid
// stream. The decoder must never crash, never hand a damaged frame to
// the engine layer, and must latch into a clean error on anything
// unrecoverable.

#include "server/protocol.h"

#include <cstring>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/byte_codec.h"
#include "gtest/gtest.h"
#include "tests/common/hex_util.h"

namespace rfidcep::server {
namespace {

std::vector<events::Observation> SampleBatch() {
  return {{"r1", "o1", 1000}, {"dock-reader", "pallet-42", 2000},
          {"", "", 0}};  // Empty EPCs are legal on the wire.
}

// A representative client stream: hello-free frame sequence.
std::string SampleStream() {
  std::string stream;
  stream += EncodeBatch(SampleBatch());
  stream += EncodeAdvance(5000);
  stream += EncodeFrame(FrameType::kStats, "");
  stream += EncodeFrame(FrameType::kFlush, "");
  return stream;
}

// Feeds `stream` to a fresh reader and drains it.
struct DrainResult {
  std::vector<Frame> frames;
  DecodeResult last = DecodeResult::kNeedMore;
  std::string error;
};

DrainResult Drain(std::string_view stream) {
  FrameReader reader;
  reader.Feed(stream);
  DrainResult result;
  Frame frame;
  for (;;) {
    result.last = reader.Next(&frame);
    if (result.last != DecodeResult::kItem) break;
    result.frames.push_back(frame);
  }
  result.error = reader.error();
  return result;
}

TEST(ProtocolTest, BatchRoundTrip) {
  const std::vector<events::Observation> batch = SampleBatch();
  const std::string encoded = EncodeBatch(batch);

  DrainResult result = Drain(encoded);
  ASSERT_EQ(result.frames.size(), 1u);
  EXPECT_EQ(result.last, DecodeResult::kNeedMore);
  EXPECT_EQ(result.frames[0].type, FrameType::kBatch);

  std::vector<events::Observation> decoded;
  ASSERT_TRUE(DecodeBatch(result.frames[0].body, &decoded).ok());
  EXPECT_EQ(decoded, batch);
}

TEST(ProtocolTest, ControlFrameRoundTrips) {
  DrainResult result = Drain(SampleStream());
  ASSERT_EQ(result.frames.size(), 4u);
  EXPECT_EQ(result.last, DecodeResult::kNeedMore);
  EXPECT_EQ(result.error, "");

  TimePoint t = 0;
  ASSERT_TRUE(DecodeAdvance(result.frames[1].body, &t).ok());
  EXPECT_EQ(t, 5000);
  EXPECT_EQ(result.frames[2].type, FrameType::kStats);
  EXPECT_EQ(result.frames[3].type, FrameType::kFlush);
}

TEST(ProtocolTest, AckErrorAndStatsReplyRoundTrip) {
  DrainResult ack = Drain(EncodeAck(41));
  ASSERT_EQ(ack.frames.size(), 1u);
  uint64_t seq = 0;
  ASSERT_TRUE(DecodeAck(ack.frames[0].body, &seq).ok());
  EXPECT_EQ(seq, 41u);

  DrainResult err = Drain(EncodeError(Status::InvalidArgument("bad batch")));
  ASSERT_EQ(err.frames.size(), 1u);
  ASSERT_EQ(err.frames[0].type, FrameType::kError);
  Status decoded_status = Status::Ok();
  ASSERT_TRUE(DecodeError(err.frames[0].body, &decoded_status).ok());
  EXPECT_EQ(decoded_status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(decoded_status.message(), "bad batch");

  StatsReply stats;
  stats.observations = 7;
  stats.matches = 5;
  stats.rules_fired = 3;
  stats.sql_actions = 2;
  stats.procedures = 1;
  stats.fired = {{"shoplifting", 2}, {"misplaced inventory", 1}};
  DrainResult reply = Drain(EncodeStatsReply(stats));
  ASSERT_EQ(reply.frames.size(), 1u);
  StatsReply decoded;
  ASSERT_TRUE(DecodeStatsReply(reply.frames[0].body, &decoded).ok());
  EXPECT_EQ(decoded.observations, 7u);
  EXPECT_EQ(decoded.matches, 5u);
  EXPECT_EQ(decoded.rules_fired, 3u);
  EXPECT_EQ(decoded.sql_actions, 2u);
  EXPECT_EQ(decoded.procedures, 1u);
  EXPECT_EQ(decoded.fired, stats.fired);
}

// The wire format, pinned: a hello and one frame of every type. Encoding
// must produce exactly these bytes, and these bytes must decode back.
TEST(ProtocolTest, EncodingsMatchGoldenVectors) {
  StatsReply stats;
  stats.observations = 7;
  stats.matches = 5;
  stats.rules_fired = 3;
  stats.sql_actions = 2;
  stats.procedures = 1;
  stats.fired = {{"shoplifting", 2}, {"misplaced inventory", 1}};
  constexpr std::string_view kGoldenHello =
      "5243455001000b0077617265686f7573652d37";
  const std::pair<std::string, std::string_view> frames[] = {
      {EncodeBatch(SampleBatch()),
       "410000003c93870c01030000000200723102006f31e8030000000000000b0064"
       "6f636b2d726561646572090070616c6c65742d3432d007000000000000000000"
       "000000000000000000"},
      {EncodeAdvance(5000),
       "090000001424171e028813000000000000"},
      {EncodeFrame(FrameType::kFlush, ""),
       "0100000037be0b4b03"},
      {EncodeFrame(FrameType::kStats, ""),
       "01000000942b6fd504"},
      {EncodeFrame(FrameType::kCheckpoint, ""),
       "01000000021b68a205"},
      {EncodeFrame(FrameType::kPing, ""),
       "01000000b84a613b06"},
      {EncodeAck(41),
       "090000009c6d6566802900000000000000"},
      {EncodeError(Status::InvalidArgument("bad batch")),
       "12000000889fb90e810100000009000000626164206261746368"},
      {EncodeStatsReply(stats),
       "5f000000e886238c820700000000000000050000000000000003000000000000"
       "0002000000000000000100000000000000020000000b0073686f706c69667469"
       "6e67020000000000000013006d6973706c6163656420696e76656e746f727901"
       "00000000000000"},
  };
  EXPECT_EQ(ToHex(EncodeHello("warehouse-7")), kGoldenHello);
  std::string golden_stream;
  for (const auto& [encoded, golden] : frames) {
    EXPECT_EQ(ToHex(encoded), golden);
    golden_stream += FromHex(golden);
  }

  Hello decoded_hello;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(DecodeHello(FromHex(kGoldenHello), &decoded_hello, &consumed,
                        &error),
            DecodeResult::kItem);
  EXPECT_EQ(decoded_hello.tenant, "warehouse-7");

  DrainResult result = Drain(golden_stream);
  ASSERT_EQ(result.frames.size(), std::size(frames));
  EXPECT_EQ(result.error, "");
  const FrameType types[] = {
      FrameType::kBatch, FrameType::kAdvance,    FrameType::kFlush,
      FrameType::kStats, FrameType::kCheckpoint, FrameType::kPing,
      FrameType::kAck,   FrameType::kError,      FrameType::kStatsReply};
  for (size_t i = 0; i < std::size(types); ++i) {
    EXPECT_EQ(result.frames[i].type, types[i]) << i;
  }
  std::vector<events::Observation> batch;
  ASSERT_TRUE(DecodeBatch(result.frames[0].body, &batch).ok());
  EXPECT_EQ(batch, SampleBatch());
  TimePoint t = 0;
  ASSERT_TRUE(DecodeAdvance(result.frames[1].body, &t).ok());
  EXPECT_EQ(t, 5000);
  uint64_t seq = 0;
  ASSERT_TRUE(DecodeAck(result.frames[6].body, &seq).ok());
  EXPECT_EQ(seq, 41u);
  Status status = Status::Ok();
  ASSERT_TRUE(DecodeError(result.frames[7].body, &status).ok());
  EXPECT_EQ(status.message(), "bad batch");
  StatsReply decoded;
  ASSERT_TRUE(DecodeStatsReply(result.frames[8].body, &decoded).ok());
  EXPECT_EQ(decoded.fired, stats.fired);
}

TEST(ProtocolTest, IncrementalFeedByteAtATime) {
  const std::string stream = SampleStream();
  FrameReader reader;
  std::vector<Frame> frames;
  Frame frame;
  for (char byte : stream) {
    reader.Feed(std::string_view(&byte, 1));
    while (reader.Next(&frame) == DecodeResult::kItem) frames.push_back(frame);
    EXPECT_EQ(reader.error(), "");
  }
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames[0].type, FrameType::kBatch);
  EXPECT_EQ(frames[3].type, FrameType::kFlush);
}

// Truncating a valid stream at every byte boundary must yield only
// complete leading frames plus kNeedMore — never an error, never a
// partial frame, never a crash (peer close mid-frame is routine).
TEST(ProtocolTest, EveryTruncationPointIsCleanNeedMore) {
  const std::string stream = SampleStream();
  // Frame boundaries, for computing how many full frames survive.
  std::vector<size_t> boundaries;
  for (size_t pos = 0; pos < stream.size();) {
    uint32_t len = 0;
    std::memcpy(&len, stream.data() + pos, sizeof(len));
    pos += kFrameHeaderBytes + len;
    boundaries.push_back(pos);
  }

  for (size_t cut = 0; cut <= stream.size(); ++cut) {
    DrainResult result = Drain(stream.substr(0, cut));
    size_t expect_frames = 0;
    for (size_t boundary : boundaries) {
      if (boundary <= cut) ++expect_frames;
    }
    EXPECT_EQ(result.frames.size(), expect_frames) << "cut at " << cut;
    EXPECT_EQ(result.last, DecodeResult::kNeedMore) << "cut at " << cut;
    EXPECT_EQ(result.error, "") << "cut at " << cut;
  }
}

// Flipping any payload byte must be caught by the CRC; flipping header
// bytes is caught by the CRC or the length/type checks. In every case
// the reader latches kError with a message and stays failed.
TEST(ProtocolTest, EveryByteCorruptionIsDetected) {
  const std::string stream = EncodeBatch(SampleBatch());
  for (size_t i = 0; i < stream.size(); ++i) {
    for (int bit = 0; bit < 8; bit += 7) {  // Low and high bit of each byte.
      std::string corrupt = stream;
      corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << bit));
      FrameReader reader;
      reader.Feed(corrupt);
      Frame frame;
      DecodeResult r = reader.Next(&frame);
      // A corrupted length can only make the frame longer or shorter;
      // shorter-than-buffer lengths must fail CRC, longer ones are
      // kNeedMore (indistinguishable from truncation) or the size cap.
      if (r == DecodeResult::kItem) {
        ADD_FAILURE() << "undetected corruption at byte " << i << " bit "
                      << bit;
        continue;
      }
      if (r == DecodeResult::kError) {
        EXPECT_NE(reader.error(), "") << "byte " << i;
        // Latched: identical error on retry, no crash.
        EXPECT_EQ(reader.Next(&frame), DecodeResult::kError);
      }
    }
  }
}

TEST(ProtocolTest, OversizedFrameIsRejectedBeforeAllocation) {
  std::string header;
  const uint32_t huge = kMaxFrameBytes + 1;
  header.append(reinterpret_cast<const char*>(&huge), sizeof(huge));
  header.append(4, '\0');  // CRC never inspected.
  FrameReader reader;
  reader.Feed(header);
  Frame frame;
  EXPECT_EQ(reader.Next(&frame), DecodeResult::kError);
  EXPECT_NE(reader.error().find("oversized"), std::string::npos);
}

TEST(ProtocolTest, UnknownFrameTypeIsRejected) {
  std::string payload = "\x7f";  // No such type.
  std::string raw;
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t crc = common::Crc32(payload.data(), payload.size());
  raw.append(reinterpret_cast<const char*>(&len), sizeof(len));
  raw.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  raw += payload;
  FrameReader reader;
  reader.Feed(raw);
  Frame frame;
  EXPECT_EQ(reader.Next(&frame), DecodeResult::kError);
  EXPECT_NE(reader.error().find("unknown frame type"), std::string::npos);
}

TEST(ProtocolTest, ZeroLengthPayloadIsRejected) {
  // Even an "empty" frame carries its type byte; length 0 is corruption.
  std::string raw(kFrameHeaderBytes, '\0');
  FrameReader reader;
  reader.Feed(raw);
  Frame frame;
  EXPECT_EQ(reader.Next(&frame), DecodeResult::kError);
}

TEST(ProtocolTest, BatchBodyDecodeRejectsDamage) {
  const std::string good = EncodeBatch(SampleBatch());
  DrainResult result = Drain(good);
  ASSERT_EQ(result.frames.size(), 1u);
  const std::string body = result.frames[0].body;

  std::vector<events::Observation> out;
  // Truncating the (CRC-valid) body at every point must error, not read
  // out of bounds: DecodeBatch guards independently of framing.
  for (size_t cut = 0; cut < body.size(); ++cut) {
    EXPECT_FALSE(DecodeBatch(body.substr(0, cut), &out).ok())
        << "cut at " << cut;
  }
  // An absurd count with a tiny body must be rejected without allocating.
  std::string tiny;
  const uint32_t count = 0xFFFFFFFFu;
  tiny.append(reinterpret_cast<const char*>(&count), sizeof(count));
  EXPECT_FALSE(DecodeBatch(tiny, &out).ok());
  // Trailing garbage after the last observation is also corruption.
  EXPECT_FALSE(DecodeBatch(body + "x", &out).ok());
}

TEST(ProtocolTest, HelloRoundTripAndErrors) {
  Hello hello;
  size_t consumed = 0;
  std::string error;

  const std::string good = EncodeHello("warehouse-7");
  EXPECT_EQ(DecodeHello(good, &hello, &consumed, &error), DecodeResult::kItem);
  EXPECT_EQ(hello.version, kProtocolVersion);
  EXPECT_EQ(hello.tenant, "warehouse-7");
  EXPECT_EQ(consumed, good.size());

  // Truncation at every point: kNeedMore, never error.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    error.clear();
    EXPECT_EQ(DecodeHello(good.substr(0, cut), &hello, &consumed, &error),
              DecodeResult::kNeedMore)
        << "cut at " << cut;
    EXPECT_EQ(error, "") << "cut at " << cut;
  }

  // Wrong magic (e.g. an HTTP client hitting the wrong port).
  error.clear();
  EXPECT_EQ(DecodeHello("GET / HTTP/1.1\r\n", &hello, &consumed, &error),
            DecodeResult::kError);
  EXPECT_NE(error.find("magic"), std::string::npos);

  // Future protocol version.
  std::string future = good;
  future[4] = 2;
  error.clear();
  EXPECT_EQ(DecodeHello(future, &hello, &consumed, &error),
            DecodeResult::kError);

  // Empty and oversized tenant names.
  error.clear();
  EXPECT_EQ(DecodeHello(EncodeHello(""), &hello, &consumed, &error),
            DecodeResult::kError);
  error.clear();
  EXPECT_EQ(DecodeHello(EncodeHello(std::string(kMaxTenantNameBytes + 1, 't')),
                        &hello, &consumed, &error),
            DecodeResult::kError);
}

}  // namespace
}  // namespace rfidcep::server
