#include "serve/wire.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>

#include "serve/codec.h"
#include "util/random.h"

namespace apan {
namespace serve {
namespace {

bool Equal(const ShardPartial& a, const ShardPartial& b) {
  return a.batch == b.batch && a.from_shard == b.from_shard &&
         a.hops.offset == b.hops.offset && a.hops.node == b.hops.node;
}

void ExpectRoundTrip(const ShardPartial& message) {
  const std::vector<uint8_t> payload = wire::EncodeMessage(message);
  Result<ShardPartial> decoded = wire::DecodeMessage(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(Equal(message, *decoded));
}

// ---- Exemplar messages (edge values included) ------------------------------

/// Three events: the first reaches two nodes (the int64 extremes'
/// minimum and 9), the second none, the third the int64 maximum.
ShardPartial MakePartial() {
  ShardPartial m;
  m.batch = 41;
  m.from_shard = 3;
  m.hops.offset = {0, 2, 2, 3};
  m.hops.node = {std::numeric_limits<int64_t>::min(), 9,
                 std::numeric_limits<int64_t>::max()};
  return m;
}

/// The extremes of the fixed-width fields, over a batch whose events
/// reach no node of the recipient.
ShardPartial MakeExtremePartial() {
  ShardPartial m;
  m.batch = std::numeric_limits<int64_t>::max();
  m.from_shard = std::numeric_limits<int>::max();
  m.hops.offset = {0, 0, 0};
  return m;
}

/// A zero-event list: one offset, no nodes.
ShardPartial MakeZeroEventPartial() {
  ShardPartial m;
  m.batch = -1;
  m.hops.offset = {0};
  return m;
}

std::vector<ShardPartial> Exemplars() {
  std::vector<ShardPartial> out;
  out.push_back(MakePartial());
  out.push_back(ShardPartial{});  // the empty list (the batch sentinel)
  out.push_back(MakeExtremePartial());
  out.push_back(MakeZeroEventPartial());
  return out;
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (const uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 15]);
  }
  return out;
}

// ---- Round trips -----------------------------------------------------------

TEST(WireTest, RoundTripsEveryExemplar) {
  for (const ShardPartial& message : Exemplars()) {
    ExpectRoundTrip(message);
  }
}

// MakePartial's frame, written by hand from the grammar in wire.h, field
// by field, little-endian.
constexpr char kMakePartialGolden[] =
    "45000000"          // u32 payload length: 69
    "01"                // u8 kind 1
    "2900000000000000"  // i64 batch 41
    "03000000"          // i32 from_shard 3
    "0400000000000000"  // u64 offsets: 4
    "00000000"          // u32 offset 0
    "02000000"          // u32 offset 2
    "02000000"          // u32 offset 2
    "03000000"          // u32 offset 3
    "0300000000000000"  // u64 nodes: 3
    "0000000000000080"  // i64 node INT64_MIN
    "0900000000000000"  // i64 node 9
    "ffffffffffffff7f"  // i64 node INT64_MAX
    ;

TEST(WireTest, GoldenFrameFollowsTheGrammar) {
  std::vector<uint8_t> frame;
  wire::AppendFrame(MakePartial(), &frame);
  EXPECT_EQ(frame.size(), 73u);
  EXPECT_EQ(Hex(frame), kMakePartialGolden);
}

TEST(WireTest, FrameRoundTrip) {
  std::vector<uint8_t> stream;
  const std::vector<ShardPartial> messages = Exemplars();
  for (const ShardPartial& message : messages) {
    wire::AppendFrame(message, &stream);
  }
  // Replay the stream the way a socket reader does: header, payload,
  // repeat; the frames must reproduce the messages in order.
  size_t pos = 0;
  for (const ShardPartial& expected : messages) {
    ASSERT_GE(stream.size() - pos, wire::kFrameHeaderBytes);
    Result<uint32_t> length = wire::DecodeFrameLength(
        std::span<const uint8_t, wire::kFrameHeaderBytes>(
            stream.data() + pos, wire::kFrameHeaderBytes));
    ASSERT_TRUE(length.ok()) << length.status();
    pos += wire::kFrameHeaderBytes;
    ASSERT_GE(stream.size() - pos, *length);
    Result<ShardPartial> decoded = wire::DecodeMessage(
        std::span<const uint8_t>(stream.data() + pos, *length));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_TRUE(Equal(expected, *decoded));
    pos += *length;
  }
  EXPECT_EQ(pos, stream.size());
}

// ---- Malformed input -------------------------------------------------------

TEST(WireTest, EveryTruncationFailsCleanly) {
  for (const ShardPartial& message : Exemplars()) {
    const std::vector<uint8_t> payload = wire::EncodeMessage(message);
    for (size_t cut = 0; cut < payload.size(); ++cut) {
      Result<ShardPartial> decoded = wire::DecodeMessage(
          std::span<const uint8_t>(payload.data(), cut));
      EXPECT_FALSE(decoded.ok())
          << "prefix of " << cut << "/" << payload.size()
          << " bytes decoded as a full message";
    }
  }
}

TEST(WireTest, TrailingBytesRejected) {
  std::vector<uint8_t> payload = wire::EncodeMessage(MakePartial());
  payload.push_back(0);
  EXPECT_FALSE(wire::DecodeMessage(payload).ok());
}

TEST(WireTest, UnknownKindRejected) {
  std::vector<uint8_t> payload = {0xEE};
  EXPECT_FALSE(wire::DecodeMessage(payload).ok());
  EXPECT_FALSE(wire::DecodeMessage({}).ok());
  // Retired kinds stay unknown: 2 and 3 (the frontier request/response)
  // and 4 (a coalesced batch, here a well-formed one-element envelope).
  for (const uint8_t retired : {uint8_t{2}, uint8_t{3}}) {
    std::vector<uint8_t> body = wire::EncodeMessage(MakePartial());
    body[0] = retired;
    EXPECT_FALSE(wire::DecodeMessage(body).ok()) << int{retired};
  }
  const std::vector<uint8_t> inner = wire::EncodeMessage(MakePartial());
  std::vector<uint8_t> batch = {4, 1, 0, 0, 0, 0, 0, 0, 0};
  for (int shift = 0; shift < 32; shift += 8) {
    batch.push_back(static_cast<uint8_t>(inner.size() >> shift));
  }
  batch.insert(batch.end(), inner.begin(), inner.end());
  EXPECT_FALSE(wire::DecodeMessage(batch).ok());
}

/// A kind-1 payload carrying `offsets` and then a node count of
/// `node_count` followed by `node_count` nodes, hand-written because the
/// encoder refuses a malformed list.
std::vector<uint8_t> HopPayload(const std::vector<uint32_t>& offsets,
                                uint64_t node_count) {
  std::vector<uint8_t> out = {1};
  codec::PutI64(&out, 0);  // batch
  codec::PutI32(&out, 0);  // from_shard
  codec::PutVec<uint32_t>(&out, offsets);
  codec::PutU64(&out, node_count);
  for (uint64_t i = 0; i < node_count; ++i) {
    codec::PutI64(&out, static_cast<int64_t>(i));
  }
  return out;
}

TEST(WireTest, NonMonotoneOffsetsRejectedNamingTheField) {
  ASSERT_TRUE(wire::DecodeMessage(HopPayload({0, 2, 2, 3}, 3)).ok());
  for (const std::vector<uint32_t>& offsets :
       {std::vector<uint32_t>{0, 3, 2, 3}, {1, 2, 3}, {0, 3, 3, 2}}) {
    Result<ShardPartial> decoded =
        wire::DecodeMessage(HopPayload(offsets, offsets.back()));
    ASSERT_FALSE(decoded.ok()) << offsets[0] << "," << offsets[1];
    EXPECT_EQ(decoded.status().code(), StatusCode::kIoError);
    EXPECT_NE(decoded.status().message().find(
                  "partial.hops.offset not monotone from 0"),
              std::string::npos)
        << decoded.status();
  }
}

TEST(WireTest, NodeCountMismatchRejectedBeforeAllocation) {
  // The nodes are present in full, so only the offsets can refuse them.
  for (const auto& [offsets, nodes] :
       {std::pair<std::vector<uint32_t>, uint64_t>{{0, 2, 3}, 2},
        {{0, 2, 3}, 4},
        {{}, 1},
        {{0}, 1}}) {
    Result<ShardPartial> decoded =
        wire::DecodeMessage(HopPayload(offsets, nodes));
    ASSERT_FALSE(decoded.ok()) << nodes << " nodes";
    EXPECT_EQ(decoded.status().code(), StatusCode::kIoError);
    EXPECT_NE(decoded.status().message().find("the last offset says"),
              std::string::npos)
        << decoded.status();
  }
  // A node count claiming 2^64 - 1 entries fails on the bytes remaining.
  std::vector<uint8_t> huge = HopPayload({0, 1}, 1);
  // Layout: kind(1) + batch(8) + from_shard(4) + offsets(8 + 2 × 4).
  for (size_t i = 21 + 8; i < 21 + 16; ++i) huge[i] = 0xFF;
  Result<ShardPartial> decoded = wire::DecodeMessage(huge);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find(
                "corrupt count for partial.hops.node"),
            std::string::npos)
      << decoded.status();
}

TEST(WireTest, CorruptCountRejectedBeforeAllocation) {
  // A list whose offset count claims 2^64 - 1 offsets: the decoder must
  // reject against the bytes remaining, not try to resize.
  std::vector<uint8_t> payload = wire::EncodeMessage(ShardPartial{});
  // Layout: kind(1) + batch(8) + from_shard(4) + offset count(8).
  ASSERT_GE(payload.size(), 21u);
  for (size_t i = 13; i < 21; ++i) payload[i] = 0xFF;
  Result<ShardPartial> decoded = wire::DecodeMessage(payload);
  EXPECT_FALSE(decoded.ok());
}

TEST(WireTest, FrameLengthValidation) {
  const uint8_t zero[4] = {0, 0, 0, 0};
  EXPECT_FALSE(
      wire::DecodeFrameLength(std::span<const uint8_t, 4>(zero, 4)).ok());
  const uint8_t huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_FALSE(
      wire::DecodeFrameLength(std::span<const uint8_t, 4>(huge, 4)).ok());
  const uint8_t ok[4] = {1, 0, 0, 0};
  Result<uint32_t> one =
      wire::DecodeFrameLength(std::span<const uint8_t, 4>(ok, 4));
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(*one, 1u);
}

// ---- Fuzz-style mutation loop ----------------------------------------------

TEST(WireTest, MutationFuzz) {
  Rng rng(0x55AA77);
  const std::vector<ShardPartial> exemplars = Exemplars();
  int rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<uint8_t> payload = wire::EncodeMessage(
        exemplars[static_cast<size_t>(rng.UniformInt(
            uint64_t{exemplars.size()}))]);
    // Mutate: flip up to 4 bytes, then maybe truncate or extend.
    const int flips = static_cast<int>(rng.UniformInt(uint64_t{5}));
    for (int f = 0; f < flips && !payload.empty(); ++f) {
      const size_t at =
          static_cast<size_t>(rng.UniformInt(uint64_t{payload.size()}));
      payload[at] = static_cast<uint8_t>(rng.Next());
    }
    if (rng.Bernoulli(0.3) && !payload.empty()) {
      payload.resize(
          static_cast<size_t>(rng.UniformInt(uint64_t{payload.size()})));
    } else if (rng.Bernoulli(0.2)) {
      payload.push_back(static_cast<uint8_t>(rng.Next()));
    }
    // The only acceptable outcomes: a clean Status error or a valid
    // decode (a mutation can land on a don't-care byte). Crashing or
    // hanging is the bug this test exists to catch.
    Result<ShardPartial> decoded = wire::DecodeMessage(payload);
    rejected += decoded.ok() ? 0 : 1;
  }
  // Random mutation overwhelmingly corrupts structure; if nearly
  // everything decoded the checks are not actually running.
  EXPECT_GT(rejected, 1000);
}

TEST(WireTest, RandomGarbageNeverCrashes) {
  Rng rng(0xBADF00D);
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<uint8_t> garbage(
        static_cast<size_t>(rng.UniformInt(uint64_t{257})));
    for (auto& b : garbage) b = static_cast<uint8_t>(rng.Next());
    (void)wire::DecodeMessage(garbage);  // must return, cleanly, every time
  }
}

}  // namespace
}  // namespace serve
}  // namespace apan
