#include "serve/wire.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "serve/codec.h"
#include "util/random.h"

namespace apan {
namespace serve {
namespace {

// ---- Bitwise equality helpers ----------------------------------------------
// Doubles are compared through their bit patterns so that NaN payloads and
// negative zero count as round-trip-preserved, not as mismatches.

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameBits(float a, float b) {
  return std::bit_cast<uint32_t>(a) == std::bit_cast<uint32_t>(b);
}

bool SameFloats(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) return false;
  }
  return true;
}

bool Equal(const core::RowBlock& a, const core::RowBlock& b) {
  if (a.size() != b.size() || (!a.empty() && a.width != b.width) ||
      a.node != b.node || a.count != b.count ||
      a.timestamp.size() != b.timestamp.size() ||
      !SameFloats(a.rows, b.rows)) {
    return false;
  }
  for (size_t i = 0; i < a.timestamp.size(); ++i) {
    if (!SameBits(a.timestamp[i], b.timestamp[i])) return false;
  }
  return true;
}

bool Equal(const ShardPartial& a, const ShardPartial& b) {
  return a.batch == b.batch && a.from_shard == b.from_shard &&
         Equal(a.partial, b.partial);
}

void ExpectRoundTrip(const ShardPartial& message) {
  const std::vector<uint8_t> payload = wire::EncodeMessage(message);
  Result<ShardPartial> decoded = wire::DecodeMessage(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(Equal(message, *decoded));
}

// ---- Row builder ------------------------------------------------------------
// Appends one ρ row; the block's width is its rows'.

void AddPartial(ShardPartial* m, graph::NodeId recipient,
                std::vector<float> sum, double newest, int64_t count) {
  core::RowBlock& b = m->partial;
  b.width = static_cast<int64_t>(sum.size());
  b.node.push_back(recipient);
  b.timestamp.push_back(newest);
  b.count.push_back(count);
  b.rows.insert(b.rows.end(), sum.begin(), sum.end());
}

// ---- Exemplar messages (edge values included) ------------------------------

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kDenorm = std::numeric_limits<float>::denorm_min();

/// A NaN with a non-default payload: the wire must carry its exact bits.
float PayloadNaN() { return std::bit_cast<float>(0x7fc00123u); }

/// Two rows with -0.0, a denormal, int64 extremes and extreme
/// timestamps.
ShardPartial MakePartial() {
  ShardPartial m;
  m.batch = 41;
  m.from_shard = 3;
  AddPartial(&m, std::numeric_limits<int64_t>::min(), {0.25f, 0.75f}, -0.0,
             3);
  AddPartial(&m, 9, {kDenorm, -1.0f}, std::numeric_limits<double>::lowest(),
             std::numeric_limits<int64_t>::max());
  return m;
}

/// The extremes of every fixed-width field, and float rows holding both
/// infinities and a NaN with a non-default payload.
ShardPartial MakeExtremePartial() {
  ShardPartial m;
  m.batch = std::numeric_limits<int64_t>::max();
  m.from_shard = std::numeric_limits<int>::max();
  AddPartial(&m, std::numeric_limits<int64_t>::min(), {kDenorm, -kInf},
             std::numeric_limits<double>::lowest(),
             std::numeric_limits<int64_t>::max());
  AddPartial(&m, 0, {0.0f, 0.0f}, 0.0, 0);
  AddPartial(&m, 7, {PayloadNaN(), kInf}, 1.5, 2);
  return m;
}

/// Zero-width rows: index columns only, with NaN and infinite times.
ShardPartial MakeZeroWidthPartial() {
  ShardPartial m;
  m.batch = -1;
  AddPartial(&m, 3, {}, std::numeric_limits<double>::quiet_NaN(), 1);
  AddPartial(&m, 5, {}, -std::numeric_limits<double>::infinity(), 2);
  return m;
}

std::vector<ShardPartial> Exemplars() {
  std::vector<ShardPartial> out;
  out.push_back(MakePartial());
  out.push_back(ShardPartial{});  // all-empty partial (the batch sentinel)
  out.push_back(MakeExtremePartial());
  out.push_back(MakeZeroWidthPartial());
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

// MakePartial's payload: kind 1, batch 41, from_shard 3, then the
// partial section. The section's bytes (from the row count on) are the
// partial section of the three-section kind-1 golden this layout
// replaced, byte for byte: only the state and hop0 sections went.
constexpr char kMakePartialGolden[] =
    "0129000000000000000300000002000000000000000000000000000080020000000000"
    "00000000803e0000403f00000000000000800300000000000000090000000000000002"
    "0000000000000001000000000080bfffffffffffffefffffffffffffffff7f";

TEST(WireTest, PartialSectionEncodesAsBefore) {
  const std::vector<uint8_t> payload = wire::EncodeMessage(MakePartial());
  EXPECT_EQ(payload.size(), 101u);
  EXPECT_EQ(Hex(payload), kMakePartialGolden);
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

/// A kind-1 payload whose partial section holds two rows of the given
/// widths, hand-written because the encoder refuses a ragged block.
std::vector<uint8_t> TwoRows(uint64_t first_width, uint64_t second_width) {
  std::vector<uint8_t> out = {1};
  codec::PutI64(&out, 0);  // batch
  codec::PutI32(&out, 0);  // from_shard
  codec::PutU64(&out, 2);
  for (int64_t row = 0; row < 2; ++row) {
    codec::PutI64(&out, 7 + row);  // recipient
    const uint64_t width = row == 0 ? first_width : second_width;
    codec::PutU64(&out, width);
    for (uint64_t i = 0; i < width; ++i) codec::PutF32(&out, 1.0f);
    codec::PutF64(&out, 0.0);  // newest
    codec::PutI64(&out, 1);    // count
  }
  return out;
}

TEST(WireTest, RaggedRowsRejectedNamingTheField) {
  ASSERT_TRUE(wire::DecodeMessage(TwoRows(2, 2)).ok());
  for (const auto& [first, second] :
       {std::pair<uint64_t, uint64_t>{2, 3}, {3, 2}, {0, 1}, {1, 0}}) {
    Result<ShardPartial> decoded = wire::DecodeMessage(TwoRows(first, second));
    ASSERT_FALSE(decoded.ok()) << first << " then " << second;
    EXPECT_EQ(decoded.status().code(), StatusCode::kIoError);
    EXPECT_NE(decoded.status().message().find("ragged reduce.sum"),
              std::string::npos)
        << decoded.status();
  }
}

TEST(WireTest, OutOfOrderRunsRejectedNamingTheField) {
  ShardPartial repeated;  // a recipient twice in one run
  AddPartial(&repeated, 9, {1.0f}, 0.0, 1);
  AddPartial(&repeated, 9, {2.0f}, 0.0, 1);
  ShardPartial descending;
  AddPartial(&descending, 9, {1.0f}, 0.0, 1);
  AddPartial(&descending, 4, {2.0f}, 0.0, 1);
  for (const ShardPartial& m : {repeated, descending}) {
    Result<ShardPartial> decoded =
        wire::DecodeMessage(wire::EncodeMessage(m));
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kIoError);
    EXPECT_NE(
        decoded.status().message().find("reduce.recipient not ascending"),
        std::string::npos)
        << decoded.status();
  }
}

TEST(WireTest, CorruptCountRejectedBeforeAllocation) {
  // A partial whose row count claims 2^64 - 1 rows: the decoder must
  // reject against the bytes remaining, not try to resize.
  std::vector<uint8_t> payload = wire::EncodeMessage(ShardPartial{});
  // Layout: kind(1) + batch(8) + from_shard(4) + row count(8).
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
