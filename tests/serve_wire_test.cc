#include "serve/wire.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

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

bool Equal(const core::MailDelivery& a, const core::MailDelivery& b) {
  return a.recipient == b.recipient && SameFloats(a.mail, b.mail) &&
         SameBits(a.timestamp, b.timestamp) &&
         a.contributions == b.contributions;
}

bool Equal(const ShardPartial& a, const ShardPartial& b) {
  if (a.batch != b.batch || a.from_shard != b.from_shard ||
      a.state_updates.size() != b.state_updates.size() ||
      a.hop0.size() != b.hop0.size() || a.partial.size() != b.partial.size()) {
    return false;
  }
  for (size_t i = 0; i < a.state_updates.size(); ++i) {
    const StateUpdate& u = a.state_updates[i];
    const StateUpdate& v = b.state_updates[i];
    if (u.sequence != v.sequence || u.node != v.node || !SameFloats(u.z, v.z)) {
      return false;
    }
  }
  for (size_t i = 0; i < a.hop0.size(); ++i) {
    if (a.hop0[i].sequence != b.hop0[i].sequence ||
        !Equal(a.hop0[i].delivery, b.hop0[i].delivery)) {
      return false;
    }
  }
  for (size_t i = 0; i < a.partial.size(); ++i) {
    const core::PartialPropagation::PartialReduce& p = a.partial[i];
    const core::PartialPropagation::PartialReduce& q = b.partial[i];
    if (p.recipient != q.recipient || !SameFloats(p.sum, q.sum) ||
        !SameBits(p.newest, q.newest) || p.count != q.count) {
      return false;
    }
  }
  return true;
}

void ExpectRoundTrip(const ShardPartial& message) {
  const std::vector<uint8_t> payload = wire::EncodeMessage(message);
  Result<ShardPartial> decoded = wire::DecodeMessage(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(Equal(message, *decoded));
}

// ---- Exemplar messages (edge values included) ------------------------------

ShardPartial MakePartial() {
  ShardPartial m;
  m.batch = 41;
  m.from_shard = 3;
  // Negative timestamps, empty mail payloads, zero-length z, NaN and -0.0
  // are all representable states the wire must carry bitwise.
  m.state_updates.push_back({0, 7, {1.0f, -2.5f, 0.0f}});
  m.state_updates.push_back({std::numeric_limits<int64_t>::max(), 0, {}});
  core::PartialPropagation::TaggedDelivery hop0;
  hop0.sequence = 5;
  hop0.delivery = {11, {}, -123.5, 1};  // empty mail payload, negative time
  m.hop0.push_back(hop0);
  hop0.sequence = 6;
  hop0.delivery = {12,
                   {std::numeric_limits<float>::quiet_NaN(), -0.0f},
                   std::numeric_limits<double>::infinity(),
                   2};
  m.hop0.push_back(hop0);
  core::PartialPropagation::PartialReduce reduce;
  reduce.recipient = 9;
  reduce.sum = {0.25f, 0.75f};
  reduce.newest = -0.0;
  reduce.count = 3;
  m.partial.push_back(reduce);
  return m;
}

/// The extremes of every fixed-width field, with only reductions set.
ShardPartial MakeExtremePartial() {
  ShardPartial m;
  m.batch = std::numeric_limits<int64_t>::max();
  m.from_shard = std::numeric_limits<int>::max();
  core::PartialPropagation::PartialReduce reduce;
  reduce.recipient = std::numeric_limits<int64_t>::min();
  reduce.sum = {std::numeric_limits<float>::denorm_min(),
                -std::numeric_limits<float>::infinity()};
  reduce.newest = std::numeric_limits<double>::lowest();
  reduce.count = std::numeric_limits<int64_t>::max();
  m.partial.push_back(reduce);
  m.partial.push_back({0, {}, 0.0, 0});
  return m;
}

std::vector<ShardPartial> Exemplars() {
  std::vector<ShardPartial> out;
  out.push_back(MakePartial());
  out.push_back(ShardPartial{});  // all-empty partial (the batch sentinel)
  out.push_back(MakeExtremePartial());
  return out;
}

// ---- Round trips -----------------------------------------------------------

TEST(WireTest, RoundTripsEveryExemplar) {
  for (const ShardPartial& message : Exemplars()) {
    ExpectRoundTrip(message);
  }
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

TEST(WireTest, CorruptCountRejectedBeforeAllocation) {
  // A partial whose state_updates count claims 2^61 entries: the decoder
  // must reject against the bytes remaining, not try to resize.
  std::vector<uint8_t> payload = wire::EncodeMessage(ShardPartial{});
  // Layout: kind(1) + batch(8) + from_shard(4) + state_updates count(8).
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
