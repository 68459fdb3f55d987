// The little-endian codec shared by serve/wire.h and serve/snapshot.h.
// The format-level suites (serve_wire_test, serve_snapshot_test) fuzz it
// through whole frames and images; this suite pins the pieces they cannot
// reach directly — above all the exact ReadCount cap, which decides
// whether a count is checked against the bytes left before allocation.

#include "serve/codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "serve/snapshot.h"
#include "serve/wire.h"

namespace apan {
namespace serve {
namespace codec {
namespace {

/// A u64 count followed by `body_bytes` zero bytes.
std::vector<uint8_t> CountThenBody(uint64_t count, size_t body_bytes) {
  std::vector<uint8_t> bytes;
  PutU64(&bytes, count);
  bytes.resize(bytes.size() + body_bytes, 0);
  return bytes;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

TEST(CodecTest, WritersAreLittleEndian) {
  std::vector<uint8_t> out;
  PutU8(&out, 0xAB);
  PutU32(&out, 0x01020304u);
  PutU64(&out, 0x0102030405060708ull);
  const std::vector<uint8_t> expected = {0xAB, 0x04, 0x03, 0x02, 0x01,
                                         0x08, 0x07, 0x06, 0x05, 0x04,
                                         0x03, 0x02, 0x01};
  EXPECT_EQ(out, expected);
}

// ---- ReadCount: the count-before-allocation boundary -----------------------

TEST(CodecTest, ReadCountAcceptsExactlyRemainingOverMinBytes) {
  // 12 bytes follow the count; at 4 bytes per element the cap is 3.
  const std::vector<uint8_t> bytes = CountThenBody(3, 12);
  Reader r(bytes, "test");
  uint64_t count = 0;
  ASSERT_TRUE(r.ReadCount(&count, 4, "elements").ok());
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(r.remaining(), 12u);
}

TEST(CodecTest, ReadCountRejectsOneMore) {
  const std::vector<uint8_t> bytes = CountThenBody(4, 12);
  Reader r(bytes, "test");
  uint64_t count = 0;
  const Status st = r.ReadCount(&count, 4, "elements");
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_EQ(st.message(),
            "test: corrupt count for elements (4 elements, 12 bytes left)");
}

TEST(CodecTest, ReadCountCapRoundsDown) {
  // 13 bytes cannot hold a fourth 4-byte element: the cap is still 3.
  uint64_t count = 0;
  const std::vector<uint8_t> fits = CountThenBody(3, 13);
  EXPECT_TRUE(Reader(fits, "test").ReadCount(&count, 4, "elements").ok());
  const std::vector<uint8_t> over = CountThenBody(4, 13);
  EXPECT_FALSE(Reader(over, "test").ReadCount(&count, 4, "elements").ok());
}

TEST(CodecTest, ReadCountWithZeroMinBytesCapsAtRemaining) {
  uint64_t count = 0;
  const std::vector<uint8_t> fits = CountThenBody(5, 5);
  EXPECT_TRUE(Reader(fits, "test").ReadCount(&count, 0, "elements").ok());
  EXPECT_EQ(count, 5u);
  const std::vector<uint8_t> over = CountThenBody(6, 5);
  EXPECT_FALSE(Reader(over, "test").ReadCount(&count, 0, "elements").ok());
  const std::vector<uint8_t> empty = CountThenBody(0, 0);
  EXPECT_TRUE(Reader(empty, "test").ReadCount(&count, 0, "elements").ok());
}

TEST(CodecTest, OversizedCountRejectedBeforeAllocation) {
  // A count one past the cap must fail inside ReadCount — before the
  // vector readers resize — so the destination is never grown.
  for (const uint64_t claimed :
       {uint64_t{4}, uint64_t{1} << 61, std::numeric_limits<uint64_t>::max()}) {
    SCOPED_TRACE(testing::Message() << "count " << claimed);
    const std::vector<uint8_t> bytes = CountThenBody(claimed, 12);
    std::vector<float> fv;
    EXPECT_FALSE(Reader(bytes, "test").ReadF32Vec(&fv, "fv").ok());
    EXPECT_EQ(fv.capacity(), 0u);
    std::vector<int32_t> iv;
    EXPECT_FALSE(Reader(bytes, "test").ReadI32Vec(&iv, "iv").ok());
    EXPECT_EQ(iv.capacity(), 0u);
    std::vector<double> dv;
    EXPECT_FALSE(Reader(bytes, "test").ReadF64Vec(&dv, "dv").ok());
    EXPECT_EQ(dv.capacity(), 0u);
  }
  // F64 elements are 8 bytes: 12 bytes hold one, not two.
  std::vector<double> dv;
  const std::vector<uint8_t> one = CountThenBody(1, 8);
  EXPECT_TRUE(Reader(one, "test").ReadF64Vec(&dv, "dv").ok());
  const std::vector<uint8_t> two = CountThenBody(2, 12);
  EXPECT_FALSE(Reader(two, "test").ReadF64Vec(&dv, "dv").ok());
}

// ---- Error prefixes ---------------------------------------------------------

TEST(CodecTest, BothFormatsReportThroughTheirPrefix) {
  // A wire payload cut after its kind byte, and one whose offset count
  // claims 2^64-1 offsets.
  std::vector<uint8_t> frame = wire::EncodeMessage(ShardPartial{});
  Result<ShardPartial> cut =
      wire::DecodeMessage(std::span<const uint8_t>(frame.data(), 1));
  ASSERT_FALSE(cut.ok());
  EXPECT_EQ(cut.status().message(),
            "wire: truncated payload reading partial.batch");
  // Layout: kind(1) + batch(8) + from_shard(4) + offset count(8).
  for (size_t i = 13; i < 21; ++i) frame[i] = 0xFF;
  Result<ShardPartial> huge = wire::DecodeMessage(frame);
  ASSERT_FALSE(huge.ok());
  EXPECT_TRUE(StartsWith(huge.status().message(),
                         "wire: corrupt count for partial.hops.offset"))
      << huge.status().message();

  // A snapshot image whose first plane count is corrupt under a valid
  // CRC, so the payload reader (not the envelope) is what refuses it.
  snapshot::ShardSnapshot snap;
  snap.shard = 0;
  snap.num_shards = 1;
  snap.mailbox_slots = 1;
  snap.dim = 1;
  std::vector<uint8_t> image = snapshot::EncodeShardSnapshot(snap);
  // The first plane's count follows the 48-byte fixed prologue.
  const size_t count_at = snapshot::kHeaderBytes + 48;
  for (size_t i = 0; i < 8; ++i) image[count_at + i] = 0xFF;
  const size_t payload_bytes =
      image.size() - snapshot::kHeaderBytes - snapshot::kTrailerBytes;
  std::vector<uint8_t> crc;
  PutU32(&crc, snapshot::Crc32(std::span<const uint8_t>(
                   image.data() + snapshot::kHeaderBytes, payload_bytes)));
  std::copy(crc.begin(), crc.end(),
            image.end() - static_cast<std::ptrdiff_t>(snapshot::kTrailerBytes));
  Result<snapshot::ShardSnapshot> decoded =
      snapshot::DecodeShardSnapshot(image);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(StartsWith(decoded.status().message(),
                         "snapshot: corrupt count for mail_count"))
      << decoded.status().message();
}

}  // namespace
}  // namespace codec
}  // namespace serve
}  // namespace apan
