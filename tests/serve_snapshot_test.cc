// The shard checkpoint format (serve/snapshot.h): bitwise round trips —
// including NaN payloads, ±inf and negative zero, all of which occur in
// live mailbox state — and the wire.h defensive-decode discipline applied
// to files: every truncation prefix, every single-bit flip, corrupt
// counts, version skew and random garbage must come back as a clean
// Status, never UB (the recovery ctest label runs this under ASan+UBSan).

#include "serve/snapshot.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "util/random.h"

namespace apan {
namespace serve {
namespace snapshot {
namespace {

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameBits(float a, float b) {
  return std::bit_cast<uint32_t>(a) == std::bit_cast<uint32_t>(b);
}

template <typename T>
bool SameFloatVec(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) return false;
  }
  return true;
}

bool Equal(const ShardSnapshot& a, const ShardSnapshot& b) {
  if (a.shard != b.shard || a.num_shards != b.num_shards ||
      a.num_nodes != b.num_nodes || a.next_batch != b.next_batch ||
      a.next_ordinal != b.next_ordinal || a.owned_nodes != b.owned_nodes ||
      a.owned_digest != b.owned_digest ||
      a.mailbox_slots != b.mailbox_slots || a.mail_dim != b.mail_dim ||
      a.state_dim != b.state_dim) {
    return false;
  }
  if (!SameFloatVec(a.mailbox_data, b.mailbox_data) ||
      !SameFloatVec(a.mailbox_timestamps, b.mailbox_timestamps) ||
      a.mailbox_head != b.mailbox_head ||
      a.mailbox_count != b.mailbox_count ||
      a.mailbox_order != b.mailbox_order ||
      !SameFloatVec(a.z_rows, b.z_rows)) {
    return false;
  }
  if (a.replica.rows.size() != b.replica.rows.size() ||
      !SameBits(a.replica.latest_timestamp, b.replica.latest_timestamp) ||
      a.replica.num_events != b.replica.num_events) {
    return false;
  }
  for (size_t i = 0; i < a.replica.rows.size(); ++i) {
    if (a.replica.rows[i].size() != b.replica.rows[i].size()) return false;
    for (size_t j = 0; j < a.replica.rows[i].size(); ++j) {
      const auto& p = a.replica.rows[i][j];
      const auto& q = b.replica.rows[i][j];
      if (p.node != q.node || !SameBits(p.timestamp, q.timestamp)) {
        return false;
      }
    }
  }
  return a.next_merge == b.next_merge;
}

/// A small but fully-populated snapshot: every plane non-trivial, every
/// IEEE special value represented, replay state mid-stream.
ShardSnapshot RichSnapshot() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ShardSnapshot snap;
  snap.shard = 1;
  snap.num_shards = 4;
  snap.num_nodes = 10;
  snap.next_batch = 7;
  snap.next_ordinal = 350;
  snap.owned_nodes = 3;
  snap.owned_digest = 0xfedcba9876543210ull;
  snap.mailbox_slots = 2;
  snap.mail_dim = 2;
  snap.state_dim = 2;
  snap.mailbox_data = {1.5f, -0.0f,
                       std::numeric_limits<float>::quiet_NaN(),
                       -std::numeric_limits<float>::infinity(),
                       0.0f, 2.25f, -3.5f, 4.0f,
                       std::numeric_limits<float>::infinity(), 5.0f,
                       6.0f, -7.0f};
  snap.mailbox_timestamps = {0.5, 1.5, -kInf, 2.0, 3.0, -0.0};
  snap.mailbox_head = {1, 0, 1};
  snap.mailbox_count = {2, 0, 1};
  snap.mailbox_order = {1, 0, 0, 1, 0, 1};
  snap.z_rows = {0.1f, -0.2f, std::numeric_limits<float>::quiet_NaN(),
                 0.4f, -0.0f, 0.6f};
  snap.replica.rows.resize(10);
  snap.replica.rows[1] = {{4, -0.0}, {7, 1.5}};
  snap.replica.rows[4] = {{1, -0.0}, {9, 2.0}};
  snap.replica.rows[7] = {{1, 1.5}};
  snap.replica.rows[9] = {{4, 2.0}};
  snap.replica.latest_timestamp = 2.0;
  snap.replica.num_events = 3;
  snap.next_merge = 7;
  return snap;
}

/// A shard that has never seen an event: zeroed planes, empty replica
/// rows — the state a snapshot taken right after construction captures.
ShardSnapshot EmptySnapshot() {
  ShardSnapshot snap;
  snap.shard = 0;
  snap.num_shards = 2;
  snap.num_nodes = 4;
  snap.owned_nodes = 2;
  snap.mailbox_slots = 2;
  snap.mail_dim = 3;
  snap.state_dim = 3;
  snap.mailbox_data.assign(2 * 2 * 3, 0.0f);
  snap.mailbox_timestamps.assign(2 * 2, 0.0);
  snap.mailbox_head.assign(2, 0);
  snap.mailbox_count.assign(2, 0);
  snap.mailbox_order.assign(2 * 2, 0);
  snap.z_rows.assign(2 * 3, 0.0f);
  snap.replica.rows.resize(4);
  return snap;
}

// Patches the CRC trailer after a deliberate payload mutation, so decode
// failures exercise the structural checks, not just the checksum.
void RecomputeCrc(std::vector<uint8_t>* file) {
  const std::span<const uint8_t> payload(file->data() + kHeaderBytes,
                                         file->size() - kHeaderBytes -
                                             kTrailerBytes);
  const uint32_t crc = Crc32(payload);
  uint8_t* trailer = file->data() + file->size() - kTrailerBytes;
  for (int i = 0; i < 4; ++i) {
    trailer[i] = static_cast<uint8_t>(crc >> (8 * i));
  }
}

// ---- Round trips -----------------------------------------------------------

TEST(SnapshotTest, RichSnapshotRoundTripsBitwise) {
  const ShardSnapshot snap = RichSnapshot();
  const std::vector<uint8_t> bytes = EncodeShardSnapshot(snap);
  Result<ShardSnapshot> decoded = DecodeShardSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(Equal(snap, *decoded));
}

TEST(SnapshotTest, EmptyShardRoundTripsBitwise) {
  const ShardSnapshot snap = EmptySnapshot();
  const std::vector<uint8_t> bytes = EncodeShardSnapshot(snap);
  Result<ShardSnapshot> decoded = DecodeShardSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(Equal(snap, *decoded));
}

TEST(SnapshotTest, FileRoundTripAndOverwrite) {
  const std::string path = testing::TempDir() + "/snapshot_roundtrip.apsn";
  const ShardSnapshot first = EmptySnapshot();
  ASSERT_TRUE(WriteShardSnapshot(first, path).ok());
  const ShardSnapshot second = RichSnapshot();
  // Crash-atomic overwrite: the old file is replaced by rename, and the
  // staging file must not linger.
  ASSERT_TRUE(WriteShardSnapshot(second, path).ok());
  Result<ShardSnapshot> decoded = ReadShardSnapshot(path);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(Equal(second, *decoded));
  FILE* staging = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(staging, nullptr) << "staging file left behind";
  if (staging != nullptr) std::fclose(staging);
  std::remove(path.c_str());
}

TEST(SnapshotTest, WriteToMissingDirectoryFailsCleanly) {
  const Status written = WriteShardSnapshot(
      EmptySnapshot(), "/nonexistent-dir-for-apan-test/s.apsn");
  EXPECT_FALSE(written.ok());
}

TEST(SnapshotTest, ReadMissingFileFailsCleanly) {
  EXPECT_FALSE(
      ReadShardSnapshot(testing::TempDir() + "/no_such_snapshot.apsn").ok());
}

// ---- Corruption and truncation ---------------------------------------------

TEST(SnapshotTest, EveryTruncationFailsCleanly) {
  const std::vector<uint8_t> bytes = EncodeShardSnapshot(RichSnapshot());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    Result<ShardSnapshot> decoded =
        DecodeShardSnapshot(std::span<const uint8_t>(bytes.data(), cut));
    EXPECT_FALSE(decoded.ok())
        << "prefix of " << cut << "/" << bytes.size() << " bytes decoded";
  }
}

TEST(SnapshotTest, EverySingleBitFlipIsRejected) {
  // Magic/version/length flips fail the envelope checks; payload flips
  // fail the CRC; trailer flips fail the CRC comparison itself. No flip
  // anywhere may pass.
  const std::vector<uint8_t> bytes = EncodeShardSnapshot(RichSnapshot());
  for (size_t at = 0; at < bytes.size(); ++at) {
    std::vector<uint8_t> corrupt = bytes;
    corrupt[at] ^= 0x10;
    EXPECT_FALSE(DecodeShardSnapshot(corrupt).ok())
        << "bit flip at byte " << at << " decoded";
  }
}

TEST(SnapshotTest, TrailingBytesRejected) {
  std::vector<uint8_t> bytes = EncodeShardSnapshot(RichSnapshot());
  bytes.push_back(0);
  EXPECT_FALSE(DecodeShardSnapshot(bytes).ok());
}

TEST(SnapshotTest, VersionSkewRejected) {
  std::vector<uint8_t> bytes = EncodeShardSnapshot(RichSnapshot());
  // Header layout: magic u32 | version u32 | ... — the version is not
  // CRC-covered (the CRC guards the payload), so this isolates the
  // version check.
  bytes[4] = static_cast<uint8_t>(kVersion + 1);
  Result<ShardSnapshot> decoded = DecodeShardSnapshot(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, OlderVersionImagesRejected) {
  // A v1 image (partitioned graph slice + frontier replay state) cannot
  // be restored into a replica engine, and a v2 image carries no
  // owned-node digest to check its partition against; both must fail
  // cleanly as a version mismatch, not be misparsed.
  ASSERT_EQ(kVersion, 3u);
  for (const uint8_t version : {uint8_t{1}, uint8_t{2}}) {
    std::vector<uint8_t> bytes = EncodeShardSnapshot(RichSnapshot());
    bytes[4] = version;
    for (size_t i = 5; i < 8; ++i) bytes[i] = 0;
    Result<ShardSnapshot> decoded = DecodeShardSnapshot(bytes);
    ASSERT_FALSE(decoded.ok()) << int{version};
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SnapshotTest, OwnedNodesDigestNamesTheOwnedNodes) {
  // A shard digests alike exactly when it owns the same nodes, whatever
  // its id and whichever partition it belongs to.
  const auto even = graph::NodePartition::Build(
      6, 2, [](graph::NodeId v) { return static_cast<int>(v % 2); });
  const auto odd = graph::NodePartition::Build(
      6, 2, [](graph::NodeId v) { return static_cast<int>((v + 1) % 2); });
  const auto low = graph::NodePartition::Build(
      6, 2, [](graph::NodeId v) { return v < 3 ? 0 : 1; });
  EXPECT_NE(OwnedNodesDigest(*even, 0), OwnedNodesDigest(*odd, 0));
  EXPECT_EQ(OwnedNodesDigest(*even, 0), OwnedNodesDigest(*odd, 1));
  EXPECT_NE(OwnedNodesDigest(*even, 0), OwnedNodesDigest(*low, 0));
}

TEST(SnapshotTest, ReplicaRowCountMustMatchNodeCount) {
  ShardSnapshot snap = RichSnapshot();
  snap.replica.rows.pop_back();
  Result<ShardSnapshot> decoded =
      DecodeShardSnapshot(EncodeShardSnapshot(snap));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kIoError);
}

TEST(SnapshotTest, BadMagicRejected) {
  std::vector<uint8_t> bytes = EncodeShardSnapshot(RichSnapshot());
  bytes[0] = 'X';
  Result<ShardSnapshot> decoded = DecodeShardSnapshot(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, CorruptCountRejectedBeforeAllocation) {
  // The first mailbox plane's element count lives right after the fixed
  // 72-byte prologue (identity 16 + replay 16 + geometry 40). Claim 2^64−1
  // floats with a valid CRC: the decoder must reject the count against the
  // bytes remaining BEFORE sizing any vector — under ASan a speculative
  // allocation of that size is the loud failure this test exists to catch.
  std::vector<uint8_t> bytes = EncodeShardSnapshot(RichSnapshot());
  constexpr size_t kDataCountOffset = kHeaderBytes + 72;
  for (size_t i = 0; i < 8; ++i) bytes[kDataCountOffset + i] = 0xFF;
  RecomputeCrc(&bytes);
  Result<ShardSnapshot> decoded = DecodeShardSnapshot(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kIoError);
}

TEST(SnapshotTest, OversizedLengthFieldRejected) {
  std::vector<uint8_t> bytes = EncodeShardSnapshot(RichSnapshot());
  // Claim a payload above the cap; the cap check must fire before any
  // attempt to address that much memory.
  for (size_t i = 8; i < 16; ++i) bytes[i] = 0xFF;
  EXPECT_FALSE(DecodeShardSnapshot(bytes).ok());
}

TEST(SnapshotTest, MutationFuzzNeverCrashes) {
  Rng rng(0x5EEDFACE);
  const ShardSnapshot exemplars[2] = {RichSnapshot(), EmptySnapshot()};
  int rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<uint8_t> bytes =
        EncodeShardSnapshot(exemplars[rng.UniformInt(uint64_t{2})]);
    const int flips = static_cast<int>(rng.UniformInt(uint64_t{5}));
    for (int f = 0; f < flips && !bytes.empty(); ++f) {
      const size_t at =
          static_cast<size_t>(rng.UniformInt(uint64_t{bytes.size()}));
      bytes[at] = static_cast<uint8_t>(rng.Next());
    }
    if (rng.Bernoulli(0.3) && !bytes.empty()) {
      bytes.resize(
          static_cast<size_t>(rng.UniformInt(uint64_t{bytes.size()})));
    } else if (rng.Bernoulli(0.2)) {
      bytes.push_back(static_cast<uint8_t>(rng.Next()));
    }
    // Half the iterations repair the CRC so mutations reach the
    // structural validators instead of stopping at the checksum.
    if (bytes.size() >= kHeaderBytes + kTrailerBytes && rng.Bernoulli(0.5)) {
      RecomputeCrc(&bytes);
    }
    Result<ShardSnapshot> decoded = DecodeShardSnapshot(bytes);
    rejected += decoded.ok() ? 0 : 1;
  }
  // Random mutation overwhelmingly corrupts structure; if nearly
  // everything decoded, the checks are not actually running.
  EXPECT_GT(rejected, 1000);
}

TEST(SnapshotTest, RandomGarbageNeverCrashes) {
  Rng rng(0xDEADBEA7);
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<uint8_t> garbage(
        static_cast<size_t>(rng.UniformInt(uint64_t{513})));
    for (auto& b : garbage) b = static_cast<uint8_t>(rng.Next());
    (void)DecodeShardSnapshot(garbage);  // must return, cleanly, every time
  }
}

TEST(SnapshotTest, CrcMatchesKnownVector) {
  // The IEEE 802.3 check value: CRC-32 of "123456789" is 0xCBF43926.
  // Pins the table to the standard polynomial so snapshots stay readable
  // across builds.
  const uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(digits), 0xCBF43926u);
}

}  // namespace
}  // namespace snapshot
}  // namespace serve
}  // namespace apan
