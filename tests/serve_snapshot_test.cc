// The shard checkpoint format (serve/snapshot.h): bitwise round trips —
// including NaN payloads, ±inf and negative zero, all of which occur in
// live mail payloads and z(t−) rows — and the wire.h defensive-decode
// discipline applied to files: every truncation prefix, every single-bit
// flip, corrupt counts, inconsistent planes, version skew and random
// garbage must come back as a clean Status, never UB (the recovery ctest
// label runs this under ASan+UBSan). Restore rebuilds a mailbox through
// Deliver, so capture → install → capture is the identity, and an
// engine's Snapshot → Restore → Snapshot writes byte-identical files.

#include "serve/snapshot.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "serve/sharded_engine.h"
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
      a.num_nodes != b.num_nodes || a.owned_digest != b.owned_digest ||
      a.next_batch != b.next_batch || a.mailbox_slots != b.mailbox_slots ||
      a.dim != b.dim) {
    return false;
  }
  if (a.mail_count != b.mail_count || !SameFloatVec(a.mails, b.mails) ||
      !SameFloatVec(a.mail_timestamps, b.mail_timestamps) ||
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
  return true;
}

/// A small but fully-populated snapshot: every plane non-trivial, every
/// IEEE special value represented in the payloads, mid-stream watermark.
ShardSnapshot RichSnapshot() {
  ShardSnapshot snap;
  snap.shard = 1;
  snap.num_shards = 4;
  snap.num_nodes = 10;
  snap.owned_digest = 0xfedcba9876543210ull;
  snap.next_batch = 7;
  snap.mailbox_slots = 2;
  snap.dim = 2;
  snap.mail_count = {2, 0, 1};
  snap.mails = {1.5f, -0.0f, std::numeric_limits<float>::quiet_NaN(),
                -std::numeric_limits<float>::infinity(),
                std::numeric_limits<float>::infinity(), 5.0f};
  snap.mail_timestamps = {1.5, 0.5, -0.0};
  snap.z_rows = {0.1f, -0.2f, std::numeric_limits<float>::quiet_NaN(),
                 0.4f, -0.0f, 0.6f};
  snap.replica.rows.resize(10);
  snap.replica.rows[1] = {{4, -0.0}, {7, 1.5}};
  snap.replica.rows[4] = {{1, -0.0}, {9, 2.0}};
  snap.replica.rows[7] = {{1, 1.5}};
  snap.replica.rows[9] = {{4, 2.0}};
  snap.replica.latest_timestamp = 2.0;
  snap.replica.num_events = 3;
  return snap;
}

/// A shard that has never seen an event: no mail, zeroed z(t−) rows,
/// empty replica rows — the state a snapshot taken right after
/// construction captures.
ShardSnapshot EmptySnapshot() {
  ShardSnapshot snap;
  snap.shard = 0;
  snap.num_shards = 2;
  snap.num_nodes = 4;
  snap.mailbox_slots = 2;
  snap.dim = 3;
  snap.mail_count.assign(2, 0);
  snap.z_rows.assign(2 * 3, 0.0f);
  snap.replica.rows.resize(4);
  return snap;
}

Result<ShardSnapshot> RoundTrip(const ShardSnapshot& snap) {
  return DecodeShardSnapshot(EncodeShardSnapshot(snap));
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
  // be restored into a replica engine, a v2 image carries no owned-node
  // digest to check its partition against, and a v3 image stores the
  // mailbox ring in storage order with its head and slot permutation;
  // all must fail cleanly as a version mismatch, not be misparsed.
  ASSERT_EQ(kVersion, 4u);
  for (const uint8_t version : {uint8_t{1}, uint8_t{2}, uint8_t{3}}) {
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
  // The first plane's element count (mail_count) lives right after the
  // fixed 48-byte prologue (identity 24 + watermark 8 + geometry 16).
  // Claim 2^64−1 elements with a valid CRC: the decoder must reject the
  // count against the bytes remaining BEFORE sizing any vector — under
  // ASan a speculative allocation of that size is the loud failure this
  // test exists to catch.
  std::vector<uint8_t> bytes = EncodeShardSnapshot(RichSnapshot());
  constexpr size_t kCountOffset = kHeaderBytes + 48;
  for (size_t i = 0; i < 8; ++i) bytes[kCountOffset + i] = 0xFF;
  RecomputeCrc(&bytes);
  Result<ShardSnapshot> decoded = DecodeShardSnapshot(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kIoError);
}

// ---- Whole-image consistency ------------------------------------------------
// Each case encodes a structurally well-formed image (valid CRC, every
// vector complete) whose planes disagree; only the consistency checks can
// refuse it.

TEST(SnapshotTest, MailCountOutsideSlotsRejected) {
  for (const int32_t bad : {-1, 3, std::numeric_limits<int32_t>::min()}) {
    ShardSnapshot snap = RichSnapshot();  // mailbox_slots = 2
    snap.mail_count[1] = bad;
    Result<ShardSnapshot> decoded = RoundTrip(snap);
    ASSERT_FALSE(decoded.ok()) << bad;
    EXPECT_EQ(decoded.status().code(), StatusCode::kIoError) << bad;
    EXPECT_NE(decoded.status().message().find("outside [0, 2]"),
              std::string::npos)
        << decoded.status().message();
  }
}

TEST(SnapshotTest, PlaneSizesMustAgreeWithCounts) {
  // Σ mail_count = 3 and dim = 2: 6 mail floats, 3 timestamps, and
  // 3 owned nodes × 2 = 6 z(t−) floats.
  const auto expect_rejected = [](const ShardSnapshot& snap,
                                  const char* what) {
    Result<ShardSnapshot> decoded = RoundTrip(snap);
    ASSERT_FALSE(decoded.ok()) << what;
    EXPECT_EQ(decoded.status().code(), StatusCode::kIoError) << what;
  };
  ShardSnapshot snap = RichSnapshot();
  snap.mails.pop_back();
  expect_rejected(snap, "a mail float short");
  snap = RichSnapshot();
  snap.mails.push_back(0.0f);
  snap.mails.push_back(0.0f);
  expect_rejected(snap, "one mail too many");
  snap = RichSnapshot();
  snap.mail_timestamps.push_back(3.0);
  expect_rejected(snap, "one timestamp too many");
  snap = RichSnapshot();
  snap.mail_count[1] = 1;
  expect_rejected(snap, "counts claim a mail the planes lack");
  snap = RichSnapshot();
  snap.z_rows.resize(4);
  expect_rejected(snap, "z(t-) rows for two of three nodes");
  snap = RichSnapshot();
  snap.mail_count.push_back(0);
  expect_rejected(snap, "a fourth node without a z(t-) row");
}

TEST(SnapshotTest, NonFiniteMailTimestampRejected) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    ShardSnapshot snap = RichSnapshot();
    snap.mail_timestamps[2] = bad;
    Result<ShardSnapshot> decoded = RoundTrip(snap);
    ASSERT_FALSE(decoded.ok()) << bad;
    EXPECT_EQ(decoded.status().code(), StatusCode::kIoError) << bad;
  }
}

TEST(SnapshotTest, NonPositiveGeometryRejected) {
  for (const int64_t bad : {int64_t{0}, int64_t{-2}}) {
    ShardSnapshot slots = EmptySnapshot();
    slots.mailbox_slots = bad;
    EXPECT_FALSE(RoundTrip(slots).ok()) << "slots " << bad;
    ShardSnapshot dim = EmptySnapshot();
    dim.dim = bad;
    dim.z_rows.clear();
    EXPECT_FALSE(RoundTrip(dim).ok()) << "dim " << bad;
  }
}

TEST(SnapshotTest, InvalidReplicaRejected) {
  ShardSnapshot snap = RichSnapshot();
  snap.replica.rows[1][0].node = 10;  // num_nodes = 10
  EXPECT_EQ(RoundTrip(snap).status().code(), StatusCode::kInvalidArgument);
  snap = RichSnapshot();
  std::swap(snap.replica.rows[4][0], snap.replica.rows[4][1]);  // unsorted
  EXPECT_EQ(RoundTrip(snap).status().code(), StatusCode::kInvalidArgument);
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

// ---- Restore through Deliver -------------------------------------------------

TEST(SnapshotTest, InstallStoreRebuildsTheReadOutBitwise) {
  // Random deliveries with evictions, out-of-order and tied timestamps:
  // a store rebuilt from its capture must read out bitwise the same, keep
  // evicting in the same arrival order, and capture to the same image.
  Rng rng(0xC0DE);
  const int64_t nodes = 12, slots = 3, dim = 4;
  core::NodeStateStore live(nodes, slots, dim);
  const auto deliver_random = [&](core::NodeStateStore* a,
                                  core::NodeStateStore* b, int count) {
    for (int i = 0; i < count; ++i) {
      const auto node = static_cast<graph::NodeId>(
          rng.UniformInt(static_cast<uint64_t>(nodes)));
      std::vector<float> mail(static_cast<size_t>(dim));
      for (float& x : mail) x = static_cast<float>(rng.Normal());
      const double t = static_cast<double>(rng.UniformInt(uint64_t{6}));
      a->Deliver(node, mail, t);
      if (b != nullptr) b->Deliver(node, mail, t);
    }
  };
  std::vector<graph::NodeId> all(static_cast<size_t>(nodes));
  for (graph::NodeId v = 0; v < nodes; ++v) all[static_cast<size_t>(v)] = v;
  const auto expect_same_read_out = [&](const core::NodeStateStore& a,
                                        const core::NodeStateStore& b) {
    const auto ra = a.ReadBatch(all);
    const auto rb = b.ReadBatch(all);
    EXPECT_EQ(ra.counts, rb.counts);
    EXPECT_TRUE(SameFloatVec(ra.mask, rb.mask));
    EXPECT_TRUE(SameFloatVec(ra.timestamps, rb.timestamps));
    const std::vector<float> ma(ra.mails.data(),
                                ra.mails.data() + ra.mails.numel());
    const std::vector<float> mb(rb.mails.data(),
                                rb.mails.data() + rb.mails.numel());
    EXPECT_TRUE(SameFloatVec(ma, mb));
  };
  deliver_random(&live, nullptr, 80);
  for (graph::NodeId v = 0; v < nodes; v += 3) {
    live.SetLastEmbedding(v, std::vector<float>(static_cast<size_t>(dim),
                                                static_cast<float>(v)));
  }

  ShardSnapshot image;
  CaptureStore(live, &image);
  core::NodeStateStore rebuilt(nodes, slots, dim);
  rebuilt.Deliver(5, std::vector<float>(static_cast<size_t>(dim), 9.0f),
                  1.0);  // stale state the install must drop
  InstallStore(image, &rebuilt);
  expect_same_read_out(live, rebuilt);
  for (graph::NodeId v = 0; v < nodes; ++v) {
    EXPECT_TRUE(SameFloatVec(live.LastEmbedding(v), rebuilt.LastEmbedding(v)));
  }
  ShardSnapshot again;
  CaptureStore(rebuilt, &again);
  EXPECT_TRUE(Equal(image, again));

  deliver_random(&live, &rebuilt, 60);
  expect_same_read_out(live, rebuilt);
}

// An engine's Snapshot → Restore → Snapshot writes byte-identical files,
// whether it restores into itself or into a fresh engine.
TEST(SnapshotTest, EngineSnapshotRestoreSnapshotIsByteIdentical) {
  const data::Dataset dataset = *data::GenerateSynthetic(
      data::SyntheticConfig::WikipediaLike().Scaled(0.05));
  core::ApanConfig config;
  config.num_nodes = dataset.num_nodes;
  config.embedding_dim = dataset.feature_dim();
  config.mailbox_slots = 3;  // small, so the stream evicts
  config.sampled_neighbors = 5;
  config.propagation_hops = 2;
  config.dropout = 0.0f;
  const int shards = 3;
  const auto make_dir = [](const std::string& name) {
    const std::string dir = testing::TempDir() + "/snapshot_prop_" + name;
    std::filesystem::create_directories(dir);
    return dir;
  };
  const auto file_bytes = [](const std::string& path) {
    Result<std::vector<uint8_t>> bytes = ReadFileBytes(path);
    EXPECT_TRUE(bytes.ok()) << bytes.status();
    return bytes.ok() ? *bytes : std::vector<uint8_t>{};
  };
  const std::string first = make_dir("first"), self = make_dir("self"),
                    fresh = make_dir("fresh");
  core::ApanModel model(config, &dataset.features, 7);
  ShardedEngine::Options options;
  options.num_shards = shards;
  ShardedEngine engine(&model, options);
  for (size_t lo = 0; lo + 40 <= 200; lo += 40) {
    ASSERT_TRUE(engine
                    .InferBatch(std::vector<graph::Event>(
                        dataset.events.begin() + static_cast<ptrdiff_t>(lo),
                        dataset.events.begin() +
                            static_cast<ptrdiff_t>(lo + 40)))
                    .ok());
  }
  ASSERT_TRUE(engine.Snapshot(first).ok());
  ASSERT_TRUE(engine.Restore(first).ok());
  ASSERT_TRUE(engine.Snapshot(self).ok());
  core::ApanModel fresh_model(config, &dataset.features, 7);
  ShardedEngine fresh_engine(&fresh_model, options);
  ASSERT_TRUE(fresh_engine.Restore(first).ok());
  ASSERT_TRUE(fresh_engine.Snapshot(fresh).ok());
  for (int s = 0; s < shards; ++s) {
    SCOPED_TRACE(testing::Message() << "shard " << s);
    const std::vector<uint8_t> original = file_bytes(ShardPath(first, s));
    ASSERT_FALSE(original.empty());
    EXPECT_EQ(file_bytes(ShardPath(self, s)), original);
    EXPECT_EQ(file_bytes(ShardPath(fresh, s)), original);
    // The stream filled rings, so the property covers evicting mailboxes.
    Result<ShardSnapshot> decoded = DecodeShardSnapshot(original);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    int32_t full = 0;
    for (const int32_t c : decoded->mail_count) full += c == 3 ? 1 : 0;
    EXPECT_GT(full, 0);
  }
}

}  // namespace
}  // namespace snapshot
}  // namespace serve
}  // namespace apan
