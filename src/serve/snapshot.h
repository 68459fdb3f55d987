// Shard checkpoint format — the recovery plane's serialization boundary
// (docs/serving.md, "Recovery plane").
//
// A snapshot holds only what one shard of a serve::ShardedEngine cannot
// recompute from the weights: its nodes' mail (per node, the held mails
// in arrival order, oldest first) and z(t−) rows, its worker's
// graph::AdjacencyReplica (one {node, timestamp} row per node of the
// whole graph), and the engine's batch watermark, plus a digest of the
// node ids the shard owns, so an image is never restored under a
// different partition (its rows restore by local position). Everything
// else is rebuilt on restore: the mailbox ring and its time-sorted slot
// permutation come from delivering each mail again through
// Mailbox::Deliver, in arrival order, and every merge cursor restarts at
// the watermark. ShardedEngine::Snapshot / Restore write and read one
// image per shard; replaying the event stream from the watermark yields
// the state of a run that never crashed, bitwise.
//
// The file layout is
//
//   file    := u32 magic "APSN" | u32 version | u64 payload_length
//              | payload | u32 crc32(payload)
//
// with every integer little-endian fixed-width and floating-point values
// bit-cast to same-width integers (bitwise round trips, like serve/wire.h
// — including negative zero, NaN payloads and ±inf, all of which occur in
// live mail payloads and z(t−) rows). Decoding follows wire.h's defensive
// discipline: every read is bounds-checked, vector counts are validated
// against the bytes remaining before any allocation, geometry products
// are checked for overflow, the CRC is verified before the payload is
// parsed, and trailing bytes are rejected. A decoded image is also
// checked whole: per-node mail counts in [0, slots], plane sizes that
// agree with the counts, finite mail timestamps, and a replica that
// graph::AdjacencyReplica::Validate accepts. A truncated or corrupt
// snapshot yields a non-OK Status, never UB.
//
// Writes are crash-atomic: the file is assembled at `<path>.tmp`, fsynced,
// renamed over `path`, and the directory is fsynced — a crash mid-write
// leaves either the old snapshot or the new one, never a torn file.

#ifndef APAN_SERVE_SNAPSHOT_H_
#define APAN_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/node_state_store.h"
#include "graph/adjacency_replica.h"
#include "graph/node_partition.h"
#include "util/status.h"

namespace apan {
namespace serve {
namespace snapshot {

/// "APSN" read as a little-endian u32.
inline constexpr uint32_t kMagic = 0x4e535041u;

/// Current format version. Bump on any layout change; decoding rejects
/// every other version (forward and backward) with InvalidArgument.
/// Version 1 held a partitioned graph slice plus frontier replay state;
/// version 2 held the shard's full graph replica instead; version 3 added
/// the owned-node digest; version 4 drops what restore recomputes (the
/// event ordinal, the merge cursor, the mailbox ring head and slot
/// permutation, and the second copy of the row width).
inline constexpr uint32_t kVersion = 4;

/// Bytes before the payload (magic + version + payload length).
inline constexpr size_t kHeaderBytes = 16;

/// Bytes after the payload (the CRC32 trailer).
inline constexpr size_t kTrailerBytes = 4;

/// Upper bound on a snapshot payload. Real shard snapshots at paper scale
/// are tens of MiB; the cap's job is to make a corrupt length field fail
/// fast instead of driving a giant allocation.
inline constexpr uint64_t kMaxPayloadBytes = 1ull << 30;

/// \brief Everything needed to rebuild one shard bitwise.
struct ShardSnapshot {
  // ---- Identity: restore refuses a snapshot from another topology ------
  int32_t shard = -1;
  int32_t num_shards = 0;
  int64_t num_nodes = 0;
  /// OwnedNodesDigest of the partition the image was taken under.
  uint64_t owned_digest = 0;

  /// Batches the engine had ingested at the (flushed) snapshot point: the
  /// batch a restored engine resumes at.
  int64_t next_batch = 0;

  // ---- Geometry (validated against the restoring engine's config) ------
  int64_t mailbox_slots = 0;
  /// Width of a mail and of a z(t−) row (both are the embedding width).
  int64_t dim = 0;

  // ---- Node state, owned nodes in local-row order ----------------------
  /// Mails held per owned node, 0..mailbox_slots.
  std::vector<int32_t> mail_count;
  /// Every node's held mails in arrival order (oldest first), node after
  /// node: sum(mail_count) * dim floats.
  std::vector<float> mails;
  /// The timestamp of each mail in `mails`.
  std::vector<double> mail_timestamps;
  /// z(t−) rows, mail_count.size() * dim floats.
  std::vector<float> z_rows;

  // ---- Graph replica (num_nodes rows) ----------------------------------
  graph::AdjacencyReplica::Checkpoint replica;
};

/// The file of shard `shard`'s image in a snapshot directory:
/// `<dir>/shard-<shard>.apsn`.
std::string ShardPath(const std::string& dir, int shard);

/// Copies `store`'s node state into `snap`: the geometry, each node's
/// held mails in arrival order, and the z(t−) rows.
void CaptureStore(const core::NodeStateStore& store, ShardSnapshot* snap);

/// \brief Rebuilds `store` from a decoded image through the one mailbox
/// write path: Reset(), then Mailbox::Deliver of each node's mails in
/// arrival order — so the ring and its time-sorted slot permutation hold
/// by construction — then the z(t−) rows. `snap` must come from
/// DecodeShardSnapshot and match the store's geometry (CHECK-enforced).
void InstallStore(const ShardSnapshot& snap, core::NodeStateStore* store);

/// FNV-1a (64-bit) over the node ids `shard` owns under `partition`, in
/// local-row order, each id as 8 little-endian bytes. Two partitions give
/// a shard the same rows exactly when their digests agree (up to hash
/// collisions).
uint64_t OwnedNodesDigest(const graph::NodePartition& partition, int shard);

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `bytes`.
uint32_t Crc32(std::span<const uint8_t> bytes);

/// \brief Serializes `snap` into the full file image (header + payload +
/// CRC trailer).
std::vector<uint8_t> EncodeShardSnapshot(const ShardSnapshot& snap);

/// \brief Parses a file image produced by EncodeShardSnapshot. Rejects a
/// bad magic, any other version, a length that disagrees with the bytes
/// present, a CRC mismatch, truncation anywhere, oversized or
/// inconsistent counts, a mail count outside [0, slots], a non-finite
/// mail timestamp, an invalid replica, and trailing bytes.
Result<ShardSnapshot> DecodeShardSnapshot(std::span<const uint8_t> bytes);

/// \brief Writes `bytes` crash-atomically: `<path>.tmp` + fsync + rename
/// over `path` + directory fsync.
Status WriteFileAtomic(const std::string& path,
                       std::span<const uint8_t> bytes);

/// rename(2) `from` over `to`, then fsync `to`'s directory so the rename
/// is durable. IoError when the rename fails.
Status RenameFile(const std::string& from, const std::string& to);

/// Reads a whole file; IoError on open/read failure or a file above the
/// snapshot size cap.
Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

/// Encode + crash-atomic write.
Status WriteShardSnapshot(const ShardSnapshot& snap, const std::string& path);

/// Read + decode.
Result<ShardSnapshot> ReadShardSnapshot(const std::string& path);

}  // namespace snapshot
}  // namespace serve
}  // namespace apan

#endif  // APAN_SERVE_SNAPSHOT_H_
