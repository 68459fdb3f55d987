// Shard checkpoint format — the recovery plane's serialization boundary
// (docs/serving.md, "Recovery plane").
//
// A snapshot captures everything one shard of a serve::ShardedEngine
// cannot recompute from weights: its NodeStateStore (mailbox payload +
// timestamps + ring bookkeeping + the sorted slot permutation + z(t−)
// rows), its worker's graph::AdjacencyReplica (one {node, timestamp} row
// per node of the whole graph), and the replay state the at-least-once
// transport contract depends on (merge cursor, engine batch/ordinal
// numbering). Restoring a snapshot reproduces the shard bitwise, so
// replaying the event tail from the snapshot's batch watermark yields a
// mailbox identical to a run that never crashed.
//
// The file layout is
//
//   file    := u32 magic "APSN" | u32 version | u64 payload_length
//              | payload | u32 crc32(payload)
//
// with every integer little-endian fixed-width and floating-point values
// bit-cast to same-width integers (bitwise round trips, like serve/wire.h
// — including negative zero, NaN payloads and ±inf, all of which occur in
// live mailbox state). Decoding follows wire.h's defensive discipline:
// every read is bounds-checked, vector counts are validated against the
// bytes remaining before any allocation, geometry products are checked
// for overflow, the CRC is verified before the payload is parsed, and
// trailing bytes are rejected. A truncated or corrupt snapshot yields a
// non-OK Status, never UB.
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

#include "graph/adjacency_replica.h"
#include "util/status.h"

namespace apan {
namespace serve {
namespace snapshot {

/// "APSN" read as a little-endian u32.
inline constexpr uint32_t kMagic = 0x4e535041u;

/// Current format version. Bump on any layout change; decoding rejects
/// every other version (forward and backward) with InvalidArgument.
/// Version 1 held a partitioned graph slice plus frontier replay state;
/// version 2 holds the shard's full graph replica instead.
inline constexpr uint32_t kVersion = 2;

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

  // ---- Engine replay position at the (quiescent) snapshot point --------
  int64_t next_batch = 0;    ///< batches ingested == resume batch
  int64_t next_ordinal = 0;  ///< events ingested == resume ordinal

  // ---- State-plane geometry (validated against the restoring store) ----
  int64_t owned_nodes = 0;
  int64_t mailbox_slots = 0;
  int64_t mail_dim = 0;
  int64_t state_dim = 0;

  // ---- Mailbox raw planes (owned_nodes rows, storage order) ------------
  std::vector<float> mailbox_data;        ///< owned * slots * mail_dim
  std::vector<double> mailbox_timestamps; ///< owned * slots
  std::vector<int32_t> mailbox_head;      ///< owned
  std::vector<int32_t> mailbox_count;     ///< owned
  std::vector<int32_t> mailbox_order;     ///< owned * slots

  // ---- z(t−) rows (owned_nodes * state_dim) ----------------------------
  std::vector<float> z_rows;

  // ---- Graph replica (num_nodes rows) ----------------------------------
  graph::AdjacencyReplica::Checkpoint replica;

  // ---- Replay state (worker-confined merge cursor) ---------------------
  int64_t next_merge = 0;
};

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `bytes`.
uint32_t Crc32(std::span<const uint8_t> bytes);

/// \brief Serializes `snap` into the full file image (header + payload +
/// CRC trailer).
std::vector<uint8_t> EncodeShardSnapshot(const ShardSnapshot& snap);

/// \brief Parses a file image produced by EncodeShardSnapshot. Rejects a
/// bad magic, any other version, a length that disagrees with the bytes
/// present, a CRC mismatch, truncation anywhere, oversized or
/// inconsistent counts, and trailing bytes.
Result<ShardSnapshot> DecodeShardSnapshot(std::span<const uint8_t> bytes);

/// \brief Writes `bytes` crash-atomically: `<path>.tmp` + fsync + rename
/// over `path` + directory fsync.
Status WriteFileAtomic(const std::string& path,
                       std::span<const uint8_t> bytes);

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
