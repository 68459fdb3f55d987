#include "serve/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "serve/codec.h"

namespace apan {
namespace serve {
namespace snapshot {

namespace {

using codec::PutF32Vec;
using codec::PutF64;
using codec::PutF64Vec;
using codec::PutI32;
using codec::PutI32Vec;
using codec::PutI64;
using codec::PutU32;
using codec::PutU64;
using codec::Reader;

/// a*b with overflow detection — geometry fields come off disk, so their
/// products must be checked before they parameterize any comparison.
bool CheckedMul(uint64_t a, uint64_t b, uint64_t* out) {
  if (a != 0 && b > UINT64_MAX / a) return false;
  *out = a * b;
  return true;
}

Status CheckPlane(size_t got, uint64_t expected, const char* what) {
  if (static_cast<uint64_t>(got) != expected) {
    return Status::IoError(internal::StrCat(
        "snapshot: ", what, " holds ", got, " elements, the counts imply ",
        expected));
  }
  return Status::OK();
}

const uint32_t* Crc32Table() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table.data();
}

Status Errno(const char* op, const std::string& path) {
  return Status::IoError(internal::StrCat("snapshot: ", op, " ", path,
                                          " failed: ", std::strerror(errno)));
}

}  // namespace

uint64_t OwnedNodesDigest(const graph::NodePartition& partition, int shard) {
  std::vector<graph::NodeId> owned(static_cast<size_t>(
      partition.owned_count[static_cast<size_t>(shard)]));
  for (size_t v = 0; v < partition.owner_of.size(); ++v) {
    if (partition.owner_of[v] == shard) {
      owned[static_cast<size_t>(partition.local_row[v])] =
          static_cast<graph::NodeId>(v);
    }
  }
  uint64_t h = 14695981039346656037ull;
  for (const graph::NodeId v : owned) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (static_cast<uint64_t>(v) >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

uint32_t Crc32(std::span<const uint8_t> bytes) {
  const uint32_t* table = Crc32Table();
  uint32_t crc = 0xffffffffu;
  for (const uint8_t b : bytes) {
    crc = table[(crc ^ b) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

std::string ShardPath(const std::string& dir, int shard) {
  return internal::StrCat(dir, "/shard-", shard, ".apsn");
}

void CaptureStore(const core::NodeStateStore& store, ShardSnapshot* snap) {
  const core::Mailbox& box = store.mailbox();
  const auto slots = static_cast<size_t>(box.slots());
  const auto dim = static_cast<size_t>(box.dim());
  snap->mailbox_slots = box.slots();
  snap->dim = box.dim();
  const auto data = box.raw_data();
  const auto timestamps = box.raw_timestamps();
  const auto head = box.raw_head();
  const auto count = box.raw_count();
  snap->mail_count.assign(count.begin(), count.end());
  snap->mails.clear();
  snap->mail_timestamps.clear();
  for (size_t n = 0; n < count.size(); ++n) {
    // A node's ring holds its mails oldest-first from its head.
    for (int32_t k = 0; k < count[n]; ++k) {
      const size_t slot =
          n * slots + static_cast<size_t>(head[n] + k) % slots;
      snap->mails.insert(snap->mails.end(), data.begin() + slot * dim,
                         data.begin() + (slot + 1) * dim);
      snap->mail_timestamps.push_back(timestamps[slot]);
    }
  }
  const auto z = store.raw_state();
  snap->z_rows.assign(z.begin(), z.end());
}

void InstallStore(const ShardSnapshot& snap, core::NodeStateStore* store) {
  core::Mailbox& box = store->mailbox();
  APAN_CHECK_MSG(static_cast<int64_t>(snap.mail_count.size()) ==
                         box.num_nodes() &&
                     snap.mailbox_slots == box.slots() &&
                     snap.dim == box.dim() && snap.dim == store->dim(),
                 "snapshot geometry does not match the restoring store");
  store->Reset();
  const auto dim = static_cast<size_t>(snap.dim);
  size_t at = 0;
  for (size_t n = 0; n < snap.mail_count.size(); ++n) {
    for (int32_t k = 0; k < snap.mail_count[n]; ++k, ++at) {
      box.Deliver(static_cast<graph::NodeId>(n),
                  {snap.mails.data() + at * dim, dim},
                  snap.mail_timestamps[at]);
    }
  }
  const Status z = store->RestoreRawState(snap.z_rows);
  APAN_CHECK_MSG(z.ok(), z.ToString());
}

std::vector<uint8_t> EncodeShardSnapshot(const ShardSnapshot& snap) {
  std::vector<uint8_t> payload;
  // Identity + replay position + geometry: a fixed 48-byte prologue.
  PutI32(&payload, snap.shard);
  PutI32(&payload, snap.num_shards);
  PutI64(&payload, snap.num_nodes);
  PutU64(&payload, snap.owned_digest);
  PutI64(&payload, snap.next_batch);
  PutI64(&payload, snap.mailbox_slots);
  PutI64(&payload, snap.dim);
  // Node state.
  PutI32Vec(&payload, snap.mail_count);
  PutF32Vec(&payload, snap.mails);
  PutF64Vec(&payload, snap.mail_timestamps);
  PutF32Vec(&payload, snap.z_rows);
  // Graph replica.
  PutU64(&payload, snap.replica.rows.size());
  for (const auto& row : snap.replica.rows) {
    PutU64(&payload, row.size());
    for (const auto& e : row) {
      PutI64(&payload, e.node);
      PutF64(&payload, e.timestamp);
    }
  }
  PutF64(&payload, snap.replica.latest_timestamp);
  PutI64(&payload, snap.replica.num_events);

  APAN_CHECK_MSG(payload.size() <= kMaxPayloadBytes,
                 "snapshot: payload exceeds kMaxPayloadBytes");
  std::vector<uint8_t> out;
  out.reserve(kHeaderBytes + payload.size() + kTrailerBytes);
  PutU32(&out, kMagic);
  PutU32(&out, kVersion);
  PutU64(&out, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
  PutU32(&out, Crc32(payload));
  return out;
}

Result<ShardSnapshot> DecodeShardSnapshot(std::span<const uint8_t> bytes) {
  if (bytes.size() < kHeaderBytes + kTrailerBytes) {
    return Status::IoError(internal::StrCat(
        "snapshot: ", bytes.size(), " bytes is smaller than the ",
        kHeaderBytes + kTrailerBytes, "-byte envelope"));
  }
  Reader header(bytes.subspan(0, kHeaderBytes), "snapshot");
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t payload_length = 0;
  APAN_RETURN_NOT_OK(header.ReadU32(&magic, "magic"));
  APAN_RETURN_NOT_OK(header.ReadU32(&version, "version"));
  APAN_RETURN_NOT_OK(header.ReadU64(&payload_length, "payload_length"));
  if (magic != kMagic) {
    return Status::InvalidArgument(
        internal::StrCat("snapshot: bad magic ", magic, " (not APSN)"));
  }
  if (version != kVersion) {
    return Status::InvalidArgument(internal::StrCat(
        "snapshot: version ", version, " is not the supported version ",
        kVersion));
  }
  if (payload_length > kMaxPayloadBytes) {
    return Status::IoError(internal::StrCat(
        "snapshot: payload of ", payload_length, " bytes exceeds the ",
        kMaxPayloadBytes, "-byte cap"));
  }
  if (payload_length != bytes.size() - kHeaderBytes - kTrailerBytes) {
    return Status::IoError(internal::StrCat(
        "snapshot: header claims ", payload_length, " payload bytes but ",
        bytes.size() - kHeaderBytes - kTrailerBytes, " are present"));
  }
  const std::span<const uint8_t> payload =
      bytes.subspan(kHeaderBytes, static_cast<size_t>(payload_length));
  Reader trailer(bytes.subspan(kHeaderBytes + payload.size(), kTrailerBytes),
                 "snapshot");
  uint32_t stored_crc = 0;
  APAN_RETURN_NOT_OK(trailer.ReadU32(&stored_crc, "crc32"));
  const uint32_t computed_crc = Crc32(payload);
  if (stored_crc != computed_crc) {
    return Status::IoError(internal::StrCat(
        "snapshot: CRC mismatch (stored ", stored_crc, ", computed ",
        computed_crc, ") — refusing to restore from a corrupt checkpoint"));
  }

  Reader r(payload, "snapshot");
  ShardSnapshot snap;
  APAN_RETURN_NOT_OK(r.ReadI32(&snap.shard, "shard"));
  APAN_RETURN_NOT_OK(r.ReadI32(&snap.num_shards, "num_shards"));
  APAN_RETURN_NOT_OK(r.ReadI64(&snap.num_nodes, "num_nodes"));
  APAN_RETURN_NOT_OK(r.ReadU64(&snap.owned_digest, "owned_digest"));
  if (snap.num_shards <= 0 || snap.shard < 0 ||
      snap.shard >= snap.num_shards || snap.num_nodes < 0) {
    return Status::IoError(internal::StrCat(
        "snapshot: shard ", snap.shard, " of ", snap.num_shards, " over ",
        snap.num_nodes, " nodes is not a valid identity"));
  }
  APAN_RETURN_NOT_OK(r.ReadI64(&snap.next_batch, "next_batch"));
  if (snap.next_batch < 0) {
    return Status::IoError("snapshot: negative batch watermark");
  }
  APAN_RETURN_NOT_OK(r.ReadI64(&snap.mailbox_slots, "mailbox_slots"));
  APAN_RETURN_NOT_OK(r.ReadI64(&snap.dim, "dim"));
  if (snap.mailbox_slots <= 0 || snap.dim <= 0) {
    return Status::IoError(internal::StrCat(
        "snapshot: mailbox geometry ", snap.mailbox_slots, " slots x ",
        snap.dim, " floats is not positive"));
  }

  APAN_RETURN_NOT_OK(r.ReadI32Vec(&snap.mail_count, "mail_count"));
  APAN_RETURN_NOT_OK(r.ReadF32Vec(&snap.mails, "mails"));
  APAN_RETURN_NOT_OK(r.ReadF64Vec(&snap.mail_timestamps, "mail_timestamps"));
  APAN_RETURN_NOT_OK(r.ReadF32Vec(&snap.z_rows, "z_rows"));

  // The planes must agree with the counts and the geometry — an image
  // whose vectors disagree is corrupt even if each decoded cleanly on its
  // own. Each count is a non-negative int32 and there are fewer counts
  // than payload bytes, so their sum cannot overflow; the products with
  // dim are checked.
  uint64_t mails = 0;
  for (size_t n = 0; n < snap.mail_count.size(); ++n) {
    const int32_t c = snap.mail_count[n];
    if (c < 0 || c > snap.mailbox_slots) {
      return Status::IoError(internal::StrCat(
          "snapshot: node row ", n, " holds ", c, " mails, outside [0, ",
          snap.mailbox_slots, "]"));
    }
    mails += static_cast<uint64_t>(c);
  }
  const auto dim = static_cast<uint64_t>(snap.dim);
  uint64_t expected = 0;
  if (!CheckedMul(mails, dim, &expected)) {
    return Status::IoError("snapshot: mail plane size overflows");
  }
  APAN_RETURN_NOT_OK(CheckPlane(snap.mails.size(), expected, "mails"));
  APAN_RETURN_NOT_OK(
      CheckPlane(snap.mail_timestamps.size(), mails, "mail_timestamps"));
  if (!CheckedMul(snap.mail_count.size(), dim, &expected)) {
    return Status::IoError("snapshot: z(t-) plane size overflows");
  }
  APAN_RETURN_NOT_OK(CheckPlane(snap.z_rows.size(), expected, "z_rows"));
  for (size_t i = 0; i < snap.mail_timestamps.size(); ++i) {
    // Mail carries event times, which InferBatch admits only finite.
    if (!std::isfinite(snap.mail_timestamps[i])) {
      return Status::IoError(internal::StrCat(
          "snapshot: mail ", i, " has a non-finite timestamp"));
    }
  }

  uint64_t count = 0;
  APAN_RETURN_NOT_OK(r.ReadCount(&count, 8, "replica.rows"));
  if (count != static_cast<uint64_t>(snap.num_nodes)) {
    return Status::IoError(internal::StrCat(
        "snapshot: replica holds ", count, " rows for ", snap.num_nodes,
        " nodes"));
  }
  snap.replica.rows.resize(static_cast<size_t>(count));
  for (auto& row : snap.replica.rows) {
    uint64_t entries = 0;
    APAN_RETURN_NOT_OK(r.ReadCount(&entries, 16, "replica.row"));
    row.resize(static_cast<size_t>(entries));
    for (auto& e : row) {
      APAN_RETURN_NOT_OK(r.ReadI64(&e.node, "entry.node"));
      APAN_RETURN_NOT_OK(r.ReadF64(&e.timestamp, "entry.timestamp"));
    }
  }
  APAN_RETURN_NOT_OK(
      r.ReadF64(&snap.replica.latest_timestamp, "replica.latest_timestamp"));
  APAN_RETURN_NOT_OK(r.ReadI64(&snap.replica.num_events, "replica.num_events"));

  if (r.remaining() != 0) {
    return Status::IoError(internal::StrCat(
        "snapshot: ", r.remaining(), " trailing bytes after payload"));
  }
  APAN_RETURN_NOT_OK(
      graph::AdjacencyReplica::Validate(snap.replica, snap.num_nodes));
  return snap;
}

Status WriteFileAtomic(const std::string& path,
                       std::span<const uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("open", tmp);
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status st = Errno("write", tmp);
      ::close(fd);
      ::unlink(tmp.c_str());
      return st;
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const Status st = Errno("fsync", tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return st;
  }
  if (::close(fd) != 0) {
    const Status st = Errno("close", tmp);
    ::unlink(tmp.c_str());
    return st;
  }
  const Status renamed = RenameFile(tmp, path);
  if (!renamed.ok()) ::unlink(tmp.c_str());
  return renamed;
}

Status RenameFile(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) return Errno("rename", from);
  // fsync the directory so the rename itself is durable. Best-effort on
  // exotic filesystems that refuse O_DIRECTORY opens — the data file is
  // already synced, only the directory entry's durability is at stake.
  const size_t slash = to.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : to.substr(0, slash == 0 ? 1 : slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Errno("open", path);
  std::vector<uint8_t> bytes;
  uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status st = Errno("read", path);
      ::close(fd);
      return st;
    }
    if (n == 0) break;
    bytes.insert(bytes.end(), buf, buf + n);
    if (bytes.size() > kMaxPayloadBytes + kHeaderBytes + kTrailerBytes) {
      ::close(fd);
      return Status::IoError(internal::StrCat(
          "snapshot: ", path, " exceeds the ", kMaxPayloadBytes,
          "-byte payload cap"));
    }
  }
  ::close(fd);
  return bytes;
}

Status WriteShardSnapshot(const ShardSnapshot& snap, const std::string& path) {
  const std::vector<uint8_t> bytes = EncodeShardSnapshot(snap);
  return WriteFileAtomic(path, bytes);
}

Result<ShardSnapshot> ReadShardSnapshot(const std::string& path) {
  Result<std::vector<uint8_t>> bytes = ReadFileBytes(path);
  APAN_RETURN_NOT_OK(bytes.status());
  return DecodeShardSnapshot(*bytes);
}

}  // namespace snapshot
}  // namespace serve
}  // namespace apan
