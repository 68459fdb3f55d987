#include "serve/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace apan {
namespace serve {
namespace snapshot {

namespace {

// ---- Little-endian writers (wire.cc's idiom, private to this TU) -----------

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutI32(std::vector<uint8_t>* out, int32_t v) {
  PutU32(out, static_cast<uint32_t>(v));
}

void PutI64(std::vector<uint8_t>* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutF32(std::vector<uint8_t>* out, float v) {
  PutU32(out, std::bit_cast<uint32_t>(v));
}

void PutF64(std::vector<uint8_t>* out, double v) {
  PutU64(out, std::bit_cast<uint64_t>(v));
}

void PutF32Vec(std::vector<uint8_t>* out, const std::vector<float>& v) {
  PutU64(out, v.size());
  for (const float x : v) PutF32(out, x);
}

void PutF64Vec(std::vector<uint8_t>* out, const std::vector<double>& v) {
  PutU64(out, v.size());
  for (const double x : v) PutF64(out, x);
}

void PutI32Vec(std::vector<uint8_t>* out, const std::vector<int32_t>& v) {
  PutU64(out, v.size());
  for (const int32_t x : v) PutI32(out, x);
}

// ---- Bounds-checked reader --------------------------------------------------

Status Truncated(const char* what) {
  return Status::IoError(
      internal::StrCat("snapshot: truncated payload reading ", what));
}

class Reader {
 public:
  explicit Reader(std::span<const uint8_t> data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }

  Status ReadU64(uint64_t* v, const char* what) {
    if (remaining() < 8) return Truncated(what);
    uint64_t x = 0;
    for (int i = 0; i < 8; ++i) {
      x |= static_cast<uint64_t>(data_[pos_ + static_cast<size_t>(i)])
           << (8 * i);
    }
    pos_ += 8;
    *v = x;
    return Status::OK();
  }

  Status ReadU32(uint32_t* v, const char* what) {
    if (remaining() < 4) return Truncated(what);
    uint32_t x = 0;
    for (int i = 0; i < 4; ++i) {
      x |= static_cast<uint32_t>(data_[pos_ + static_cast<size_t>(i)])
           << (8 * i);
    }
    pos_ += 4;
    *v = x;
    return Status::OK();
  }

  Status ReadI64(int64_t* v, const char* what) {
    uint64_t u = 0;
    APAN_RETURN_NOT_OK(ReadU64(&u, what));
    *v = static_cast<int64_t>(u);
    return Status::OK();
  }

  Status ReadI32(int32_t* v, const char* what) {
    uint32_t u = 0;
    APAN_RETURN_NOT_OK(ReadU32(&u, what));
    *v = static_cast<int32_t>(u);
    return Status::OK();
  }

  Status ReadF64(double* v, const char* what) {
    uint64_t u = 0;
    APAN_RETURN_NOT_OK(ReadU64(&u, what));
    *v = std::bit_cast<double>(u);
    return Status::OK();
  }

  Status ReadF32(float* v, const char* what) {
    uint32_t u = 0;
    APAN_RETURN_NOT_OK(ReadU32(&u, what));
    *v = std::bit_cast<float>(u);
    return Status::OK();
  }

  /// Reads a vector count and validates it against the bytes remaining
  /// BEFORE any allocation, exactly as wire.cc's Reader does — a corrupt
  /// count must fail, not drive a huge reserve.
  Status ReadCount(uint64_t* count, size_t min_element_bytes,
                   const char* what) {
    APAN_RETURN_NOT_OK(ReadU64(count, what));
    const uint64_t cap =
        min_element_bytes == 0
            ? static_cast<uint64_t>(remaining())
            : static_cast<uint64_t>(remaining()) / min_element_bytes;
    if (*count > cap) {
      return Status::IoError(internal::StrCat(
          "snapshot: corrupt count for ", what, " (", *count, " elements, ",
          remaining(), " bytes left)"));
    }
    return Status::OK();
  }

  Status ReadF32Vec(std::vector<float>* v, const char* what) {
    uint64_t count = 0;
    APAN_RETURN_NOT_OK(ReadCount(&count, 4, what));
    v->resize(static_cast<size_t>(count));
    for (auto& x : *v) APAN_RETURN_NOT_OK(ReadF32(&x, what));
    return Status::OK();
  }

  Status ReadF64Vec(std::vector<double>* v, const char* what) {
    uint64_t count = 0;
    APAN_RETURN_NOT_OK(ReadCount(&count, 8, what));
    v->resize(static_cast<size_t>(count));
    for (auto& x : *v) APAN_RETURN_NOT_OK(ReadF64(&x, what));
    return Status::OK();
  }

  Status ReadI32Vec(std::vector<int32_t>* v, const char* what) {
    uint64_t count = 0;
    APAN_RETURN_NOT_OK(ReadCount(&count, 4, what));
    v->resize(static_cast<size_t>(count));
    for (auto& x : *v) APAN_RETURN_NOT_OK(ReadI32(&x, what));
    return Status::OK();
  }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

/// a*b with overflow detection — geometry fields come off disk, so their
/// products must be checked before they parameterize any comparison.
bool CheckedMul(uint64_t a, uint64_t b, uint64_t* out) {
  if (a != 0 && b > UINT64_MAX / a) return false;
  *out = a * b;
  return true;
}

/// Expected element count of a mailbox plane from the declared geometry;
/// fails on negative fields or product overflow.
Status PlaneSize(int64_t owned, int64_t a, int64_t b, const char* what,
                 uint64_t* out) {
  if (owned < 0 || a < 0 || b < 0) {
    return Status::IoError(
        internal::StrCat("snapshot: negative geometry for ", what));
  }
  uint64_t ab = 0;
  if (!CheckedMul(static_cast<uint64_t>(a), static_cast<uint64_t>(b), &ab) ||
      !CheckedMul(static_cast<uint64_t>(owned), ab, out)) {
    return Status::IoError(
        internal::StrCat("snapshot: geometry overflow for ", what));
  }
  return Status::OK();
}

Status CheckPlane(size_t got, uint64_t expected, const char* what) {
  if (static_cast<uint64_t>(got) != expected) {
    return Status::IoError(internal::StrCat(
        "snapshot: ", what, " holds ", got, " elements, geometry implies ",
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

uint32_t Crc32(std::span<const uint8_t> bytes) {
  const uint32_t* table = Crc32Table();
  uint32_t crc = 0xffffffffu;
  for (const uint8_t b : bytes) {
    crc = table[(crc ^ b) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

std::vector<uint8_t> EncodeShardSnapshot(const ShardSnapshot& snap) {
  std::vector<uint8_t> payload;
  // Identity + replay position.
  PutI32(&payload, snap.shard);
  PutI32(&payload, snap.num_shards);
  PutI64(&payload, snap.num_nodes);
  PutI64(&payload, snap.next_batch);
  PutI64(&payload, snap.next_ordinal);
  // Geometry.
  PutI64(&payload, snap.owned_nodes);
  PutI64(&payload, snap.mailbox_slots);
  PutI64(&payload, snap.mail_dim);
  PutI64(&payload, snap.state_dim);
  // Mailbox planes.
  PutF32Vec(&payload, snap.mailbox_data);
  PutF64Vec(&payload, snap.mailbox_timestamps);
  PutI32Vec(&payload, snap.mailbox_head);
  PutI32Vec(&payload, snap.mailbox_count);
  PutI32Vec(&payload, snap.mailbox_order);
  // z(t−) rows.
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
  // Replay state.
  PutI64(&payload, snap.next_merge);

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
  Reader header(bytes.subspan(0, kHeaderBytes));
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
  Reader trailer(bytes.subspan(kHeaderBytes + payload.size(), kTrailerBytes));
  uint32_t stored_crc = 0;
  APAN_RETURN_NOT_OK(trailer.ReadU32(&stored_crc, "crc32"));
  const uint32_t computed_crc = Crc32(payload);
  if (stored_crc != computed_crc) {
    return Status::IoError(internal::StrCat(
        "snapshot: CRC mismatch (stored ", stored_crc, ", computed ",
        computed_crc, ") — refusing to restore from a corrupt checkpoint"));
  }

  Reader r(payload);
  ShardSnapshot snap;
  APAN_RETURN_NOT_OK(r.ReadI32(&snap.shard, "shard"));
  APAN_RETURN_NOT_OK(r.ReadI32(&snap.num_shards, "num_shards"));
  APAN_RETURN_NOT_OK(r.ReadI64(&snap.num_nodes, "num_nodes"));
  if (snap.num_shards <= 0 || snap.shard < 0 ||
      snap.shard >= snap.num_shards) {
    return Status::IoError(internal::StrCat(
        "snapshot: shard ", snap.shard, " of ", snap.num_shards,
        " is not a valid identity"));
  }
  APAN_RETURN_NOT_OK(r.ReadI64(&snap.next_batch, "next_batch"));
  APAN_RETURN_NOT_OK(r.ReadI64(&snap.next_ordinal, "next_ordinal"));
  if (snap.next_batch < 0 || snap.next_ordinal < 0) {
    return Status::IoError("snapshot: negative replay position");
  }
  APAN_RETURN_NOT_OK(r.ReadI64(&snap.owned_nodes, "owned_nodes"));
  APAN_RETURN_NOT_OK(r.ReadI64(&snap.mailbox_slots, "mailbox_slots"));
  APAN_RETURN_NOT_OK(r.ReadI64(&snap.mail_dim, "mail_dim"));
  APAN_RETURN_NOT_OK(r.ReadI64(&snap.state_dim, "state_dim"));

  APAN_RETURN_NOT_OK(r.ReadF32Vec(&snap.mailbox_data, "mailbox_data"));
  APAN_RETURN_NOT_OK(
      r.ReadF64Vec(&snap.mailbox_timestamps, "mailbox_timestamps"));
  APAN_RETURN_NOT_OK(r.ReadI32Vec(&snap.mailbox_head, "mailbox_head"));
  APAN_RETURN_NOT_OK(r.ReadI32Vec(&snap.mailbox_count, "mailbox_count"));
  APAN_RETURN_NOT_OK(r.ReadI32Vec(&snap.mailbox_order, "mailbox_order"));
  APAN_RETURN_NOT_OK(r.ReadF32Vec(&snap.z_rows, "z_rows"));

  // The mailbox planes must agree with the declared geometry — a snapshot
  // whose vectors and geometry disagree is corrupt even if each decoded
  // cleanly on its own.
  uint64_t expected = 0;
  APAN_RETURN_NOT_OK(PlaneSize(snap.owned_nodes, snap.mailbox_slots,
                               snap.mail_dim, "mailbox_data", &expected));
  APAN_RETURN_NOT_OK(CheckPlane(snap.mailbox_data.size(), expected,
                                "mailbox_data"));
  APAN_RETURN_NOT_OK(PlaneSize(snap.owned_nodes, snap.mailbox_slots, 1,
                               "mailbox_timestamps", &expected));
  APAN_RETURN_NOT_OK(CheckPlane(snap.mailbox_timestamps.size(), expected,
                                "mailbox_timestamps"));
  APAN_RETURN_NOT_OK(CheckPlane(snap.mailbox_order.size(), expected,
                                "mailbox_order"));
  APAN_RETURN_NOT_OK(
      PlaneSize(snap.owned_nodes, 1, 1, "mailbox_head", &expected));
  APAN_RETURN_NOT_OK(CheckPlane(snap.mailbox_head.size(), expected,
                                "mailbox_head"));
  APAN_RETURN_NOT_OK(CheckPlane(snap.mailbox_count.size(), expected,
                                "mailbox_count"));
  APAN_RETURN_NOT_OK(PlaneSize(snap.owned_nodes, snap.state_dim, 1,
                               "z_rows", &expected));
  APAN_RETURN_NOT_OK(CheckPlane(snap.z_rows.size(), expected, "z_rows"));

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

  APAN_RETURN_NOT_OK(r.ReadI64(&snap.next_merge, "next_merge"));

  if (r.remaining() != 0) {
    return Status::IoError(internal::StrCat(
        "snapshot: ", r.remaining(), " trailing bytes after payload"));
  }
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
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status st = Errno("rename", tmp);
    ::unlink(tmp.c_str());
    return st;
  }
  // fsync the directory so the rename itself is durable. Best-effort on
  // exotic filesystems that refuse O_DIRECTORY opens — the data file is
  // already synced, only the directory entry's durability is at stake.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
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
