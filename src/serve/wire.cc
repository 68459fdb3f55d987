#include "serve/wire.h"

#include <algorithm>

#include "serve/codec.h"

namespace apan {
namespace serve {
namespace wire {

namespace {

// Payload kind tags. Values are part of the wire format — append only;
// 2 and 3 (the frontier protocol) and 4 (coalesced batches) are retired.
constexpr uint8_t kShardPartialKind = 1;

using codec::PutArray;
using codec::PutF64;
using codec::PutI32;
using codec::PutI64;
using codec::PutU32;
using codec::PutU64;
using codec::PutU8;
using codec::Reader;

// ---- The partial section ----------------------------------------------------
// A kind-1 body is batch | from_shard | section, and the section is a u64
// row count followed by its rows:
//
//   row := i64 recipient | u64 width | width × f32 sum | f64 newest
//          | i64 count
//
// The layout is part of wire kind 1 (tests/serve_wire_test.cc pins a
// golden frame). A row's fixed fields and floats are written with one
// bulk copy per array, and read with one bounds check per array.

/// Bytes per row besides its floats.
constexpr size_t kRowFixedBytes = 8 + 8 + 8 + 8;

size_t PayloadBytes(const ShardPartial& m) {
  return 1 + 8 + 4 + 8 + m.partial.size() * kRowFixedBytes +
         m.partial.rows.size() * sizeof(float);
}

void EncodePayloadTo(const ShardPartial& message, std::vector<uint8_t>* out) {
  const core::RowBlock& b = message.partial;
  const size_t n = b.size();
  APAN_CHECK_MSG(b.width >= 0 &&
                     b.rows.size() == n * static_cast<size_t>(b.width) &&
                     b.timestamp.size() == n && b.count.size() == n,
                 "wire: malformed row block");
  PutU8(out, kShardPartialKind);
  PutI64(out, message.batch);
  PutI32(out, message.from_shard);
  const auto width = static_cast<uint64_t>(b.width);
  PutU64(out, n);
  for (size_t i = 0; i < n; ++i) {
    PutI64(out, b.node[i]);
    PutU64(out, width);
    PutArray(out, b.row(i), b.width);
    PutF64(out, b.timestamp[i]);
    PutI64(out, b.count[i]);
  }
}

/// Decodes the body, validating what the flat block and the receiver's
/// k-way merge assume: every row has the section's one width, and the
/// run is strictly ascending by recipient.
Status DecodeBody(Reader* r, ShardPartial* m) {
  APAN_RETURN_NOT_OK(r->ReadI64(&m->batch, "partial.batch"));
  APAN_RETURN_NOT_OK(r->ReadI32(&m->from_shard, "partial.from_shard"));
  uint64_t rows = 0;
  // Min row size: the fixed fields of a zero-width row.
  APAN_RETURN_NOT_OK(r->ReadCount(&rows, kRowFixedBytes, "partial.partial"));
  const auto n = static_cast<size_t>(rows);
  core::RowBlock& b = m->partial;
  b = core::RowBlock{};
  b.node.resize(n);
  b.timestamp.resize(n);
  b.count.resize(n);
  for (size_t i = 0; i < n; ++i) {
    APAN_RETURN_NOT_OK(r->ReadI64(&b.node[i], "reduce.recipient"));
    uint64_t width = 0;
    APAN_RETURN_NOT_OK(r->ReadCount(&width, sizeof(float), "reduce.sum"));
    if (i == 0) {
      b.width = static_cast<int64_t>(width);
      // The remaining rows must fit in the bytes left, so this reserve is
      // bounded by the frame, never by a corrupt count.
      const size_t row_bytes = kRowFixedBytes + width * sizeof(float);
      b.rows.reserve(std::min(n, 1 + r->remaining() / row_bytes) * width);
    } else if (width != static_cast<uint64_t>(b.width)) {
      return Status::IoError(internal::StrCat(
          "wire: ragged reduce.sum: row ", i, " has ", width,
          " floats, the section's first row ", b.width));
    }
    const size_t at = b.rows.size();
    b.rows.resize(at + width);
    APAN_RETURN_NOT_OK(r->ReadArray(b.rows.data() + at, width, "reduce.sum"));
    APAN_RETURN_NOT_OK(r->ReadF64(&b.timestamp[i], "reduce.newest"));
    APAN_RETURN_NOT_OK(r->ReadI64(&b.count[i], "reduce.count"));
    if (i > 0 && b.node[i] <= b.node[i - 1]) {
      return Status::IoError(internal::StrCat(
          "wire: reduce.recipient not ascending at row ", i, " (", b.node[i],
          " after ", b.node[i - 1], ")"));
    }
  }
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> EncodeMessage(const ShardPartial& message) {
  std::vector<uint8_t> out;
  out.reserve(PayloadBytes(message));
  EncodePayloadTo(message, &out);
  return out;
}

Result<ShardPartial> DecodeMessage(std::span<const uint8_t> payload) {
  Reader reader(payload, "wire");
  uint8_t kind = 0;
  APAN_RETURN_NOT_OK(reader.ReadU8(&kind, "kind"));
  if (kind != kShardPartialKind) {
    return Status::IoError(internal::StrCat(
        "wire: unknown message kind ", static_cast<int>(kind)));
  }
  ShardPartial message;
  APAN_RETURN_NOT_OK(DecodeBody(&reader, &message));
  if (reader.remaining() != 0) {
    return Status::IoError(internal::StrCat(
        "wire: ", reader.remaining(), " trailing bytes after message"));
  }
  return message;
}

void AppendFrame(const ShardPartial& message, std::vector<uint8_t>* out) {
  // The frame is sized exactly before a byte is written, then encoded
  // straight into `out` — no intermediate payload buffer to copy, and no
  // reallocation (Send hits this for every cross-shard message).
  const size_t payload_size = PayloadBytes(message);
  APAN_CHECK_MSG(payload_size <= kMaxPayloadBytes,
                 "wire: frame payload exceeds kMaxPayloadBytes");
  out->reserve(out->size() + kFrameHeaderBytes + payload_size);
  PutU32(out, static_cast<uint32_t>(payload_size));
  EncodePayloadTo(message, out);
}

Result<uint32_t> DecodeFrameLength(
    std::span<const uint8_t, kFrameHeaderBytes> header) {
  uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<uint32_t>(header[static_cast<size_t>(i)])
              << (8 * i);
  }
  if (length == 0) {
    return Status::IoError("wire: zero-length frame payload");
  }
  if (length > kMaxPayloadBytes) {
    return Status::IoError(internal::StrCat(
        "wire: frame payload of ", length, " bytes exceeds the ",
        kMaxPayloadBytes, "-byte cap"));
  }
  return length;
}

}  // namespace wire
}  // namespace serve
}  // namespace apan
