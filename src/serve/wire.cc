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

using codec::PutI32;
using codec::PutI64;
using codec::PutU32;
using codec::PutU8;
using codec::PutVec;
using codec::Reader;

// ---- The hop-list section --------------------------------------------------
// A kind-1 body is batch | from_shard | hop list, and the hop list is a
// CSR pair of vectors (wire.h spells out the grammar):
//
//   hops := u64 offsets | offsets × u32 offset | u64 nodes | nodes × i64 node
//
// Each vector is one bulk copy on encode and one bounds check on decode.
// The layout is part of wire kind 1 (tests/serve_wire_test.cc pins a
// golden frame built from this grammar by hand).

size_t PayloadBytes(const ShardPartial& m) {
  return 1 + 8 + 4 + 8 + m.hops.offset.size() * sizeof(uint32_t) + 8 +
         m.hops.node.size() * sizeof(graph::NodeId);
}

void EncodePayloadTo(const ShardPartial& message, std::vector<uint8_t>* out) {
  APAN_CHECK_MSG(message.hops.WellFormed(), "wire: malformed hop list");
  PutU8(out, kShardPartialKind);
  PutI64(out, message.batch);
  PutI32(out, message.from_shard);
  PutVec<uint32_t>(out, message.hops.offset);
  PutVec<graph::NodeId>(out, message.hops.node);
}

/// Decodes the body, validating what the recipient's merge reads blind:
/// the offsets start at 0 and never decrease, and the node count equals
/// the last offset — checked before the node column is allocated.
Status DecodeBody(Reader* r, ShardPartial* m) {
  APAN_RETURN_NOT_OK(r->ReadI64(&m->batch, "partial.batch"));
  APAN_RETURN_NOT_OK(r->ReadI32(&m->from_shard, "partial.from_shard"));
  core::HopList& hops = m->hops;
  APAN_RETURN_NOT_OK(r->ReadVec(&hops.offset, "partial.hops.offset"));
  if (!hops.offset.empty() &&
      (hops.offset.front() != 0 ||
       !std::is_sorted(hops.offset.begin(), hops.offset.end()))) {
    return Status::IoError("wire: partial.hops.offset not monotone from 0");
  }
  uint64_t nodes = 0;
  APAN_RETURN_NOT_OK(
      r->ReadCount(&nodes, sizeof(graph::NodeId), "partial.hops.node"));
  const uint64_t last = hops.offset.empty() ? 0 : hops.offset.back();
  if (nodes != last) {
    return Status::IoError(internal::StrCat(
        "wire: partial.hops.node holds ", nodes,
        " entries, the last offset says ", last));
  }
  hops.node.resize(static_cast<size_t>(nodes));
  return r->ReadArray(hops.node.data(), hops.node.size(), "partial.hops.node");
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
