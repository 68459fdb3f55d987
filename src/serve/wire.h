// Binary wire format for ShardPartial — the serialization boundary of the
// transport plane (docs/serving.md, "Transport plane").
//
// A message travels as a length-prefixed frame:
//
//   frame   := u32 payload_length | payload
//   payload := u8 kind | body
//
// Kind 1 is a ShardPartial. Kinds 2 and 3 carried the retired frontier
// request/response protocol and kind 4 a coalesced batch of messages;
// none is reused, and all decode as unknown. (An engine sends exactly one
// partial per peer per batch, so there is nothing to coalesce.)
//
// All integers are little-endian fixed-width. Vectors are a u64 count
// followed by the elements. A kind-1 body is
//
//   body := i64 batch | i32 from_shard | hops
//   hops := u64 offsets | offsets × u32 offset | u64 nodes | nodes × i64 node
//
// `hops` is the message's core::HopList in CSR form: event r's hop nodes
// are node[offset[r], offset[r + 1]). Offsets are u32 because a frame
// is capped at kMaxPayloadBytes, far below 2^32 eight-byte nodes. Only
// ids cross shards — no float does — so a partial has no other section;
// the kind stays 1 because the engines at both ends of a lane are always
// one binary.
//
// Decoding is defensive: every read is bounds-checked, vector counts are
// validated against the bytes actually remaining before any allocation,
// and a payload with trailing bytes is rejected — a truncated or corrupt
// frame yields a non-OK Status, never UB. Decoding also validates what
// the recipient reads blind: the offsets start at 0 and never decrease,
// and the node count equals the last offset (zero when there are no
// offsets), checked before the node column is allocated. Encoders and
// decoders are pure functions with no shared state; they are safe to call
// from any thread.

#ifndef APAN_SERVE_WIRE_H_
#define APAN_SERVE_WIRE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "serve/shard_message.h"
#include "util/status.h"

namespace apan {
namespace serve {
namespace wire {

/// Bytes of the frame length prefix (u32 little-endian).
inline constexpr size_t kFrameHeaderBytes = 4;

/// Upper bound on a frame payload. Far above any real batch (a 200-event
/// batch's largest hop list is tens of KiB); its job is to make a
/// corrupt length prefix fail fast instead of driving a giant allocation.
inline constexpr uint32_t kMaxPayloadBytes = 256u * 1024u * 1024u;

/// \brief Serializes one message into its payload form (kind byte + body,
/// no length prefix).
std::vector<uint8_t> EncodeMessage(const ShardPartial& message);

/// \brief Parses a payload produced by EncodeMessage. Rejects unknown
/// kinds, truncation anywhere, oversized vector counts, offsets that do not
/// start at 0 or decrease, a node count other than the last offset, and
/// trailing bytes.
Result<ShardPartial> DecodeMessage(std::span<const uint8_t> payload);

/// \brief Appends a full frame (length prefix + payload) for `message` to
/// `out` — the unit a stream transport writes.
void AppendFrame(const ShardPartial& message, std::vector<uint8_t>* out);

/// \brief Reads the payload length from a frame header. Rejects zero (a
/// payload always holds at least the kind byte) and lengths above
/// kMaxPayloadBytes.
Result<uint32_t> DecodeFrameLength(
    std::span<const uint8_t, kFrameHeaderBytes> header);

}  // namespace wire
}  // namespace serve
}  // namespace apan

#endif  // APAN_SERVE_WIRE_H_
