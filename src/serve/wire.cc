#include "serve/wire.h"

#include "serve/codec.h"

namespace apan {
namespace serve {
namespace wire {

namespace {

// Payload kind tags. Values are part of the wire format — append only;
// 2 and 3 (the frontier protocol) and 4 (coalesced batches) are retired.
constexpr uint8_t kShardPartialKind = 1;

using codec::PutF32Vec;
using codec::PutF64;
using codec::PutI32;
using codec::PutI64;
using codec::PutU32;
using codec::PutU64;
using codec::PutU8;
using codec::Reader;

void PutDelivery(std::vector<uint8_t>* out, const core::MailDelivery& d) {
  PutI64(out, d.recipient);
  PutF32Vec(out, d.mail);
  PutF64(out, d.timestamp);
  PutI64(out, d.contributions);
}

Status ReadDelivery(Reader* r, core::MailDelivery* d) {
  APAN_RETURN_NOT_OK(r->ReadI64(&d->recipient, "delivery.recipient"));
  APAN_RETURN_NOT_OK(r->ReadF32Vec(&d->mail, "delivery.mail"));
  APAN_RETURN_NOT_OK(r->ReadF64(&d->timestamp, "delivery.timestamp"));
  APAN_RETURN_NOT_OK(r->ReadI64(&d->contributions, "delivery.contributions"));
  return Status::OK();
}

// ---- Per-kind bodies -------------------------------------------------------

void EncodeBody(std::vector<uint8_t>* out, const ShardPartial& m) {
  PutI64(out, m.batch);
  PutI32(out, m.from_shard);
  PutU64(out, m.state_updates.size());
  for (const StateUpdate& u : m.state_updates) {
    PutI64(out, u.sequence);
    PutI64(out, u.node);
    PutF32Vec(out, u.z);
  }
  PutU64(out, m.hop0.size());
  for (const core::PartialPropagation::TaggedDelivery& t : m.hop0) {
    PutI64(out, t.sequence);
    PutDelivery(out, t.delivery);
  }
  PutU64(out, m.partial.size());
  for (const core::PartialPropagation::PartialReduce& p : m.partial) {
    PutI64(out, p.recipient);
    PutF32Vec(out, p.sum);
    PutF64(out, p.newest);
    PutI64(out, p.count);
  }
}

Status DecodeBody(Reader* r, ShardPartial* m) {
  APAN_RETURN_NOT_OK(r->ReadI64(&m->batch, "partial.batch"));
  APAN_RETURN_NOT_OK(r->ReadI32(&m->from_shard, "partial.from_shard"));
  uint64_t count = 0;
  // Min element sizes are each struct's fixed fields plus its empty
  // vectors' count words.
  APAN_RETURN_NOT_OK(r->ReadCount(&count, 24, "partial.state_updates"));
  m->state_updates.resize(static_cast<size_t>(count));
  for (StateUpdate& u : m->state_updates) {
    APAN_RETURN_NOT_OK(r->ReadI64(&u.sequence, "state_update.sequence"));
    APAN_RETURN_NOT_OK(r->ReadI64(&u.node, "state_update.node"));
    APAN_RETURN_NOT_OK(r->ReadF32Vec(&u.z, "state_update.z"));
  }
  APAN_RETURN_NOT_OK(r->ReadCount(&count, 40, "partial.hop0"));
  m->hop0.resize(static_cast<size_t>(count));
  for (core::PartialPropagation::TaggedDelivery& t : m->hop0) {
    APAN_RETURN_NOT_OK(r->ReadI64(&t.sequence, "hop0.sequence"));
    APAN_RETURN_NOT_OK(ReadDelivery(r, &t.delivery));
  }
  APAN_RETURN_NOT_OK(r->ReadCount(&count, 32, "partial.partial"));
  m->partial.resize(static_cast<size_t>(count));
  for (core::PartialPropagation::PartialReduce& p : m->partial) {
    APAN_RETURN_NOT_OK(r->ReadI64(&p.recipient, "reduce.recipient"));
    APAN_RETURN_NOT_OK(r->ReadF32Vec(&p.sum, "reduce.sum"));
    APAN_RETURN_NOT_OK(r->ReadF64(&p.newest, "reduce.newest"));
    APAN_RETURN_NOT_OK(r->ReadI64(&p.count, "reduce.count"));
  }
  return Status::OK();
}

void EncodePayloadTo(const ShardPartial& message, std::vector<uint8_t>* out) {
  PutU8(out, kShardPartialKind);
  EncodeBody(out, message);
}

}  // namespace

std::vector<uint8_t> EncodeMessage(const ShardPartial& message) {
  std::vector<uint8_t> out;
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
  // Encode the payload straight into `out` after a length slot that is
  // patched afterwards — the frame is built once, with no intermediate
  // payload buffer to copy (Send hits this for every cross-shard message).
  const size_t header_at = out->size();
  PutU32(out, 0);
  EncodePayloadTo(message, out);
  const size_t payload_size = out->size() - header_at - kFrameHeaderBytes;
  APAN_CHECK_MSG(payload_size <= kMaxPayloadBytes,
                 "wire: frame payload exceeds kMaxPayloadBytes");
  for (int i = 0; i < 4; ++i) {
    (*out)[header_at + static_cast<size_t>(i)] =
        static_cast<uint8_t>(payload_size >> (8 * i));
  }
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
