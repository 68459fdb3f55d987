#include "serve/wire.h"

#include <bit>
#include <cstring>

namespace apan {
namespace serve {
namespace wire {

namespace {

// Payload kind tags. Values are part of the wire format — append only;
// 2 and 3 (the frontier protocol) and 4 (coalesced batches) are retired.
constexpr uint8_t kShardPartialKind = 1;

// ---- Little-endian writers -------------------------------------------------

void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

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

void PutDelivery(std::vector<uint8_t>* out, const core::MailDelivery& d) {
  PutI64(out, d.recipient);
  PutF32Vec(out, d.mail);
  PutF64(out, d.timestamp);
  PutI64(out, d.contributions);
}

// ---- Bounds-checked reader -------------------------------------------------

Status Truncated(const char* what) {
  return Status::IoError(
      internal::StrCat("wire: truncated payload reading ", what));
}

class Reader {
 public:
  explicit Reader(std::span<const uint8_t> data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }

  Status ReadU8(uint8_t* v, const char* what) {
    if (remaining() < 1) return Truncated(what);
    *v = data_[pos_++];
    return Status::OK();
  }

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

  /// Hands out the next `n` bytes as a view without copying (batch
  /// elements decode in place from the enclosing payload).
  Status ReadSpan(size_t n, std::span<const uint8_t>* out, const char* what) {
    if (remaining() < n) return Truncated(what);
    *out = data_.subspan(pos_, n);
    pos_ += n;
    return Status::OK();
  }

  /// Reads a vector count and validates it against the bytes remaining:
  /// a count claiming more than remaining()/min_element_bytes elements
  /// cannot be satisfied, so it is rejected *before* any allocation (a
  /// corrupt count must not drive a huge reserve).
  Status ReadCount(uint64_t* count, size_t min_element_bytes,
                   const char* what) {
    APAN_RETURN_NOT_OK(ReadU64(count, what));
    const uint64_t cap =
        min_element_bytes == 0
            ? static_cast<uint64_t>(remaining())
            : static_cast<uint64_t>(remaining()) / min_element_bytes;
    if (*count > cap) {
      return Status::IoError(internal::StrCat(
          "wire: corrupt count for ", what, " (", *count, " elements, ",
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

  Status ReadDelivery(core::MailDelivery* d) {
    APAN_RETURN_NOT_OK(ReadI64(&d->recipient, "delivery.recipient"));
    APAN_RETURN_NOT_OK(ReadF32Vec(&d->mail, "delivery.mail"));
    APAN_RETURN_NOT_OK(ReadF64(&d->timestamp, "delivery.timestamp"));
    APAN_RETURN_NOT_OK(ReadI64(&d->contributions, "delivery.contributions"));
    return Status::OK();
  }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

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
    APAN_RETURN_NOT_OK(r->ReadDelivery(&t.delivery));
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
  Reader reader(payload);
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
