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

// ---- Sections ---------------------------------------------------------------
// The three ShardPartial sections share one row shape on the wire:
//
//   row := [i64 sequence] | i64 node | u64 width | width × f32
//          | [f64 timestamp | i64 count]
//
// — the bracketed fields present per section. The layout is part of wire
// kind 1 (tests/serve_wire_test.cc pins a golden frame): a row block is
// written with an exact-size reserve and one bulk copy per array, and
// read with one bounds check per array.

/// One section's row shape, named by the fields its errors report. A
/// sequenced section's run is ascending by sequence, the others' by node.
/// `name` is the row-count field; `sequence` is null when rows carry no
/// sequence, `timestamp` (and `count`) when they carry no timestamp/count.
struct Section {
  const char* name;
  const char* sequence;
  const char* node;
  const char* row;
  const char* timestamp;
  const char* count;

  bool sequenced() const { return sequence != nullptr; }
  bool timed() const { return timestamp != nullptr; }
  /// Bytes per row besides its floats.
  size_t fixed_bytes() const {
    return (sequenced() ? 8 : 0) + 8 + 8 + (timed() ? 16 : 0);
  }
};

constexpr Section kStateSection = {
    "partial.state_updates", "state_update.sequence", "state_update.node",
    "state_update.z",        nullptr,                 nullptr};
constexpr Section kHop0Section = {
    "partial.hop0",  "hop0.sequence",      "delivery.recipient",
    "delivery.mail", "delivery.timestamp", "delivery.contributions"};
constexpr Section kPartialSection = {
    "partial.partial", nullptr,         "reduce.recipient",
    "reduce.sum",      "reduce.newest", "reduce.count"};

size_t SectionBytes(const Section& section, const core::RowBlock& b) {
  return 8 + b.size() * section.fixed_bytes() + b.rows.size() * sizeof(float);
}

void EncodeSection(std::vector<uint8_t>* out, const Section& section,
                   const core::RowBlock& b) {
  const size_t n = b.size();
  APAN_CHECK_MSG(b.width >= 0 &&
                     b.rows.size() == n * static_cast<size_t>(b.width) &&
                     (!section.sequenced() || b.sequence.size() == n) &&
                     (!section.timed() ||
                      (b.timestamp.size() == n && b.count.size() == n)),
                 "wire: malformed row block");
  const auto width = static_cast<uint64_t>(b.width);
  PutU64(out, n);
  for (size_t i = 0; i < n; ++i) {
    if (section.sequenced()) PutI64(out, b.sequence[i]);
    PutI64(out, b.node[i]);
    PutU64(out, width);
    PutArray(out, b.row(i), b.width);
    if (section.timed()) {
      PutF64(out, b.timestamp[i]);
      PutI64(out, b.count[i]);
    }
  }
}

/// Decodes one section into `b`, validating what the flat block and the
/// receiver's k-way merge assume: every row has the section's one width,
/// and the run is strictly ascending by its key.
Status DecodeSection(Reader* r, const Section& section, core::RowBlock* b) {
  uint64_t rows = 0;
  // Min row size: the fixed fields of a zero-width row.
  APAN_RETURN_NOT_OK(r->ReadCount(&rows, section.fixed_bytes(), section.name));
  const auto n = static_cast<size_t>(rows);
  *b = core::RowBlock{};
  if (section.sequenced()) b->sequence.resize(n);
  b->node.resize(n);
  if (section.timed()) {
    b->timestamp.resize(n);
    b->count.resize(n);
  }
  for (size_t i = 0; i < n; ++i) {
    if (section.sequenced()) {
      APAN_RETURN_NOT_OK(r->ReadI64(&b->sequence[i], section.sequence));
    }
    APAN_RETURN_NOT_OK(r->ReadI64(&b->node[i], section.node));
    uint64_t width = 0;
    APAN_RETURN_NOT_OK(r->ReadCount(&width, sizeof(float), section.row));
    if (i == 0) {
      b->width = static_cast<int64_t>(width);
      // The remaining rows must fit in the bytes left, so this reserve is
      // bounded by the frame, never by a corrupt count.
      const size_t row_bytes = section.fixed_bytes() + width * sizeof(float);
      b->rows.reserve(std::min(n, 1 + r->remaining() / row_bytes) * width);
    } else if (width != static_cast<uint64_t>(b->width)) {
      return Status::IoError(internal::StrCat(
          "wire: ragged ", section.row, ": row ", i, " has ", width,
          " floats, the section's first row ", b->width));
    }
    const size_t at = b->rows.size();
    b->rows.resize(at + width);
    APAN_RETURN_NOT_OK(r->ReadArray(b->rows.data() + at, width, section.row));
    if (section.timed()) {
      APAN_RETURN_NOT_OK(r->ReadF64(&b->timestamp[i], section.timestamp));
      APAN_RETURN_NOT_OK(r->ReadI64(&b->count[i], section.count));
    }
    if (i > 0) {
      const std::vector<int64_t>& key =
          section.sequenced() ? b->sequence : b->node;
      if (key[i] <= key[i - 1]) {
        return Status::IoError(internal::StrCat(
            "wire: ", section.sequenced() ? section.sequence : section.node,
            " not ascending at row ", i, " (", key[i], " after ", key[i - 1],
            ")"));
      }
    }
  }
  return Status::OK();
}

// ---- Per-kind bodies -------------------------------------------------------

size_t PayloadBytes(const ShardPartial& m) {
  return 1 + 8 + 4 + SectionBytes(kStateSection, m.state) +
         SectionBytes(kHop0Section, m.hop0) +
         SectionBytes(kPartialSection, m.partial);
}

void EncodePayloadTo(const ShardPartial& message, std::vector<uint8_t>* out) {
  PutU8(out, kShardPartialKind);
  PutI64(out, message.batch);
  PutI32(out, message.from_shard);
  EncodeSection(out, kStateSection, message.state);
  EncodeSection(out, kHop0Section, message.hop0);
  EncodeSection(out, kPartialSection, message.partial);
}

Status DecodeBody(Reader* r, ShardPartial* m) {
  APAN_RETURN_NOT_OK(r->ReadI64(&m->batch, "partial.batch"));
  APAN_RETURN_NOT_OK(r->ReadI32(&m->from_shard, "partial.from_shard"));
  APAN_RETURN_NOT_OK(DecodeSection(r, kStateSection, &m->state));
  APAN_RETURN_NOT_OK(DecodeSection(r, kHop0Section, &m->hop0));
  return DecodeSection(r, kPartialSection, &m->partial);
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
