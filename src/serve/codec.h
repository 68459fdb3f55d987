// The little-endian byte codec shared by the two serve-plane formats:
// serve/wire.h (shard-to-shard frames) and serve/snapshot.h (shard
// checkpoints). Writers append fixed-width little-endian fields to a byte
// vector; Reader is the bounds-checked decoder that never reads past its
// span and validates every vector count against the bytes left BEFORE
// allocating for it. Reader errors carry the format's prefix ("wire",
// "snapshot") so a failure names the format it came from.
//
// Everything here is inline: wire encode/decode sits on the uds hot path,
// so the field loops must compile into the calling TU exactly as the
// per-format copies they replaced did.

#ifndef APAN_SERVE_CODEC_H_
#define APAN_SERVE_CODEC_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/status.h"

namespace apan {
namespace serve {
namespace codec {

// ---- Little-endian writers -------------------------------------------------

inline void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

inline void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

inline void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

inline void PutI32(std::vector<uint8_t>* out, int32_t v) {
  PutU32(out, static_cast<uint32_t>(v));
}

inline void PutI64(std::vector<uint8_t>* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

inline void PutF32(std::vector<uint8_t>* out, float v) {
  PutU32(out, std::bit_cast<uint32_t>(v));
}

inline void PutF64(std::vector<uint8_t>* out, double v) {
  PutU64(out, std::bit_cast<uint64_t>(v));
}

/// A vector is a u64 element count followed by the elements.
inline void PutF32Vec(std::vector<uint8_t>* out, const std::vector<float>& v) {
  PutU64(out, v.size());
  for (const float x : v) PutF32(out, x);
}

inline void PutF64Vec(std::vector<uint8_t>* out,
                      const std::vector<double>& v) {
  PutU64(out, v.size());
  for (const double x : v) PutF64(out, x);
}

inline void PutI32Vec(std::vector<uint8_t>* out,
                      const std::vector<int32_t>& v) {
  PutU64(out, v.size());
  for (const int32_t x : v) PutI32(out, x);
}

// ---- Bounds-checked reader -------------------------------------------------

/// \brief Decodes fields front to back from a byte span. Every read fails
/// with IoError("<prefix>: ...") instead of running past the end.
class Reader {
 public:
  /// `prefix` names the format in error messages; it must outlive the
  /// reader (callers pass a string literal).
  Reader(std::span<const uint8_t> data, const char* prefix)
      : data_(data), prefix_(prefix) {}

  size_t remaining() const { return data_.size() - pos_; }

  Status ReadU8(uint8_t* v, const char* what) {
    if (remaining() < 1) return Truncated(what);
    *v = data_[pos_++];
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

  Status ReadI32(int32_t* v, const char* what) {
    uint32_t u = 0;
    APAN_RETURN_NOT_OK(ReadU32(&u, what));
    *v = static_cast<int32_t>(u);
    return Status::OK();
  }

  Status ReadI64(int64_t* v, const char* what) {
    uint64_t u = 0;
    APAN_RETURN_NOT_OK(ReadU64(&u, what));
    *v = static_cast<int64_t>(u);
    return Status::OK();
  }

  Status ReadF32(float* v, const char* what) {
    uint32_t u = 0;
    APAN_RETURN_NOT_OK(ReadU32(&u, what));
    *v = std::bit_cast<float>(u);
    return Status::OK();
  }

  Status ReadF64(double* v, const char* what) {
    uint64_t u = 0;
    APAN_RETURN_NOT_OK(ReadU64(&u, what));
    *v = std::bit_cast<double>(u);
    return Status::OK();
  }

  /// Reads a vector count and validates it against the bytes remaining:
  /// a count claiming more than remaining()/min_element_bytes elements
  /// (remaining() when min_element_bytes is 0) cannot be satisfied, so it
  /// is rejected *before* any allocation — a corrupt count must not drive
  /// a huge reserve.
  Status ReadCount(uint64_t* count, size_t min_element_bytes,
                   const char* what) {
    APAN_RETURN_NOT_OK(ReadU64(count, what));
    const uint64_t cap =
        min_element_bytes == 0
            ? static_cast<uint64_t>(remaining())
            : static_cast<uint64_t>(remaining()) / min_element_bytes;
    if (*count > cap) {
      return Status::IoError(internal::StrCat(
          prefix_, ": corrupt count for ", what, " (", *count,
          " elements, ", remaining(), " bytes left)"));
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
  Status Truncated(const char* what) const {
    return Status::IoError(
        internal::StrCat(prefix_, ": truncated payload reading ", what));
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  const char* prefix_;
};

}  // namespace codec
}  // namespace serve
}  // namespace apan

#endif  // APAN_SERVE_CODEC_H_
