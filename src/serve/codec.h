// The little-endian byte codec shared by the two serve-plane formats:
// serve/wire.h (shard-to-shard frames) and serve/snapshot.h (shard
// checkpoints). Writers append fixed-width little-endian fields to a byte
// vector; Reader is the bounds-checked decoder that never reads past its
// span and validates every vector count against the bytes left BEFORE
// allocating for it. Reader errors carry the format's prefix ("wire",
// "snapshot") so a failure names the format it came from.
//
// Everything here is inline: wire encode/decode sits on the uds hot path.
// Arrays move as bulk little-endian copies with one bounds check each, so
// a mail row or a snapshot plane costs one memcpy, not a loop of byte
// pushes.

#ifndef APAN_SERVE_CODEC_H_
#define APAN_SERVE_CODEC_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace apan {
namespace serve {
namespace codec {

// ---- Little-endian writers -------------------------------------------------
// Every writer appends through PutArray: on a little-endian host an array
// of fixed-width values *is* its wire image, so it goes in as one bulk
// byte copy; other hosts fall back to a per-byte loop. Callers that know
// a message's size reserve it first, so a whole frame is written with no
// reallocation.

namespace internal_le {

/// The unsigned integer with T's width (the carrier for byte shuffling).
template <typename T>
using Bits = std::conditional_t<
    sizeof(T) == 8, uint64_t,
    std::conditional_t<sizeof(T) == 4, uint32_t,
                       std::conditional_t<sizeof(T) == 2, uint16_t, uint8_t>>>;

template <typename T>
constexpr bool kWireScalar =
    std::is_arithmetic_v<T> && !std::is_same_v<T, bool> &&
    (sizeof(T) == 1 || sizeof(T) == 2 || sizeof(T) == 4 || sizeof(T) == 8);

}  // namespace internal_le

/// Appends `n` values of `v` as little-endian fixed-width fields.
template <typename T>
inline void PutArray(std::vector<uint8_t>* out, const T* v, size_t n) {
  static_assert(internal_le::kWireScalar<T>);
  if constexpr (std::endian::native == std::endian::little) {
    const auto* bytes = reinterpret_cast<const uint8_t*>(v);
    out->insert(out->end(), bytes, bytes + n * sizeof(T));
  } else {
    for (size_t i = 0; i < n; ++i) {
      const auto bits = std::bit_cast<internal_le::Bits<T>>(v[i]);
      for (size_t b = 0; b < sizeof(T); ++b) {
        out->push_back(static_cast<uint8_t>(bits >> (8 * b)));
      }
    }
  }
}

inline void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }
inline void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  PutArray(out, &v, 1);
}
inline void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  PutArray(out, &v, 1);
}
inline void PutI32(std::vector<uint8_t>* out, int32_t v) {
  PutArray(out, &v, 1);
}
inline void PutI64(std::vector<uint8_t>* out, int64_t v) {
  PutArray(out, &v, 1);
}
inline void PutF32(std::vector<uint8_t>* out, float v) {
  PutArray(out, &v, 1);
}
inline void PutF64(std::vector<uint8_t>* out, double v) {
  PutArray(out, &v, 1);
}

/// A vector is a u64 element count followed by the elements.
template <typename T>
inline void PutVec(std::vector<uint8_t>* out, std::span<const T> v) {
  PutU64(out, v.size());
  PutArray(out, v.data(), v.size());
}

inline void PutF32Vec(std::vector<uint8_t>* out, const std::vector<float>& v) {
  PutVec<float>(out, v);
}
inline void PutF64Vec(std::vector<uint8_t>* out,
                      const std::vector<double>& v) {
  PutVec<double>(out, v);
}
inline void PutI32Vec(std::vector<uint8_t>* out,
                      const std::vector<int32_t>& v) {
  PutVec<int32_t>(out, v);
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

  /// Reads `n` little-endian values into `v` with one bounds check for
  /// the whole array (a bulk copy on little-endian hosts).
  template <typename T>
  Status ReadArray(T* v, size_t n, const char* what) {
    static_assert(internal_le::kWireScalar<T>);
    if (n > remaining() / sizeof(T)) return Truncated(what);
    const uint8_t* src = data_.data() + pos_;
    if constexpr (std::endian::native == std::endian::little) {
      if (n != 0) std::memcpy(v, src, n * sizeof(T));
    } else {
      for (size_t i = 0; i < n; ++i) {
        internal_le::Bits<T> bits = 0;
        for (size_t b = 0; b < sizeof(T); ++b) {
          bits |= static_cast<internal_le::Bits<T>>(src[i * sizeof(T) + b])
                  << (8 * b);
        }
        v[i] = std::bit_cast<T>(bits);
      }
    }
    pos_ += n * sizeof(T);
    return Status::OK();
  }

  Status ReadU8(uint8_t* v, const char* what) { return ReadArray(v, 1, what); }
  Status ReadU32(uint32_t* v, const char* what) {
    return ReadArray(v, 1, what);
  }
  Status ReadU64(uint64_t* v, const char* what) {
    return ReadArray(v, 1, what);
  }
  Status ReadI32(int32_t* v, const char* what) { return ReadArray(v, 1, what); }
  Status ReadI64(int64_t* v, const char* what) { return ReadArray(v, 1, what); }
  Status ReadF64(double* v, const char* what) { return ReadArray(v, 1, what); }

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

  /// A vector: ReadCount, then one bulk ReadArray into the resized
  /// vector (the count was checked against the bytes left first).
  template <typename T>
  Status ReadVec(std::vector<T>* v, const char* what) {
    uint64_t count = 0;
    APAN_RETURN_NOT_OK(ReadCount(&count, sizeof(T), what));
    v->resize(static_cast<size_t>(count));
    return ReadArray(v->data(), v->size(), what);
  }

  Status ReadF32Vec(std::vector<float>* v, const char* what) {
    return ReadVec(v, what);
  }
  Status ReadF64Vec(std::vector<double>* v, const char* what) {
    return ReadVec(v, what);
  }
  Status ReadI32Vec(std::vector<int32_t>* v, const char* what) {
    return ReadVec(v, what);
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
