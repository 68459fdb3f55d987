// Kernel implementations. Three tiers share one numeric contract:
//
//   * reductions accumulate in fixed 8-lane blocked order (lane l takes
//     elements l, l+8, ...; a trailing partial block fills lanes 0..r-1)
//     and the lanes combine in one fixed binary tree;
//   * multiplies and adds stay separate operations (this file is built
//     with -ffp-contract=off so neither the compiler nor an FMA-capable
//     ISA can fuse them);
//   * per-row outputs read only that row's inputs.
//
// Under that contract the scalar, AVX2 and NEON tiers are bitwise
// interchangeable, which is what lets the dispatcher pick freely at
// startup without perturbing the serving tier's determinism tests.

#include "tensor/kernels.h"

#include <cmath>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define APAN_KERNELS_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#define APAN_KERNELS_NEON 1
#include <arm_neon.h>
#endif

namespace apan {
namespace tensor {
namespace kernels {

namespace {

/// Fixed combine tree for 8 blocked lanes (shared by every tier).
inline float Tree8(const float* l) {
  return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
}

}  // namespace

// ---- Naive serial reference -------------------------------------------------

namespace reference {

void MatMul(const float* a, const float* b, float* c, int64_t n, int64_t k,
            int64_t m) {
  for (int64_t i = 0; i < n; ++i) {
    float* crow = c + i * m;
    for (int64_t j = 0; j < m; ++j) crow[j] = 0.0f;
    const float* arow = a + i * k;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float aik = arow[kk];
      const float* brow = b + kk * m;
      for (int64_t j = 0; j < m; ++j) crow[j] += aik * brow[j];
    }
  }
}

void Bmm(const float* a, const float* b, float* c, int64_t bs, int64_t n,
         int64_t k, int64_t m) {
  for (int64_t t = 0; t < bs; ++t) {
    MatMul(a + t * n * k, b + t * k * m, c + t * n * m, n, k, m);
  }
}

void SoftmaxLastDim(const float* x, float* y, int64_t rows, int64_t d) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * d;
    float* yr = y + r * d;
    float mx = xr[0];
    for (int64_t j = 1; j < d; ++j) mx = std::max(mx, xr[j]);
    float sum = 0.0f;
    for (int64_t j = 0; j < d; ++j) {
      yr[j] = std::exp(xr[j] - mx);
      sum += yr[j];
    }
    const float inv = 1.0f / sum;
    for (int64_t j = 0; j < d; ++j) yr[j] *= inv;
  }
}

void RowNormalize(const float* x, float* y, int64_t rows, int64_t d,
                  float eps, float* inv_sigma) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * d;
    float* yr = y + r * d;
    float mu = 0.0f;
    for (int64_t j = 0; j < d; ++j) mu += xr[j];
    mu /= static_cast<float>(d);
    float var = 0.0f;
    for (int64_t j = 0; j < d; ++j) var += (xr[j] - mu) * (xr[j] - mu);
    var /= static_cast<float>(d);
    const float inv = 1.0f / std::sqrt(var + eps);
    if (inv_sigma != nullptr) inv_sigma[r] = inv;
    for (int64_t j = 0; j < d; ++j) yr[j] = (xr[j] - mu) * inv;
  }
}

void AddBiasRelu(const float* x, const float* bias, float* y, int64_t rows,
                 int64_t d) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * d;
    float* yr = y + r * d;
    for (int64_t j = 0; j < d; ++j) {
      const float v = xr[j] + bias[j];
      yr[j] = v > 0.0f ? v : 0.0f;
    }
  }
}

float Dot(const float* a, const float* b, int64_t n) {
  float s = 0.0f;
  for (int64_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

}  // namespace reference

// ---- Portable blocked-scalar tier -------------------------------------------

namespace scalar {

namespace {

inline float BlockedDot(const float* a, const float* b, int64_t n) {
  float acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int l = 0; l < 8; ++l) acc[l] += a[i + l] * b[i + l];
  }
  for (int l = 0; i < n; ++i, ++l) acc[l] += a[i] * b[i];
  return Tree8(acc);
}

inline float BlockedSum(const float* a, int64_t n) {
  float acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int l = 0; l < 8; ++l) acc[l] += a[i + l];
  }
  for (int l = 0; i < n; ++i, ++l) acc[l] += a[i];
  return Tree8(acc);
}

inline float BlockedSqDiffSum(const float* a, float mu, int64_t n) {
  float acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int l = 0; l < 8; ++l) {
      const float t = a[i + l] - mu;
      acc[l] += t * t;
    }
  }
  for (int l = 0; i < n; ++i, ++l) {
    const float t = a[i] - mu;
    acc[l] += t * t;
  }
  return Tree8(acc);
}

/// Softmax of one row into yr; xr may equal yr. `add` (nullable) is an
/// additive pre-softmax term (the attention mask).
inline void SoftmaxRow(const float* xr, const float* add, float* yr,
                       int64_t d) {
  if (add != nullptr) {
    for (int64_t j = 0; j < d; ++j) yr[j] = xr[j] + add[j];
    xr = yr;
  }
  float mx = xr[0];
  for (int64_t j = 1; j < d; ++j) mx = std::max(mx, xr[j]);
  for (int64_t j = 0; j < d; ++j) yr[j] = std::exp(xr[j] - mx);
  const float inv = 1.0f / BlockedSum(yr, d);
  for (int64_t j = 0; j < d; ++j) yr[j] *= inv;
}

}  // namespace

void MatMul(const float* a, const float* b, float* c, int64_t n, int64_t k,
            int64_t m) {
  // Serial-over-k accumulation per element == the reference ikj order.
  reference::MatMul(a, b, c, n, k, m);
}

void Bmm(const float* a, const float* b, float* c, int64_t bs, int64_t n,
         int64_t k, int64_t m) {
  for (int64_t t = 0; t < bs; ++t) {
    MatMul(a + t * n * k, b + t * k * m, c + t * n * m, n, k, m);
  }
}

void SoftmaxLastDim(const float* x, float* y, int64_t rows, int64_t d) {
  for (int64_t r = 0; r < rows; ++r) {
    SoftmaxRow(x + r * d, nullptr, y + r * d, d);
  }
}

void MaskedSoftmax(const float* scores, const float* mask, float* y,
                   int64_t b, int64_t m) {
  for (int64_t bi = 0; bi < b; ++bi) {
    SoftmaxRow(scores + bi * m, mask != nullptr ? mask + bi * m : nullptr,
               y + bi * m, m);
  }
}

void RowNormalize(const float* x, float* y, int64_t rows, int64_t d,
                  float eps, float* inv_sigma) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * d;
    float* yr = y + r * d;
    const float mu = BlockedSum(xr, d) / static_cast<float>(d);
    const float var = BlockedSqDiffSum(xr, mu, d) / static_cast<float>(d);
    const float inv = 1.0f / std::sqrt(var + eps);
    if (inv_sigma != nullptr) inv_sigma[r] = inv;
    for (int64_t j = 0; j < d; ++j) yr[j] = (xr[j] - mu) * inv;
  }
}

void AddBiasRelu(const float* x, const float* bias, float* y, int64_t rows,
                 int64_t d) {
  reference::AddBiasRelu(x, bias, y, rows, d);
}

void AddBias(const float* x, const float* bias, float* y, int64_t rows,
             int64_t d) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * d;
    float* yr = y + r * d;
    for (int64_t j = 0; j < d; ++j) yr[j] = xr[j] + bias[j];
  }
}

void AddSame(const float* a, const float* b, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = a[i] + b[i];
}

float Dot(const float* a, const float* b, int64_t n) {
  return BlockedDot(a, b, n);
}

void AttentionScores(const float* q, const float* k, float* scores,
                     int64_t b, int64_t m, int64_t d, float scale) {
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t s = 0; s < m; ++s) {
      scores[bi * m + s] =
          scale * BlockedDot(q + bi * d, k + (bi * m + s) * d, d);
    }
  }
}

void AttentionContext(const float* attn, const float* v, float* ctx,
                      int64_t b, int64_t m, int64_t d) {
  for (int64_t bi = 0; bi < b; ++bi) {
    const float* arow = attn + bi * m;
    float* out = ctx + bi * d;
    for (int64_t j = 0; j < d; ++j) out[j] = 0.0f;
    for (int64_t s = 0; s < m; ++s) {
      const float w = arow[s];
      const float* vrow = v + (bi * m + s) * d;
      for (int64_t j = 0; j < d; ++j) out[j] += w * vrow[j];
    }
  }
}

void ResidualLayerNorm(const float* x, const float* residual,
                       const float* gain, const float* bias, float* y,
                       int64_t rows, int64_t d, float eps) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * d;
    const float* rr = residual + r * d;
    float* yr = y + r * d;
    for (int64_t j = 0; j < d; ++j) yr[j] = xr[j] + rr[j];
    const float mu = BlockedSum(yr, d) / static_cast<float>(d);
    const float var = BlockedSqDiffSum(yr, mu, d) / static_cast<float>(d);
    const float inv = 1.0f / std::sqrt(var + eps);
    for (int64_t j = 0; j < d; ++j) {
      yr[j] = ((yr[j] - mu) * inv) * gain[j] + bias[j];
    }
  }
}

void SegmentRowSums(const float* x, const uint32_t* index,
                    const uint32_t* offset, int64_t groups, int64_t d,
                    float* y) {
  for (int64_t g = 0; g < groups; ++g) {
    float* out = y + g * d;
    for (int64_t j = 0; j < d; ++j) out[j] = 0.0f;
    for (uint32_t k = offset[g]; k < offset[g + 1]; ++k) {
      const float* row = x + static_cast<int64_t>(index[k]) * d;
      for (int64_t j = 0; j < d; ++j) out[j] += row[j];
    }
  }
}

}  // namespace scalar

// ---- AVX2 tier --------------------------------------------------------------

#if defined(APAN_KERNELS_X86)

namespace avx2 {

namespace {

/// Lanes of `acc` plus a trailing partial block folded into lanes
/// 0..tail_n-1, combined by the shared tree. `tail(t)` yields term t.
template <typename TailFn>
__attribute__((target("avx2"))) inline float ReduceBlocked(__m256 acc,
                                                           int64_t tail_n,
                                                           TailFn tail) {
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  for (int64_t t = 0; t < tail_n; ++t) lanes[t] += tail(t);
  return Tree8(lanes);
}

__attribute__((target("avx2"))) inline float BlockedDot(const float* a,
                                                        const float* b,
                                                        int64_t n) {
  __m256 acc = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_add_ps(
        acc, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  const int64_t base = i;
  return ReduceBlocked(acc, n - base,
                       [&](int64_t t) { return a[base + t] * b[base + t]; });
}

__attribute__((target("avx2"))) inline float BlockedSum(const float* a,
                                                        int64_t n) {
  __m256 acc = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) acc = _mm256_add_ps(acc, _mm256_loadu_ps(a + i));
  const int64_t base = i;
  return ReduceBlocked(acc, n - base, [&](int64_t t) { return a[base + t]; });
}

__attribute__((target("avx2"))) inline float BlockedSqDiffSum(const float* a,
                                                              float mu,
                                                              int64_t n) {
  __m256 acc = _mm256_setzero_ps();
  const __m256 vmu = _mm256_set1_ps(mu);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 t = _mm256_sub_ps(_mm256_loadu_ps(a + i), vmu);
    acc = _mm256_add_ps(acc, _mm256_mul_ps(t, t));
  }
  const int64_t base = i;
  return ReduceBlocked(acc, n - base, [&](int64_t t) {
    const float v = a[base + t] - mu;
    return v * v;
  });
}

__attribute__((target("avx2"))) inline void SoftmaxRow(const float* xr,
                                                       const float* add,
                                                       float* yr, int64_t d) {
  if (add != nullptr) {
    int64_t j = 0;
    for (; j + 8 <= d; j += 8) {
      _mm256_storeu_ps(yr + j, _mm256_add_ps(_mm256_loadu_ps(xr + j),
                                             _mm256_loadu_ps(add + j)));
    }
    for (; j < d; ++j) yr[j] = xr[j] + add[j];
    xr = yr;
  }
  float mx = xr[0];
  for (int64_t j = 1; j < d; ++j) mx = std::max(mx, xr[j]);
  for (int64_t j = 0; j < d; ++j) yr[j] = std::exp(xr[j] - mx);
  const float inv = 1.0f / BlockedSum(yr, d);
  const __m256 vinv = _mm256_set1_ps(inv);
  int64_t j = 0;
  for (; j + 8 <= d; j += 8) {
    _mm256_storeu_ps(yr + j, _mm256_mul_ps(_mm256_loadu_ps(yr + j), vinv));
  }
  for (; j < d; ++j) yr[j] *= inv;
}

}  // namespace

__attribute__((target("avx2"))) void MatMul(const float* a, const float* b,
                                            float* c, int64_t n, int64_t k,
                                            int64_t m) {
  // Register tiles over the output; each C element still accumulates
  // serially over k, so every tile is bitwise the ikj order. Columns
  // [0, m32) take four-register tiles row by row; [m32, m16) take 16-wide
  // tiles over two rows at once, so a narrow output (a per-head m = 16
  // GEMM) still runs four independent chains instead of one.
  const int64_t m32 = m - m % 32;
  const int64_t m16 = m32 + (m - m32) / 16 * 16;
  for (int64_t i = 0; i < n; i += 2) {
    const bool pair = i + 1 < n;
    for (int64_t r = i; r < (pair ? i + 2 : i + 1); ++r) {
      const float* arow = a + r * k;
      float* crow = c + r * m;
      for (int64_t j = 0; j < m32; j += 32) {
        __m256 c0 = _mm256_setzero_ps();
        __m256 c1 = _mm256_setzero_ps();
        __m256 c2 = _mm256_setzero_ps();
        __m256 c3 = _mm256_setzero_ps();
        for (int64_t kk = 0; kk < k; ++kk) {
          const __m256 av = _mm256_set1_ps(arow[kk]);
          const float* brow = b + kk * m + j;
          c0 = _mm256_add_ps(c0, _mm256_mul_ps(av, _mm256_loadu_ps(brow)));
          c1 = _mm256_add_ps(c1,
                             _mm256_mul_ps(av, _mm256_loadu_ps(brow + 8)));
          c2 = _mm256_add_ps(c2,
                             _mm256_mul_ps(av, _mm256_loadu_ps(brow + 16)));
          c3 = _mm256_add_ps(c3,
                             _mm256_mul_ps(av, _mm256_loadu_ps(brow + 24)));
        }
        _mm256_storeu_ps(crow + j, c0);
        _mm256_storeu_ps(crow + j + 8, c1);
        _mm256_storeu_ps(crow + j + 16, c2);
        _mm256_storeu_ps(crow + j + 24, c3);
      }
    }
    const float* a0 = a + i * k;
    const float* a1 = pair ? a0 + k : a0;  // a lone last row runs twice
    for (int64_t j = m32; j < m16; j += 16) {
      __m256 c00 = _mm256_setzero_ps();
      __m256 c01 = _mm256_setzero_ps();
      __m256 c10 = _mm256_setzero_ps();
      __m256 c11 = _mm256_setzero_ps();
      for (int64_t kk = 0; kk < k; ++kk) {
        const float* brow = b + kk * m + j;
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        const __m256 av0 = _mm256_set1_ps(a0[kk]);
        const __m256 av1 = _mm256_set1_ps(a1[kk]);
        c00 = _mm256_add_ps(c00, _mm256_mul_ps(av0, b0));
        c01 = _mm256_add_ps(c01, _mm256_mul_ps(av0, b1));
        c10 = _mm256_add_ps(c10, _mm256_mul_ps(av1, b0));
        c11 = _mm256_add_ps(c11, _mm256_mul_ps(av1, b1));
      }
      float* crow = c + i * m + j;
      _mm256_storeu_ps(crow, c00);
      _mm256_storeu_ps(crow + 8, c01);
      if (pair) {
        _mm256_storeu_ps(crow + m, c10);
        _mm256_storeu_ps(crow + m + 8, c11);
      }
    }
    for (int64_t r = i; r < (pair ? i + 2 : i + 1); ++r) {
      const float* arow = a + r * k;
      float* crow = c + r * m;
      int64_t j = m16;
      for (; j + 8 <= m; j += 8) {
        __m256 c0 = _mm256_setzero_ps();
        for (int64_t kk = 0; kk < k; ++kk) {
          c0 = _mm256_add_ps(
              c0, _mm256_mul_ps(_mm256_set1_ps(arow[kk]),
                                _mm256_loadu_ps(b + kk * m + j)));
        }
        _mm256_storeu_ps(crow + j, c0);
      }
      for (; j < m; ++j) {
        float acc = 0.0f;
        for (int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * b[kk * m + j];
        crow[j] = acc;
      }
    }
  }
}

__attribute__((target("avx2"))) void Bmm(const float* a, const float* b,
                                         float* c, int64_t bs, int64_t n,
                                         int64_t k, int64_t m) {
  for (int64_t t = 0; t < bs; ++t) {
    MatMul(a + t * n * k, b + t * k * m, c + t * n * m, n, k, m);
  }
}

__attribute__((target("avx2"))) void SoftmaxLastDim(const float* x, float* y,
                                                    int64_t rows, int64_t d) {
  for (int64_t r = 0; r < rows; ++r) {
    SoftmaxRow(x + r * d, nullptr, y + r * d, d);
  }
}

__attribute__((target("avx2"))) void MaskedSoftmax(const float* scores,
                                                   const float* mask,
                                                   float* y, int64_t b,
                                                   int64_t m) {
  for (int64_t bi = 0; bi < b; ++bi) {
    SoftmaxRow(scores + bi * m, mask != nullptr ? mask + bi * m : nullptr,
               y + bi * m, m);
  }
}

__attribute__((target("avx2"))) void RowNormalize(const float* x, float* y,
                                                  int64_t rows, int64_t d,
                                                  float eps,
                                                  float* inv_sigma) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * d;
    float* yr = y + r * d;
    const float mu = BlockedSum(xr, d) / static_cast<float>(d);
    const float var = BlockedSqDiffSum(xr, mu, d) / static_cast<float>(d);
    const float inv = 1.0f / std::sqrt(var + eps);
    if (inv_sigma != nullptr) inv_sigma[r] = inv;
    const __m256 vmu = _mm256_set1_ps(mu);
    const __m256 vinv = _mm256_set1_ps(inv);
    int64_t j = 0;
    for (; j + 8 <= d; j += 8) {
      _mm256_storeu_ps(
          yr + j,
          _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(xr + j), vmu), vinv));
    }
    for (; j < d; ++j) yr[j] = (xr[j] - mu) * inv;
  }
}

__attribute__((target("avx2"))) void AddBiasRelu(const float* x,
                                                 const float* bias, float* y,
                                                 int64_t rows, int64_t d) {
  const __m256 zero = _mm256_setzero_ps();
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * d;
    float* yr = y + r * d;
    int64_t j = 0;
    for (; j + 8 <= d; j += 8) {
      const __m256 v = _mm256_add_ps(_mm256_loadu_ps(xr + j),
                                     _mm256_loadu_ps(bias + j));
      _mm256_storeu_ps(yr + j, _mm256_max_ps(v, zero));
    }
    for (; j < d; ++j) {
      const float v = xr[j] + bias[j];
      yr[j] = v > 0.0f ? v : 0.0f;
    }
  }
}

__attribute__((target("avx2"))) void AddBias(const float* x,
                                             const float* bias, float* y,
                                             int64_t rows, int64_t d) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * d;
    float* yr = y + r * d;
    int64_t j = 0;
    for (; j + 8 <= d; j += 8) {
      _mm256_storeu_ps(yr + j, _mm256_add_ps(_mm256_loadu_ps(xr + j),
                                             _mm256_loadu_ps(bias + j)));
    }
    for (; j < d; ++j) yr[j] = xr[j] + bias[j];
  }
}

__attribute__((target("avx2"))) void AddSame(const float* a, const float* b,
                                             float* y, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) y[i] = a[i] + b[i];
}

__attribute__((target("avx2"))) float Dot(const float* a, const float* b,
                                          int64_t n) {
  return BlockedDot(a, b, n);
}

__attribute__((target("avx2"))) void AttentionScores(const float* q,
                                                     const float* k,
                                                     float* scores, int64_t b,
                                                     int64_t m, int64_t d,
                                                     float scale) {
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t s = 0; s < m; ++s) {
      scores[bi * m + s] =
          scale * BlockedDot(q + bi * d, k + (bi * m + s) * d, d);
    }
  }
}

__attribute__((target("avx2"))) void AttentionContext(const float* attn,
                                                      const float* v,
                                                      float* ctx, int64_t b,
                                                      int64_t m, int64_t d) {
  for (int64_t bi = 0; bi < b; ++bi) {
    const float* arow = attn + bi * m;
    float* out = ctx + bi * d;
    const float* vbase = v + bi * m * d;
    int64_t j = 0;
    for (; j + 8 <= d; j += 8) {
      __m256 acc = _mm256_setzero_ps();
      for (int64_t s = 0; s < m; ++s) {
        acc = _mm256_add_ps(acc,
                            _mm256_mul_ps(_mm256_set1_ps(arow[s]),
                                          _mm256_loadu_ps(vbase + s * d + j)));
      }
      _mm256_storeu_ps(out + j, acc);
    }
    for (; j < d; ++j) {
      float acc = 0.0f;
      for (int64_t s = 0; s < m; ++s) acc += arow[s] * vbase[s * d + j];
      out[j] = acc;
    }
  }
}

__attribute__((target("avx2"))) void ResidualLayerNorm(
    const float* x, const float* residual, const float* gain,
    const float* bias, float* y, int64_t rows, int64_t d, float eps) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * d;
    const float* rr = residual + r * d;
    float* yr = y + r * d;
    int64_t j = 0;
    for (; j + 8 <= d; j += 8) {
      _mm256_storeu_ps(yr + j, _mm256_add_ps(_mm256_loadu_ps(xr + j),
                                             _mm256_loadu_ps(rr + j)));
    }
    for (; j < d; ++j) yr[j] = xr[j] + rr[j];
    const float mu = BlockedSum(yr, d) / static_cast<float>(d);
    const float var = BlockedSqDiffSum(yr, mu, d) / static_cast<float>(d);
    const float inv = 1.0f / std::sqrt(var + eps);
    const __m256 vmu = _mm256_set1_ps(mu);
    const __m256 vinv = _mm256_set1_ps(inv);
    j = 0;
    for (; j + 8 <= d; j += 8) {
      const __m256 norm = _mm256_mul_ps(
          _mm256_sub_ps(_mm256_loadu_ps(yr + j), vmu), vinv);
      _mm256_storeu_ps(
          yr + j, _mm256_add_ps(_mm256_mul_ps(norm, _mm256_loadu_ps(gain + j)),
                                _mm256_loadu_ps(bias + j)));
    }
    for (; j < d; ++j) {
      yr[j] = ((yr[j] - mu) * inv) * gain[j] + bias[j];
    }
  }
}

__attribute__((target("avx2"))) void SegmentRowSums(const float* x,
                                                    const uint32_t* index,
                                                    const uint32_t* offset,
                                                    int64_t groups, int64_t d,
                                                    float* y) {
  for (int64_t g = 0; g < groups; ++g) {
    const uint32_t* first = index + offset[g];
    const uint32_t* last = index + offset[g + 1];
    float* out = y + g * d;
    int64_t j = 0;
    for (; j + 32 <= d; j += 32) {
      __m256 c0 = _mm256_setzero_ps();
      __m256 c1 = _mm256_setzero_ps();
      __m256 c2 = _mm256_setzero_ps();
      __m256 c3 = _mm256_setzero_ps();
      for (const uint32_t* k = first; k != last; ++k) {
        const float* row = x + static_cast<int64_t>(*k) * d + j;
        c0 = _mm256_add_ps(c0, _mm256_loadu_ps(row));
        c1 = _mm256_add_ps(c1, _mm256_loadu_ps(row + 8));
        c2 = _mm256_add_ps(c2, _mm256_loadu_ps(row + 16));
        c3 = _mm256_add_ps(c3, _mm256_loadu_ps(row + 24));
      }
      _mm256_storeu_ps(out + j, c0);
      _mm256_storeu_ps(out + j + 8, c1);
      _mm256_storeu_ps(out + j + 16, c2);
      _mm256_storeu_ps(out + j + 24, c3);
    }
    for (; j + 8 <= d; j += 8) {
      __m256 c0 = _mm256_setzero_ps();
      for (const uint32_t* k = first; k != last; ++k) {
        c0 = _mm256_add_ps(
            c0, _mm256_loadu_ps(x + static_cast<int64_t>(*k) * d + j));
      }
      _mm256_storeu_ps(out + j, c0);
    }
    for (; j < d; ++j) {
      float acc = 0.0f;
      for (const uint32_t* k = first; k != last; ++k) {
        acc += x[static_cast<int64_t>(*k) * d + j];
      }
      out[j] = acc;
    }
  }
}

}  // namespace avx2

#endif  // APAN_KERNELS_X86

// ---- NEON tier --------------------------------------------------------------

#if defined(APAN_KERNELS_NEON)

namespace neon {

namespace {

// Two q-registers emulate the 8 blocked lanes (lo = lanes 0-3, hi = 4-7).
// vmulq+vaddq stay separate (vmlaq would fuse on aarch64).

struct Acc8 {
  float32x4_t lo = vdupq_n_f32(0.0f);
  float32x4_t hi = vdupq_n_f32(0.0f);
};

template <typename TailFn>
inline float ReduceBlocked(const Acc8& acc, int64_t tail_n, TailFn tail) {
  float lanes[8];
  vst1q_f32(lanes, acc.lo);
  vst1q_f32(lanes + 4, acc.hi);
  for (int64_t t = 0; t < tail_n; ++t) lanes[t] += tail(t);
  return Tree8(lanes);
}

inline float BlockedDot(const float* a, const float* b, int64_t n) {
  Acc8 acc;
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc.lo = vaddq_f32(acc.lo, vmulq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
    acc.hi = vaddq_f32(acc.hi,
                       vmulq_f32(vld1q_f32(a + i + 4), vld1q_f32(b + i + 4)));
  }
  const int64_t base = i;
  return ReduceBlocked(acc, n - base,
                       [&](int64_t t) { return a[base + t] * b[base + t]; });
}

inline float BlockedSum(const float* a, int64_t n) {
  Acc8 acc;
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc.lo = vaddq_f32(acc.lo, vld1q_f32(a + i));
    acc.hi = vaddq_f32(acc.hi, vld1q_f32(a + i + 4));
  }
  const int64_t base = i;
  return ReduceBlocked(acc, n - base, [&](int64_t t) { return a[base + t]; });
}

inline float BlockedSqDiffSum(const float* a, float mu, int64_t n) {
  Acc8 acc;
  const float32x4_t vmu = vdupq_n_f32(mu);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const float32x4_t lo = vsubq_f32(vld1q_f32(a + i), vmu);
    const float32x4_t hi = vsubq_f32(vld1q_f32(a + i + 4), vmu);
    acc.lo = vaddq_f32(acc.lo, vmulq_f32(lo, lo));
    acc.hi = vaddq_f32(acc.hi, vmulq_f32(hi, hi));
  }
  const int64_t base = i;
  return ReduceBlocked(acc, n - base, [&](int64_t t) {
    const float v = a[base + t] - mu;
    return v * v;
  });
}

inline void SoftmaxRow(const float* xr, const float* add, float* yr,
                       int64_t d) {
  if (add != nullptr) {
    int64_t j = 0;
    for (; j + 4 <= d; j += 4) {
      vst1q_f32(yr + j, vaddq_f32(vld1q_f32(xr + j), vld1q_f32(add + j)));
    }
    for (; j < d; ++j) yr[j] = xr[j] + add[j];
    xr = yr;
  }
  float mx = xr[0];
  for (int64_t j = 1; j < d; ++j) mx = std::max(mx, xr[j]);
  for (int64_t j = 0; j < d; ++j) yr[j] = std::exp(xr[j] - mx);
  const float inv = 1.0f / BlockedSum(yr, d);
  const float32x4_t vinv = vdupq_n_f32(inv);
  int64_t j = 0;
  for (; j + 4 <= d; j += 4) {
    vst1q_f32(yr + j, vmulq_f32(vld1q_f32(yr + j), vinv));
  }
  for (; j < d; ++j) yr[j] *= inv;
}

}  // namespace

void MatMul(const float* a, const float* b, float* c, int64_t n, int64_t k,
            int64_t m) {
  for (int64_t i = 0; i < n; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * m;
    int64_t j = 0;
    for (; j + 16 <= m; j += 16) {
      float32x4_t c0 = vdupq_n_f32(0.0f);
      float32x4_t c1 = vdupq_n_f32(0.0f);
      float32x4_t c2 = vdupq_n_f32(0.0f);
      float32x4_t c3 = vdupq_n_f32(0.0f);
      for (int64_t kk = 0; kk < k; ++kk) {
        const float32x4_t av = vdupq_n_f32(arow[kk]);
        const float* brow = b + kk * m + j;
        c0 = vaddq_f32(c0, vmulq_f32(av, vld1q_f32(brow)));
        c1 = vaddq_f32(c1, vmulq_f32(av, vld1q_f32(brow + 4)));
        c2 = vaddq_f32(c2, vmulq_f32(av, vld1q_f32(brow + 8)));
        c3 = vaddq_f32(c3, vmulq_f32(av, vld1q_f32(brow + 12)));
      }
      vst1q_f32(crow + j, c0);
      vst1q_f32(crow + j + 4, c1);
      vst1q_f32(crow + j + 8, c2);
      vst1q_f32(crow + j + 12, c3);
    }
    for (; j + 4 <= m; j += 4) {
      float32x4_t c0 = vdupq_n_f32(0.0f);
      for (int64_t kk = 0; kk < k; ++kk) {
        c0 = vaddq_f32(c0, vmulq_f32(vdupq_n_f32(arow[kk]),
                                     vld1q_f32(b + kk * m + j)));
      }
      vst1q_f32(crow + j, c0);
    }
    for (; j < m; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * b[kk * m + j];
      crow[j] = acc;
    }
  }
}

void Bmm(const float* a, const float* b, float* c, int64_t bs, int64_t n,
         int64_t k, int64_t m) {
  for (int64_t t = 0; t < bs; ++t) {
    MatMul(a + t * n * k, b + t * k * m, c + t * n * m, n, k, m);
  }
}

void SoftmaxLastDim(const float* x, float* y, int64_t rows, int64_t d) {
  for (int64_t r = 0; r < rows; ++r) {
    SoftmaxRow(x + r * d, nullptr, y + r * d, d);
  }
}

void MaskedSoftmax(const float* scores, const float* mask, float* y,
                   int64_t b, int64_t m) {
  for (int64_t bi = 0; bi < b; ++bi) {
    SoftmaxRow(scores + bi * m, mask != nullptr ? mask + bi * m : nullptr,
               y + bi * m, m);
  }
}

void RowNormalize(const float* x, float* y, int64_t rows, int64_t d,
                  float eps, float* inv_sigma) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * d;
    float* yr = y + r * d;
    const float mu = BlockedSum(xr, d) / static_cast<float>(d);
    const float var = BlockedSqDiffSum(xr, mu, d) / static_cast<float>(d);
    const float inv = 1.0f / std::sqrt(var + eps);
    if (inv_sigma != nullptr) inv_sigma[r] = inv;
    for (int64_t j = 0; j < d; ++j) yr[j] = (xr[j] - mu) * inv;
  }
}

void AddBiasRelu(const float* x, const float* bias, float* y, int64_t rows,
                 int64_t d) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * d;
    float* yr = y + r * d;
    int64_t j = 0;
    for (; j + 4 <= d; j += 4) {
      const float32x4_t v = vaddq_f32(vld1q_f32(xr + j), vld1q_f32(bias + j));
      // Compare+select, not vmaxq: ARM FMAX would propagate NaN where
      // the scalar tier's (v > 0 ? v : 0) — and x86 maxps — yield 0.
      vst1q_f32(yr + j, vbslq_f32(vcgtq_f32(v, zero), v, zero));
    }
    for (; j < d; ++j) {
      const float v = xr[j] + bias[j];
      yr[j] = v > 0.0f ? v : 0.0f;
    }
  }
}

void AddBias(const float* x, const float* bias, float* y, int64_t rows,
             int64_t d) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * d;
    float* yr = y + r * d;
    int64_t j = 0;
    for (; j + 4 <= d; j += 4) {
      vst1q_f32(yr + j, vaddq_f32(vld1q_f32(xr + j), vld1q_f32(bias + j)));
    }
    for (; j < d; ++j) yr[j] = xr[j] + bias[j];
  }
}

void AddSame(const float* a, const float* b, float* y, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, vaddq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) y[i] = a[i] + b[i];
}

float Dot(const float* a, const float* b, int64_t n) {
  return BlockedDot(a, b, n);
}

void AttentionScores(const float* q, const float* k, float* scores,
                     int64_t b, int64_t m, int64_t d, float scale) {
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t s = 0; s < m; ++s) {
      scores[bi * m + s] =
          scale * BlockedDot(q + bi * d, k + (bi * m + s) * d, d);
    }
  }
}

void AttentionContext(const float* attn, const float* v, float* ctx,
                      int64_t b, int64_t m, int64_t d) {
  for (int64_t bi = 0; bi < b; ++bi) {
    const float* arow = attn + bi * m;
    float* out = ctx + bi * d;
    const float* vbase = v + bi * m * d;
    int64_t j = 0;
    for (; j + 4 <= d; j += 4) {
      float32x4_t acc = vdupq_n_f32(0.0f);
      for (int64_t s = 0; s < m; ++s) {
        acc = vaddq_f32(acc, vmulq_f32(vdupq_n_f32(arow[s]),
                                       vld1q_f32(vbase + s * d + j)));
      }
      vst1q_f32(out + j, acc);
    }
    for (; j < d; ++j) {
      float acc = 0.0f;
      for (int64_t s = 0; s < m; ++s) acc += arow[s] * vbase[s * d + j];
      out[j] = acc;
    }
  }
}

void ResidualLayerNorm(const float* x, const float* residual,
                       const float* gain, const float* bias, float* y,
                       int64_t rows, int64_t d, float eps) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * d;
    const float* rr = residual + r * d;
    float* yr = y + r * d;
    for (int64_t j = 0; j < d; ++j) yr[j] = xr[j] + rr[j];
    const float mu = BlockedSum(yr, d) / static_cast<float>(d);
    const float var = BlockedSqDiffSum(yr, mu, d) / static_cast<float>(d);
    const float inv = 1.0f / std::sqrt(var + eps);
    for (int64_t j = 0; j < d; ++j) {
      yr[j] = ((yr[j] - mu) * inv) * gain[j] + bias[j];
    }
  }
}

}  // namespace neon

#endif  // APAN_KERNELS_NEON

// ---- Dispatch ---------------------------------------------------------------

namespace {

struct DispatchTable {
  Isa isa = Isa::kScalar;
  void (*matmul)(const float*, const float*, float*, int64_t, int64_t,
                 int64_t) = scalar::MatMul;
  void (*bmm)(const float*, const float*, float*, int64_t, int64_t, int64_t,
              int64_t) = scalar::Bmm;
  void (*softmax)(const float*, float*, int64_t, int64_t) =
      scalar::SoftmaxLastDim;
  void (*masked_softmax)(const float*, const float*, float*, int64_t,
                         int64_t) = scalar::MaskedSoftmax;
  void (*row_normalize)(const float*, float*, int64_t, int64_t, float,
                        float*) = scalar::RowNormalize;
  void (*add_bias_relu)(const float*, const float*, float*, int64_t,
                        int64_t) = scalar::AddBiasRelu;
  void (*add_bias)(const float*, const float*, float*, int64_t, int64_t) =
      scalar::AddBias;
  void (*add_same)(const float*, const float*, float*, int64_t) =
      scalar::AddSame;
  float (*dot)(const float*, const float*, int64_t) = scalar::Dot;
  void (*attention_scores)(const float*, const float*, float*, int64_t,
                           int64_t, int64_t, float) = scalar::AttentionScores;
  void (*attention_context)(const float*, const float*, float*, int64_t,
                            int64_t, int64_t) = scalar::AttentionContext;
  void (*residual_layer_norm)(const float*, const float*, const float*,
                              const float*, float*, int64_t, int64_t, float) =
      scalar::ResidualLayerNorm;
  void (*segment_row_sums)(const float*, const uint32_t*, const uint32_t*,
                           int64_t, int64_t, float*) = scalar::SegmentRowSums;
};

DispatchTable BuildTable() {
  DispatchTable t;  // scalar defaults
  bool want_avx2 = false;
  bool want_neon = false;
#if defined(APAN_KERNELS_X86)
  want_avx2 = __builtin_cpu_supports("avx2") != 0;
#endif
#if defined(APAN_KERNELS_NEON)
  want_neon = true;
#endif
  if (const char* force = std::getenv("APAN_KERNEL_ISA")) {
    want_avx2 = want_avx2 && std::strcmp(force, "avx2") == 0;
    want_neon = want_neon && std::strcmp(force, "neon") == 0;
  }
#if defined(APAN_KERNELS_X86)
  if (want_avx2) {
    t.isa = Isa::kAvx2;
    t.matmul = avx2::MatMul;
    t.bmm = avx2::Bmm;
    t.softmax = avx2::SoftmaxLastDim;
    t.masked_softmax = avx2::MaskedSoftmax;
    t.row_normalize = avx2::RowNormalize;
    t.add_bias_relu = avx2::AddBiasRelu;
    t.add_bias = avx2::AddBias;
    t.add_same = avx2::AddSame;
    t.dot = avx2::Dot;
    t.attention_scores = avx2::AttentionScores;
    t.attention_context = avx2::AttentionContext;
    t.residual_layer_norm = avx2::ResidualLayerNorm;
    t.segment_row_sums = avx2::SegmentRowSums;
    return t;
  }
#endif
#if defined(APAN_KERNELS_NEON)
  if (want_neon) {
    t.isa = Isa::kNeon;
    t.matmul = neon::MatMul;
    t.bmm = neon::Bmm;
    t.softmax = neon::SoftmaxLastDim;
    t.masked_softmax = neon::MaskedSoftmax;
    t.row_normalize = neon::RowNormalize;
    t.add_bias_relu = neon::AddBiasRelu;
    t.add_bias = neon::AddBias;
    t.add_same = neon::AddSame;
    t.dot = neon::Dot;
    t.attention_scores = neon::AttentionScores;
    t.attention_context = neon::AttentionContext;
    t.residual_layer_norm = neon::ResidualLayerNorm;
    return t;
  }
#endif
  (void)want_neon;
  return t;
}

const DispatchTable& Table() {
  static const DispatchTable t = BuildTable();
  return t;
}

}  // namespace

Isa ActiveIsa() { return Table().isa; }

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
  }
  return "unknown";
}

void MatMul(const float* a, const float* b, float* c, int64_t n, int64_t k,
            int64_t m) {
  Table().matmul(a, b, c, n, k, m);
}
void Bmm(const float* a, const float* b, float* c, int64_t bs, int64_t n,
         int64_t k, int64_t m) {
  Table().bmm(a, b, c, bs, n, k, m);
}
void SoftmaxLastDim(const float* x, float* y, int64_t rows, int64_t d) {
  Table().softmax(x, y, rows, d);
}
void MaskedSoftmax(const float* scores, const float* mask, float* y,
                   int64_t b, int64_t m) {
  Table().masked_softmax(scores, mask, y, b, m);
}
void RowNormalize(const float* x, float* y, int64_t rows, int64_t d,
                  float eps, float* inv_sigma) {
  Table().row_normalize(x, y, rows, d, eps, inv_sigma);
}
void AddBiasRelu(const float* x, const float* bias, float* y, int64_t rows,
                 int64_t d) {
  Table().add_bias_relu(x, bias, y, rows, d);
}
void AddBias(const float* x, const float* bias, float* y, int64_t rows,
             int64_t d) {
  Table().add_bias(x, bias, y, rows, d);
}
void AddSame(const float* a, const float* b, float* y, int64_t n) {
  Table().add_same(a, b, y, n);
}
float Dot(const float* a, const float* b, int64_t n) {
  return Table().dot(a, b, n);
}
void AttentionScores(const float* q, const float* k, float* scores,
                     int64_t b, int64_t m, int64_t d, float scale) {
  Table().attention_scores(q, k, scores, b, m, d, scale);
}
void AttentionContext(const float* attn, const float* v, float* ctx,
                      int64_t b, int64_t m, int64_t d) {
  Table().attention_context(attn, v, ctx, b, m, d);
}
void ResidualLayerNorm(const float* x, const float* residual,
                       const float* gain, const float* bias, float* y,
                       int64_t rows, int64_t d, float eps) {
  Table().residual_layer_norm(x, residual, gain, bias, y, rows, d, eps);
}
void SegmentRowSums(const float* x, const uint32_t* index,
                    const uint32_t* offset, int64_t groups, int64_t d,
                    float* y) {
  Table().segment_row_sums(x, index, offset, groups, d, y);
}

}  // namespace kernels
}  // namespace tensor
}  // namespace apan
