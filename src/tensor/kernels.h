// Serve-hot-path tensor kernels with runtime SIMD dispatch.
//
// The five hot primitives behind the encoder forward (MatMul, Bmm,
// SoftmaxLastDim, RowNormalize, AddBiasRelu) plus the fused attention
// helpers (AttentionScores / MaskedSoftmax / AttentionContext /
// ResidualLayerNorm) operate on raw float buffers. One implementation is
// selected per process at first use — AVX2 on x86-64 CPUs that support
// it, NEON on aarch64, a portable blocked-scalar fallback otherwise — so
// every engine in the process (ShardedEngine, the serial ApanModel path,
// trainer eval) computes through the same code path and stays bitwise
// reproducible run-to-run and engine-to-engine.
//
// Determinism contract — per kernel subset:
//
//   * SERVE kernels (everything above the "Training-side kernels"
//     section, implemented in kernels.cc): cross-ISA bitwise parity.
//     Every reduction runs in fixed-width 8-lane blocked order (lane l
//     accumulates elements l, l+8, l+16, ..., lanes combined in a fixed
//     binary tree), and SIMD lanes use separate multiply and add (no FMA
//     contraction; kernels.cc is built with -ffp-contract=off and
//     tools/apan_lint disassembles its object to prove it), so the
//     scalar fallback and the SIMD implementations produce
//     bitwise-identical results — the kernel parity suite
//     (tests/tensor_kernels_test.cc) asserts it. Per-row outputs depend
//     only on that row's inputs, which is what keeps a sharded encode
//     (per-shard sub-batches) bitwise equal to the monolithic encode of
//     the same rows.
//
//   * TRAINING kernels (the gradient primitives below, implemented in
//     kernels_backward.cc): per-ISA determinism only. One tier is
//     selected per process (the same ActiveIsa() the serve kernels
//     picked), so training is bitwise reproducible run-to-run on one
//     host, but the AVX2 tier uses FMA contraction and vector-friendly
//     reduction orders, so scalar and AVX2 results differ in the last
//     ULPs. Nothing downstream needs more: the serve plane's cross-ISA
//     guarantees only cover inference, and the training determinism
//     test (tests/train_fastpath_test.cc) asserts same-ISA bitwise
//     equality. docs/performance.md ("Training fast path") states the
//     split contract.
//
// `reference` holds the naive serial implementations (the pre-kernel
// semantics) for parity tests and before/after benchmarks; `scalar` is
// the portable blocked fallback, callable directly regardless of what
// the dispatcher selected.

#ifndef APAN_TENSOR_KERNELS_H_
#define APAN_TENSOR_KERNELS_H_

#include <cstdint>

namespace apan {
namespace tensor {
namespace kernels {

/// Instruction set selected for this process (once, at first kernel use;
/// override with APAN_KERNEL_ISA=scalar|avx2|neon for debugging — an
/// unavailable request falls back to scalar).
enum class Isa { kScalar, kAvx2, kNeon };
Isa ActiveIsa();
const char* IsaName(Isa isa);

// ---- Dispatched entry points ------------------------------------------------
// All output buffers are overwritten (no accumulate); aliasing an output
// with an input is allowed only for the elementwise kernels (AddSame,
// AddBias, AddBiasRelu, MaskedSoftmax in-place).

/// c[n,m] = a[n,k] * b[k,m]. Per-element accumulation is serial over k
/// (the classic ikj order), so results match the naive loop bitwise.
void MatMul(const float* a, const float* b, float* c, int64_t n, int64_t k,
            int64_t m);

/// c[bs,n,m] = a[bs,n,k] * b[bs,k,m], batch by batch.
void Bmm(const float* a, const float* b, float* c, int64_t bs, int64_t n,
         int64_t k, int64_t m);

/// y[r,:] = softmax(x[r,:]) over the last dimension (max-subtracted,
/// blocked-order sum).
void SoftmaxLastDim(const float* x, float* y, int64_t rows, int64_t d);

/// Attention softmax over {b, m} scores (one head) with an optional
/// additive {b, m} mask (the encoder's padding mask). `mask` may be
/// null. In-place (y == scores) ok.
void MaskedSoftmax(const float* scores, const float* mask, float* y,
                   int64_t b, int64_t m);

/// y[r,:] = (x[r,:] - mean) / sqrt(var + eps). When `inv_sigma` is
/// non-null it receives the per-row 1/sigma (the backward pass needs it).
void RowNormalize(const float* x, float* y, int64_t rows, int64_t d,
                  float eps, float* inv_sigma);

/// y[r,j] = max(x[r,j] + bias[j], 0) — the fused Linear+ReLU epilogue.
void AddBiasRelu(const float* x, const float* bias, float* y, int64_t rows,
                 int64_t d);

/// y[r,j] = x[r,j] + bias[j] (rank-1 broadcast over the last dim).
void AddBias(const float* x, const float* bias, float* y, int64_t rows,
             int64_t d);

/// y[i] = a[i] + b[i].
void AddSame(const float* a, const float* b, float* y, int64_t n);

/// Blocked dot product (8-lane accumulation, fixed-tree combine).
float Dot(const float* a, const float* b, int64_t n);

/// One query per row against its own m keys:
///   scores[bi*m + s] = scale * dot(q[bi, :], k[bi, s, :])
/// with q laid out {b, d} and k laid out {b, m, d}.
void AttentionScores(const float* q, const float* k, float* scores,
                     int64_t b, int64_t m, int64_t d, float scale);

/// The attention-weighted sum of each row's m values:
///   ctx[bi, j] = sum_s attn[bi*m + s] * v[bi, s, j]
/// accumulated serially over s, with v laid out {b, m, d}.
void AttentionContext(const float* attn, const float* v, float* ctx,
                      int64_t b, int64_t m, int64_t d);

/// Fused residual-add + LayerNorm with learnable gain/bias:
///   t = x[r,:] + residual[r,:];  y = ((t - mean) / sqrt(var+eps)) * gain + bias
void ResidualLayerNorm(const float* x, const float* residual,
                       const float* gain, const float* bias, float* y,
                       int64_t rows, int64_t d, float eps);

/// Row sums over an index CSR (the ρ sum of core::MailPropagator):
///   y[g, :] = sum over k in [offset[g], offset[g+1]) of x[index[k], :]
/// for g < groups, with x and y d wide. Each output element accumulates
/// serially over k from 0.0f and is written once, so every tier gives the
/// bits of the naive loop. Indices may repeat; an empty group writes zeros.
/// Scalar and AVX2 tiers (NEON hosts run the scalar loop).
void SegmentRowSums(const float* x, const uint32_t* index,
                    const uint32_t* offset, int64_t groups, int64_t d,
                    float* y);

// ---- Training-side kernels (gradient primitives) ----------------------------
// Implemented in kernels_backward.cc under the per-ISA contract (FMA
// legal; see the header comment). All of them ACCUMULATE into their
// output gradient buffers (dst += ...), matching autograd's sum-over-
// uses semantics — callers zero (or EnsureGrad) the buffers. Dispatch is
// keyed off the same ActiveIsa() as the serve kernels, so one process
// runs one tier everywhere; on NEON hosts the training kernels run the
// blocked-scalar tier (still within-process deterministic).

/// dA[n,k] += G[n,m] * B[k,m]^T (the MatMul input gradient).
void MatMulGradA(const float* g, const float* b, float* da, int64_t n,
                 int64_t k, int64_t m);

/// dB[k,m] += A[n,k]^T * G[n,m] (the MatMul weight gradient).
void MatMulGradB(const float* a, const float* g, float* db, int64_t n,
                 int64_t k, int64_t m);

/// Softmax backward from the forward output y:
///   dx[r,j] += (g[r,j] - dot(g[r,:], y[r,:])) * y[r,j]
void SoftmaxBackward(const float* y, const float* g, float* dx, int64_t rows,
                     int64_t d);

/// LayerNorm-standardization backward (RowNormalize's gradient) from the
/// forward output y and the per-row 1/sigma the forward stashed:
///   dx[r,j] += inv_sigma[r] * (g[r,j] - mean(g[r,:]) - y[r,j] * mean(g.y))
void RowNormalizeBackward(const float* y, const float* g,
                          const float* inv_sigma, float* dx, int64_t rows,
                          int64_t d);

/// Fused Linear+ReLU epilogue backward, masked by the forward output
/// (y > 0 <=> pre-activation > 0). Either output may be null to skip it:
///   dx[r,j]  += y[r,j] > 0 ? g[r,j] : 0
///   dbias[j] += sum_r (y[r,j] > 0 ? g[r,j] : 0)
void AddBiasReluBackward(const float* y, const float* g, float* dx,
                         float* dbias, int64_t rows, int64_t d);

/// y[i] += x[i] (gradient fan-in for copy-shaped ops).
void Accumulate(const float* x, float* y, int64_t n);

/// y[i] += g[i] * m[i] (masked gradient fan-in, e.g. dropout backward).
void AccumulateMul(const float* g, const float* m, float* y, int64_t n);

/// y[i] += a * x[i].
void Axpy(float a, const float* x, float* y, int64_t n);

/// Training-path forward GEMM: C[n,m] = A[n,k] * B[k,m] (overwrite).
/// Same math as the serve MatMul but implemented under the per-ISA
/// contract (FMA legal), so a *recorded* forward — one that feeds the
/// training graph rather than a served score — does not pay the serve
/// plane's cross-ISA bitwise tax. Off-AVX2 hosts run the blocked-scalar
/// serve loop (still within-process deterministic).
void MatMulTrain(const float* a, const float* b, float* c, int64_t n,
                 int64_t k, int64_t m);

/// Batched MatMulTrain over bs independent [n,k] x [k,m] products.
void BmmTrain(const float* a, const float* b, float* c, int64_t bs,
              int64_t n, int64_t k, int64_t m);

// ---- Portable blocked-scalar implementations --------------------------------
// Bitwise-identical to the SIMD implementations; exposed for the parity
// suite and for forcing the fallback in tests.
namespace scalar {
void MatMul(const float* a, const float* b, float* c, int64_t n, int64_t k,
            int64_t m);
void Bmm(const float* a, const float* b, float* c, int64_t bs, int64_t n,
         int64_t k, int64_t m);
void SoftmaxLastDim(const float* x, float* y, int64_t rows, int64_t d);
void MaskedSoftmax(const float* scores, const float* mask, float* y,
                   int64_t b, int64_t m);
void RowNormalize(const float* x, float* y, int64_t rows, int64_t d,
                  float eps, float* inv_sigma);
void AddBiasRelu(const float* x, const float* bias, float* y, int64_t rows,
                 int64_t d);
void AddBias(const float* x, const float* bias, float* y, int64_t rows,
             int64_t d);
void AddSame(const float* a, const float* b, float* y, int64_t n);
float Dot(const float* a, const float* b, int64_t n);
void AttentionScores(const float* q, const float* k, float* scores,
                     int64_t b, int64_t m, int64_t d, float scale);
void AttentionContext(const float* attn, const float* v, float* ctx,
                      int64_t b, int64_t m, int64_t d);
void ResidualLayerNorm(const float* x, const float* residual,
                       const float* gain, const float* bias, float* y,
                       int64_t rows, int64_t d, float eps);
void SegmentRowSums(const float* x, const uint32_t* index,
                    const uint32_t* offset, int64_t groups, int64_t d,
                    float* y);
// Training-side gradient primitives (blocked-scalar tier; defined in
// kernels_backward.cc).
void MatMulGradA(const float* g, const float* b, float* da, int64_t n,
                 int64_t k, int64_t m);
void MatMulGradB(const float* a, const float* g, float* db, int64_t n,
                 int64_t k, int64_t m);
void SoftmaxBackward(const float* y, const float* g, float* dx, int64_t rows,
                     int64_t d);
void RowNormalizeBackward(const float* y, const float* g,
                          const float* inv_sigma, float* dx, int64_t rows,
                          int64_t d);
void AddBiasReluBackward(const float* y, const float* g, float* dx,
                         float* dbias, int64_t rows, int64_t d);
void Accumulate(const float* x, float* y, int64_t n);
void AccumulateMul(const float* g, const float* m, float* y, int64_t n);
void Axpy(float a, const float* x, float* y, int64_t n);
}  // namespace scalar

// ---- Naive serial reference -------------------------------------------------
// The pre-kernel semantics (serial reductions). Agreement vs the blocked
// kernels: exact for elementwise ops and matmuls (same per-element
// order), within a few ULP for blocked reductions (softmax sums, dots,
// layer-norm moments).
namespace reference {
void MatMul(const float* a, const float* b, float* c, int64_t n, int64_t k,
            int64_t m);
void Bmm(const float* a, const float* b, float* c, int64_t bs, int64_t n,
         int64_t k, int64_t m);
void SoftmaxLastDim(const float* x, float* y, int64_t rows, int64_t d);
void RowNormalize(const float* x, float* y, int64_t rows, int64_t d,
                  float eps, float* inv_sigma);
void AddBiasRelu(const float* x, const float* bias, float* y, int64_t rows,
                 int64_t d);
float Dot(const float* a, const float* b, int64_t n);
// Pre-kernel backward-closure loop orders from ops.cc (the strided
// column walks with zero-skips), kept as the before side of the
// micro_substrate before/after pairs. Defined in kernels_backward.cc.
void MatMulGradA(const float* g, const float* b, float* da, int64_t n,
                 int64_t k, int64_t m);
void MatMulGradB(const float* a, const float* g, float* db, int64_t n,
                 int64_t k, int64_t m);
void SoftmaxBackward(const float* y, const float* g, float* dx, int64_t rows,
                     int64_t d);
void RowNormalizeBackward(const float* y, const float* g,
                          const float* inv_sigma, float* dx, int64_t rows,
                          int64_t d);
void AddBiasReluBackward(const float* y, const float* g, float* dx,
                         float* dbias, int64_t rows, int64_t d);
void Accumulate(const float* x, float* y, int64_t n);
}  // namespace reference

}  // namespace kernels
}  // namespace tensor
}  // namespace apan

#endif  // APAN_TENSOR_KERNELS_H_
