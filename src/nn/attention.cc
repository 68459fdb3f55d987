#include "nn/attention.h"

#include <cmath>
#include <cstring>

#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace apan {
namespace nn {

using tensor::Tensor;
namespace kernels = tensor::kernels;

namespace {

/// dst {rows, width} = src[:, col : col + width] of a {rows, cols} matrix.
void GatherCols(const float* src, int64_t rows, int64_t cols, int64_t col,
                int64_t width, float* dst) {
  for (int64_t r = 0; r < rows; ++r) {
    std::memcpy(dst + r * width, src + r * cols + col,
                static_cast<size_t>(width) * sizeof(float));
  }
}

/// dst[:, col : col + width] of a {rows, cols} matrix = src {rows, width}.
void ScatterCols(const float* src, int64_t rows, int64_t width, float* dst,
                 int64_t cols, int64_t col) {
  for (int64_t r = 0; r < rows; ++r) {
    std::memcpy(dst + r * cols + col, src + r * width,
                static_cast<size_t>(width) * sizeof(float));
  }
}

}  // namespace

MultiHeadAttention::MultiHeadAttention(int64_t model_dim, int64_t num_heads,
                                       Rng* rng, int64_t key_dim,
                                       int64_t value_dim, int64_t query_dim)
    : model_dim_(model_dim),
      num_heads_(num_heads),
      head_dim_(model_dim / num_heads),
      wq_(query_dim > 0 ? query_dim : model_dim, model_dim, rng,
          /*bias=*/false),
      wk_(key_dim > 0 ? key_dim : model_dim, model_dim, rng, /*bias=*/false),
      wv_(value_dim > 0 ? value_dim : model_dim, model_dim, rng,
          /*bias=*/false),
      wo_(model_dim, model_dim, rng, /*bias=*/false) {
  APAN_CHECK_MSG(model_dim % num_heads == 0,
                 "model_dim must be divisible by num_heads");
  RegisterChild(&wq_);
  RegisterChild(&wk_);
  RegisterChild(&wv_);
  RegisterChild(&wo_);
}

AttentionOutput MultiHeadAttention::Forward(
    const Tensor& query, const Tensor& keys, const Tensor& values,
    const std::vector<float>* mask) const {
  APAN_CHECK(query.defined() && keys.defined() && values.defined());
  APAN_CHECK_MSG(query.rank() == 2 && keys.rank() == 3 && values.rank() == 3,
                 "attention expects query {b,dq}, keys/values {b,m,dk}");
  const int64_t batch = query.dim(0);
  const int64_t num_keys = keys.dim(1);
  APAN_CHECK(keys.dim(0) == batch && values.dim(0) == batch);
  APAN_CHECK(values.dim(1) == num_keys);
  if (mask != nullptr) {
    APAN_CHECK_MSG(
        mask->size() == static_cast<size_t>(batch * num_keys),
        "attention mask must have batch*num_keys entries");
  }

  if (!tensor::NoGradGuard::GradEnabled()) {
    return ForwardInference(query, keys, values, mask);
  }

  // Project and split heads. Row layout after the projections keeps each
  // (batch, head) block contiguous, so head split/merge are pure reshapes.
  // Q: {b, d} -> {b*h, 1, dh}
  Tensor q = wq_.Forward(query);
  q = tensor::Reshape(q, {batch * num_heads_, 1, head_dim_});
  // K, V: {b, m, d} -> {b, m, h, dh} -> {b, h, m, dh} -> {b*h, m, dh}
  Tensor k = wk_.Forward(keys);
  k = tensor::Reshape(k, {batch, num_keys, num_heads_, head_dim_});
  k = tensor::Permute(k, {0, 2, 1, 3});
  k = tensor::Reshape(k, {batch * num_heads_, num_keys, head_dim_});
  Tensor v = wv_.Forward(values);
  v = tensor::Reshape(v, {batch, num_keys, num_heads_, head_dim_});
  v = tensor::Permute(v, {0, 2, 1, 3});
  v = tensor::Reshape(v, {batch * num_heads_, num_keys, head_dim_});

  // scores = QK^T / sqrt(dh): {b*h, 1, m}
  Tensor scores = tensor::Bmm(q, tensor::Permute(k, {0, 2, 1}));
  scores = tensor::MulScalar(
      scores, 1.0f / std::sqrt(static_cast<float>(head_dim_)));

  if (mask != nullptr) {
    // Expand the per-(batch, key) mask across heads as a constant tensor.
    std::vector<float> expanded(
        static_cast<size_t>(batch * num_heads_ * num_keys));
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t h = 0; h < num_heads_; ++h) {
        for (int64_t m = 0; m < num_keys; ++m) {
          expanded[static_cast<size_t>(((b * num_heads_) + h) * num_keys +
                                       m)] =
              (*mask)[static_cast<size_t>(b * num_keys + m)];
        }
      }
    }
    Tensor mask_t = Tensor::FromVector({batch * num_heads_, 1, num_keys},
                                       std::move(expanded));
    scores = tensor::Add(scores, mask_t);
  }

  Tensor attn = tensor::SoftmaxLastDim(scores);  // {b*h, 1, m}
  Tensor context = tensor::Bmm(attn, v);         // {b*h, 1, dh}
  context = tensor::Reshape(context, {batch, model_dim_});
  Tensor out = wo_.Forward(context);

  AttentionOutput result;
  result.output = out;
  result.weights =
      tensor::Reshape(attn, {batch, num_heads_, num_keys}).Detach();
  return result;
}

AttentionOutput MultiHeadAttention::ForwardInference(
    const Tensor& query, const Tensor& keys, const Tensor& values,
    const std::vector<float>* mask) const {
  const int64_t batch = query.dim(0);
  const int64_t num_keys = keys.dim(1);
  const int64_t dq = query.dim(1);
  const int64_t dk = keys.dim(2);
  const int64_t dv = values.dim(2);
  const int64_t h = num_heads_;
  const int64_t dh = head_dim_;
  // The generic path gets these checks from Linear::Forward; the raw
  // kernels below index the weight buffers directly, so a mismatch here
  // must abort instead of reading out of bounds.
  APAN_CHECK_MSG(dq == wq_.in_features() && dk == wk_.in_features() &&
                     dv == wv_.in_features(),
                 "attention input feature dimension mismatch");
  // The raw GEMMs below apply no bias; if the projections ever grow one,
  // serving must not silently diverge from the training graph.
  APAN_CHECK_MSG(!wq_.has_bias() && !wk_.has_bias() && !wv_.has_bias() &&
                     !wo_.has_bias(),
                 "fused attention path assumes bias-free projections");

  // q = query W_Q, {b, d}.
  Tensor q = tensor::ForwardBuffer({batch, model_dim_}, /*zero=*/false);
  kernels::MatMul(query.data(), wq_.weight().data(), q.data(), batch, dq,
                  model_dim_);

  // Per-call weight views: W_Kᵀ {d, dk} (rows h*dh .. h*dh+dh-1 are head
  // h's W_K,hᵀ) and W_V's column blocks as contiguous {h, dv, dh}.
  Tensor wk_t = tensor::ForwardBuffer({model_dim_, dk}, /*zero=*/false);
  const float* wk = wk_.weight().data();
  float* wkt = wk_t.data();
  for (int64_t r = 0; r < dk; ++r) {
    for (int64_t c = 0; c < model_dim_; ++c) {
      wkt[c * dk + r] = wk[r * model_dim_ + c];
    }
  }
  Tensor wv_heads = tensor::ForwardBuffer({h, dv, dh}, /*zero=*/false);
  for (int64_t hi = 0; hi < h; ++hi) {
    GatherCols(wv_.weight().data(), dv, model_dim_, hi * dh, dh,
               wv_heads.data() + hi * dv * dh);
  }

  // Per-head scratch, reused by every head: each kernel call below reads
  // and writes contiguous {batch, ·} blocks.
  Tensor q_head = tensor::ForwardBuffer({batch, dh}, /*zero=*/false);
  Tensor qk = tensor::ForwardBuffer({batch, dk}, /*zero=*/false);
  Tensor attn = tensor::ForwardBuffer({batch, num_keys}, /*zero=*/false);
  Tensor mail_ctx = tensor::ForwardBuffer({batch, dv}, /*zero=*/false);
  Tensor head_ctx = tensor::ForwardBuffer({batch, dh}, /*zero=*/false);
  Tensor context = tensor::ForwardBuffer({batch, model_dim_}, /*zero=*/false);
  Tensor weights = tensor::ForwardBuffer({batch, h, num_keys},
                                         /*zero=*/false);
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  for (int64_t hi = 0; hi < h; ++hi) {
    // score_s = m_s · (W_K,h q_h): one {b, dh} x {dh, dk} GEMM per head
    // instead of projecting every key.
    GatherCols(q.data(), batch, model_dim_, hi * dh, dh, q_head.data());
    kernels::MatMul(q_head.data(), wk_t.data() + hi * dh * dk, qk.data(),
                    batch, dh, dk);
    kernels::AttentionScores(qk.data(), keys.data(), attn.data(), batch,
                             num_keys, dk, scale);
    kernels::MaskedSoftmax(attn.data(),
                           mask != nullptr ? mask->data() : nullptr,
                           attn.data(), batch, num_keys);
    // context_h = (Σ_s a_s v_s) W_V,h: weight the raw values, then
    // project the one weighted sum.
    kernels::AttentionContext(attn.data(), values.data(), mail_ctx.data(),
                              batch, num_keys, dv);
    kernels::MatMul(mail_ctx.data(), wv_heads.data() + hi * dv * dh,
                    head_ctx.data(), batch, dv, dh);
    ScatterCols(head_ctx.data(), batch, dh, context.data(), model_dim_,
                hi * dh);
    ScatterCols(attn.data(), batch, num_keys, weights.data(), h * num_keys,
                hi * num_keys);
  }

  Tensor out = tensor::ForwardBuffer({batch, model_dim_}, /*zero=*/false);
  kernels::MatMul(context.data(), wo_.weight().data(), out.data(), batch,
                  model_dim_, model_dim_);

  AttentionOutput result;
  result.output = out;
  result.weights = weights;  // {batch, heads, num_keys}, no grad
  return result;
}

}  // namespace nn
}  // namespace apan
