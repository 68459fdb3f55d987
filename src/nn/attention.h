// Scaled dot-product multi-head attention (Vaswani et al., 2017) — the
// encoder core of APAN (paper §3.3, Eq. 3-4) and of the TGAT/TGN baselines.

#ifndef APAN_NN_ATTENTION_H_
#define APAN_NN_ATTENTION_H_

#include <cstdint>
#include <vector>

#include "nn/layers.h"
#include "nn/module.h"
#include "tensor/tensor.h"

namespace apan {
namespace nn {

/// Output of an attention call.
struct AttentionOutput {
  /// Attended representation, {batch, model_dim}.
  tensor::Tensor output;
  /// Detached attention weights {batch, heads, num_keys}; rows over keys
  /// sum to 1. Exposed for the interpretability analysis in paper §3.6.
  tensor::Tensor weights;
};

/// \brief Multi-head attention with a single query per batch element.
///
/// APAN attends from the node's last embedding z(t−) (one query) over its
/// mailbox (m keys/values); TGAT/TGN attend from a node over its sampled
/// temporal neighbors. Both are covered by the {batch, 1 query, m keys}
/// case, which this class implements without materializing a query axis.
class MultiHeadAttention : public Module {
 public:
  /// `model_dim` must be divisible by `num_heads`. Query, keys and values
  /// may have their own input dims (0 = model_dim); they are projected to
  /// model_dim internally.
  MultiHeadAttention(int64_t model_dim, int64_t num_heads, Rng* rng,
                     int64_t key_dim = 0, int64_t value_dim = 0,
                     int64_t query_dim = 0);

  /// \param query  {batch, query_dim}
  /// \param keys   {batch, num_keys, key_dim}
  /// \param values {batch, num_keys, value_dim}
  /// \param mask   optional, size batch*num_keys (row-major); entries are
  ///               added to the pre-softmax scores: 0 keeps a slot, a large
  ///               negative value (kMaskedOut) removes it.
  AttentionOutput Forward(const tensor::Tensor& query,
                          const tensor::Tensor& keys,
                          const tensor::Tensor& values,
                          const std::vector<float>* mask = nullptr) const;

  int64_t model_dim() const { return model_dim_; }
  int64_t num_heads() const { return num_heads_; }

  /// Additive mask value that suppresses a slot.
  static constexpr float kMaskedOut = -1e9f;

 private:
  /// Kernel-fused forward for inference mode (NoGradGuard active). Keys
  /// and values are never projected: with one query per row, head h
  /// evaluates
  ///   q_h       = (query W_Q)[:, h*dh : (h+1)*dh]
  ///   score_s   = keys_s · (W_K,h q_h) / sqrt(dh)
  ///   a         = softmax(score + mask)
  ///   context_h = (Σ_s a_s values_s) W_V,h
  /// and the heads' contexts go through W_O — the training graph's math
  /// with the K/V projections moved across the dot product, so each head
  /// costs two {batch, ·} GEMMs instead of two {batch*num_keys, ·} ones.
  /// Floats are summed in a different order than in Forward's graph, so
  /// the two agree to rounding, not bitwise. No autograd graph, no
  /// batch*heads*num_keys mask expansion; all intermediates come from the
  /// active TensorArena.
  AttentionOutput ForwardInference(const tensor::Tensor& query,
                                   const tensor::Tensor& keys,
                                   const tensor::Tensor& values,
                                   const std::vector<float>* mask) const;

  int64_t model_dim_;
  int64_t num_heads_;
  int64_t head_dim_;
  Linear wq_;
  Linear wk_;
  Linear wv_;
  Linear wo_;
};

}  // namespace nn
}  // namespace apan

#endif  // APAN_NN_ATTENTION_H_
