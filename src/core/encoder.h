// APAN's attention-based encoder (paper §3.3, Figure 4).
//
// Computes the new temporal embedding of a node from its last embedding
// z(t−) and its mailbox M(t):
//
//   M̂(t) = M(t) + P                      (positional encoding, Eq. 2)
//   a    = MultiHead(Q = z(t−) W_Q,
//                    K = M̂ W_K, V = M̂ W_V) + z(t−)   (Eq. 3-4, shortcut)
//   z(t) = MLP(LayerNorm(a))              (Eq. 5 + the MLP that follows)
//
// The training forward evaluates this as written. The inference forward
// (the serving encode) never projects a mail: per head it folds W_K into
// the query, scores the enriched mails M̂ against W_K,h q_h, and applies
// W_V,h once to the attention-weighted sum of M̂ (see
// MultiHeadAttention::ForwardInference); the two agree to rounding.
//
// No graph query happens here — this is the synchronous link.

#ifndef APAN_CORE_ENCODER_H_
#define APAN_CORE_ENCODER_H_

#include "core/config.h"
#include "core/mailbox.h"
#include "nn/attention.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "nn/time_encoding.h"

namespace apan {
namespace core {

/// \brief The encoder network. One instance serves every node.
class ApanEncoder : public nn::Module {
 public:
  ApanEncoder(const ApanConfig& config, Rng* rng);

  struct Output {
    /// New embeddings z(t), {batch, dim}.
    tensor::Tensor embeddings;
    /// Detached attention weights {batch, heads, slots}; the per-mail
    /// importance used for interpretability (paper §3.6).
    tensor::Tensor attention;
  };

  /// \brief The one entry point: encodes a batch from copies of its
  /// state, so it reads no store and needs no lock. Callers gather the
  /// inputs from a NodeStateStore (GatherLastEmbeddings + ReadBatch);
  /// a sharded deployment gathers under the shard's state lock and runs
  /// this after releasing it.
  /// \param last_embeddings z(t−) as a constant {batch, dim} tensor.
  /// \param mailbox_read time-sorted mails + mask from Mailbox::ReadBatch.
  ///        Aborts unless it matches the batch: one count in [0, slots]
  ///        per row, and batch*slots mask entries (and timestamps, in
  ///        the time-kernel mode).
  Output Forward(const tensor::Tensor& last_embeddings,
                 const Mailbox::ReadResult& mailbox_read,
                 Rng* dropout_rng = nullptr) const;

  int64_t dim() const { return dim_; }
  int64_t slots() const { return slots_; }

  /// \brief Times this thread rebuilt the learned-position id table
  /// (thread-local counter). The table depends only on (batch, slots),
  /// so repeated encodes at one batch size must rebuild it exactly once —
  /// the regression tests assert the counter stays flat.
  static int64_t position_ids_rebuilds();

 private:
  /// Kernel-fused forward for inference mode: positional enrichment,
  /// attention, residual+LayerNorm and the MLP all run through the
  /// dispatched kernels with arena-allocated intermediates, skipping the
  /// Reshape copies and the per-call position-id rebuild.
  Output ForwardInference(const tensor::Tensor& last_embeddings,
                          const Mailbox::ReadResult& mailbox_read) const;

  int64_t dim_;
  int64_t slots_;
  float dropout_;
  PositionalMode positional_mode_;
  nn::EmbeddingTable positional_;      // {slots, dim} (kLearnedPosition)
  nn::TimeEncoding time_positional_;   // Φ(Δt) (kTimeKernel, §3.6)
  nn::MultiHeadAttention attention_;
  nn::LayerNorm layer_norm_;
  nn::Mlp mlp_;
};

}  // namespace core
}  // namespace apan

#endif  // APAN_CORE_ENCODER_H_
