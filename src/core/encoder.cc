#include "core/encoder.h"

#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace apan {
namespace core {

using tensor::Tensor;

namespace {

/// Thread-local learned-position id cache: the table is the same for
/// every encode at a given (batch, slots), so rebuild only when either
/// changes. Thread-local keeps the encoder's Forward const and safe for
/// the shard-concurrent encode pool.
struct PositionIdCache {
  std::vector<int64_t> ids;
  int64_t batch = -1;
  int64_t slots = -1;
  int64_t rebuilds = 0;
};
thread_local PositionIdCache t_position_ids;

const std::vector<int64_t>& PositionIds(int64_t batch, int64_t slots) {
  PositionIdCache& cache = t_position_ids;
  if (cache.batch != batch || cache.slots != slots) {
    cache.ids.resize(static_cast<size_t>(batch * slots));
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t p = 0; p < slots; ++p) {
        cache.ids[static_cast<size_t>(b * slots + p)] = p;
      }
    }
    cache.batch = batch;
    cache.slots = slots;
    ++cache.rebuilds;
  }
  return cache.ids;
}

/// Mail ages for the time-kernel positional mode (thread-local reuse).
std::vector<double>& TimeDeltas(const Mailbox::ReadResult& read,
                                int64_t batch, int64_t slots) {
  thread_local std::vector<double> deltas;
  deltas.assign(static_cast<size_t>(batch * slots), 0.0);
  for (int64_t b = 0; b < batch; ++b) {
    const int64_t c = read.counts[static_cast<size_t>(b)];
    if (c == 0) continue;
    const double newest =
        read.timestamps[static_cast<size_t>(b * slots + c - 1)];
    for (int64_t p = 0; p < c; ++p) {
      deltas[static_cast<size_t>(b * slots + p)] =
          newest - read.timestamps[static_cast<size_t>(b * slots + p)];
    }
  }
  return deltas;
}

}  // namespace

int64_t ApanEncoder::position_ids_rebuilds() {
  return t_position_ids.rebuilds;
}

ApanEncoder::ApanEncoder(const ApanConfig& config, Rng* rng)
    : dim_(config.embedding_dim),
      slots_(config.mailbox_slots),
      dropout_(config.dropout),
      positional_mode_(config.positional),
      positional_(config.mailbox_slots, config.embedding_dim, rng),
      time_positional_(config.embedding_dim, rng),
      attention_(config.embedding_dim, config.num_heads, rng),
      layer_norm_(config.embedding_dim),
      mlp_(config.embedding_dim, config.mlp_hidden, config.embedding_dim,
           rng, config.dropout) {
  APAN_CHECK(config.Validate().ok());
  if (positional_mode_ == PositionalMode::kLearnedPosition) {
    RegisterChild(&positional_);
  } else {
    RegisterChild(&time_positional_);
  }
  RegisterChild(&attention_);
  RegisterChild(&layer_norm_);
  RegisterChild(&mlp_);
}

ApanEncoder::Output ApanEncoder::Forward(
    const Tensor& last_embeddings, const Mailbox::ReadResult& mailbox_read,
    Rng* dropout_rng) const {
  APAN_CHECK(last_embeddings.defined());
  APAN_CHECK_MSG(last_embeddings.rank() == 2 &&
                     last_embeddings.dim(1) == dim_,
                 "encoder expects {batch, dim} last embeddings");
  const Tensor& mails = mailbox_read.mails;
  APAN_CHECK_MSG(mails.rank() == 3 && mails.dim(1) == slots_ &&
                     mails.dim(2) == dim_,
                 "encoder mailbox tensor shape mismatch");
  const int64_t batch = last_embeddings.dim(0);
  APAN_CHECK(mails.dim(0) == batch);
  // Both forwards index the mask and, in the time-kernel mode, each row's
  // first `counts[b]` timestamps, so a malformed read must abort here.
  APAN_CHECK_MSG(mailbox_read.mask.size() ==
                     static_cast<size_t>(batch * slots_),
                 "encoder mailbox mask must have batch*slots entries");
  APAN_CHECK_MSG(mailbox_read.counts.size() == static_cast<size_t>(batch),
                 "encoder mailbox counts must have one entry per row");
  for (const int64_t c : mailbox_read.counts) {
    APAN_CHECK_MSG(c >= 0 && c <= slots_,
                   "encoder mailbox count outside [0, slots]");
  }
  if (positional_mode_ == PositionalMode::kTimeKernel) {
    APAN_CHECK_MSG(
        mailbox_read.timestamps.size() ==
            static_cast<size_t>(batch * slots_),
        "time-kernel positional mode needs mailbox timestamps");
  }

  if (!tensor::NoGradGuard::GradEnabled()) {
    return ForwardInference(last_embeddings, mailbox_read);
  }

  Tensor flat = tensor::Reshape(mails, {batch * slots_, dim_});
  Tensor pos;
  if (positional_mode_ == PositionalMode::kLearnedPosition) {
    // Positional encoding (Eq. 2): slot position p (time-sorted order)
    // gets row p of the learnable table, identically per batch element.
    pos = positional_.Forward(PositionIds(batch, slots_));  // {b*m, d}
  } else {
    // §3.6 extension: Bochner time kernel over (newest mail − mail) age.
    pos = time_positional_.Forward(
        TimeDeltas(mailbox_read, batch, slots_));  // {b*m, d}
  }
  Tensor enriched = tensor::Add(flat, pos);
  enriched = tensor::Reshape(enriched, {batch, slots_, dim_});

  // Multi-head attention with the last embedding as the single query.
  nn::AttentionOutput attn = attention_.Forward(
      last_embeddings, enriched, enriched, &mailbox_read.mask);

  // Shortcut addition (⊕ in Figure 4), then LayerNorm, then MLP — exactly
  // the paper's block: z(t) = MLP(LayerNorm(MHA + z(t−))).
  Tensor residual = tensor::Add(attn.output, last_embeddings);
  if (dropout_ > 0.0f && training() && dropout_rng != nullptr) {
    residual =
        tensor::Dropout(residual, dropout_, /*training=*/true, dropout_rng);
  }
  Tensor normed = layer_norm_.Forward(residual);
  Tensor out = mlp_.Forward(normed, dropout_rng);

  Output result;
  result.embeddings = out;
  result.attention = attn.weights;
  return result;
}

ApanEncoder::Output ApanEncoder::ForwardInference(
    const Tensor& last_embeddings,
    const Mailbox::ReadResult& mailbox_read) const {
  const Tensor& mails = mailbox_read.mails;
  const int64_t batch = last_embeddings.dim(0);

  // Positional enrichment without the flatten/reshape copies: for the
  // learned mode the whole {slots, dim} table is one periodic "bias" over
  // each batch element's {slots * dim} block — no position-id gather at
  // all on the serve path.
  Tensor enriched =
      tensor::ForwardBuffer({batch, slots_, dim_}, /*zero=*/false);
  if (positional_mode_ == PositionalMode::kLearnedPosition) {
    tensor::kernels::AddBias(mails.data(), positional_.table().data(),
                             enriched.data(), batch, slots_ * dim_);
  } else {
    Tensor pos = time_positional_.Forward(
        TimeDeltas(mailbox_read, batch, slots_));  // {b*m, d}
    tensor::kernels::AddSame(mails.data(), pos.data(), enriched.data(),
                             batch * slots_ * dim_);
  }

  // Fused attention (no mail is projected through W_K or W_V), then the
  // fused residual+LayerNorm and the fused-ReLU MLP. Dropout is
  // inference-inert by definition here.
  nn::AttentionOutput attn = attention_.Forward(
      last_embeddings, enriched, enriched, &mailbox_read.mask);
  Tensor normed = layer_norm_.ForwardResidual(attn.output, last_embeddings);
  Tensor out = mlp_.Forward(normed);

  Output result;
  result.embeddings = out;
  result.attention = attn.weights;
  return result;
}

}  // namespace core
}  // namespace apan
