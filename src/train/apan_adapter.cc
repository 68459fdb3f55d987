#include "train/apan_adapter.h"

#include <cmath>

#include "tensor/arena.h"
#include "tensor/ops.h"

namespace apan {
namespace train {

using tensor::Tensor;

ApanLinkModel::ApanLinkModel(const core::ApanConfig& config,
                             const graph::EdgeFeatureStore* features,
                             uint64_t seed, std::string name)
    : name_(std::move(name)), model_(config, features, seed) {}

ApanLinkModel::Encoded ApanLinkModel::Encode(const EventBatch& batch,
                                             bool with_negatives) {
  APAN_CHECK(batch.dataset != nullptr && batch.size() > 0);
  Encoded enc;
  auto intern = [&](graph::NodeId v) {
    auto [it, inserted] = enc.row_of.try_emplace(
        v, static_cast<int64_t>(enc.unique_nodes.size()));
    if (inserted) enc.unique_nodes.push_back(v);
    return it->second;
  };
  for (size_t i = 0; i < batch.size(); ++i) {
    intern(batch.event(i).src);
    intern(batch.event(i).dst);
  }
  if (with_negatives) {
    APAN_CHECK_MSG(batch.negatives.size() == batch.size(),
                   "batch negatives missing");
    for (graph::NodeId v : batch.negatives) intern(v);
  }

  const int64_t queries_before = model_.graph().query_count();
  enc.output = model_.EncodeNodes(enc.unique_nodes);
  sync_queries_ += model_.graph().query_count() - queries_before;

  // Cache detached values for Consume.
  has_cache_ = true;
  cache_begin_ = batch.begin;
  cache_end_ = batch.end;
  cache_nodes_ = enc.unique_nodes;
  const Tensor& emb = enc.output.embeddings;
  cache_values_.assign(emb.data(), emb.data() + emb.numel());
  return enc;
}

TemporalModel::LinkScores ApanLinkModel::ScoreLinks(const EventBatch& batch) {
  // Inference-mode scoring (the fig6 serve path) draws every op output
  // from the thread's arena; in training mode the scope is inert. The
  // returned logits stay valid after the scope closes — a pooled tensor
  // is only recycled once the caller drops it (use_count guard).
  tensor::ArenaScope arena_scope;
  Encoded enc = Encode(batch, /*with_negatives=*/true);
  std::vector<int64_t> src_rows, dst_rows, neg_rows;
  src_rows.reserve(batch.size());
  dst_rows.reserve(batch.size());
  neg_rows.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    src_rows.push_back(enc.row_of.at(batch.event(i).src));
    dst_rows.push_back(enc.row_of.at(batch.event(i).dst));
    neg_rows.push_back(enc.row_of.at(batch.negatives[i]));
  }
  Tensor z_src = tensor::GatherRows(enc.output.embeddings, src_rows);
  Tensor z_dst = tensor::GatherRows(enc.output.embeddings, dst_rows);
  Tensor z_neg = tensor::GatherRows(enc.output.embeddings, neg_rows);
  LinkScores scores;
  scores.pos_logits = model_.ScoreLinkLogits(z_src, z_dst);
  scores.neg_logits = model_.ScoreLinkLogits(z_src, z_neg);
  return scores;
}

TemporalModel::EndpointEmbeddings ApanLinkModel::EmbedEndpoints(
    const EventBatch& batch) {
  Encoded enc = Encode(batch, /*with_negatives=*/false);
  std::vector<int64_t> src_rows, dst_rows;
  for (size_t i = 0; i < batch.size(); ++i) {
    src_rows.push_back(enc.row_of.at(batch.event(i).src));
    dst_rows.push_back(enc.row_of.at(batch.event(i).dst));
  }
  EndpointEmbeddings out;
  out.z_src = tensor::GatherRows(enc.output.embeddings, src_rows);
  out.z_dst = tensor::GatherRows(enc.output.embeddings, dst_rows);
  return out;
}

Status ApanLinkModel::Consume(const EventBatch& batch) {
  if (batch.size() == 0) return Status::OK();
  tensor::ArenaScope arena_scope;
  // The embeddings written into state and mails are always recomputed in
  // eval mode: reusing the training-mode forward would bake dropout noise
  // into the mailbox and slow the bootstrap.
  if (!has_cache_ || cache_begin_ != batch.begin ||
      cache_end_ != batch.end || model_.training()) {
    tensor::NoGradGuard no_grad;
    const bool was_training = model_.training();
    if (was_training) model_.SetTraining(false);
    Encode(batch, /*with_negatives=*/false);
    if (was_training) model_.SetTraining(true);
  }
  std::unordered_map<graph::NodeId, int64_t> row_of;
  for (size_t i = 0; i < cache_nodes_.size(); ++i) {
    row_of[cache_nodes_[i]] = static_cast<int64_t>(i);
  }
  // The cached embedding matrix goes in as is; each event names its
  // endpoints' rows in it.
  std::vector<graph::Event> events;
  std::vector<int64_t> src_rows, dst_rows;
  events.reserve(batch.size());
  src_rows.reserve(batch.size());
  dst_rows.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const graph::Event& e = batch.event(i);
    events.push_back(e);
    src_rows.push_back(row_of.at(e.src));
    dst_rows.push_back(row_of.at(e.dst));
  }
  has_cache_ = false;
  return model_.ProcessBatchPostInference(events, cache_values_, src_rows,
                                          dst_rows);
}

void ApanLinkModel::ResetState() {
  model_.ResetState();
  has_cache_ = false;
  sync_queries_ = 0;
}

}  // namespace train
}  // namespace apan
