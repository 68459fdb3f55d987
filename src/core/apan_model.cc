#include "core/apan_model.h"

#include <cmath>

#include "graph/sampling.h"
#include "tensor/ops.h"

namespace apan {
namespace core {

using tensor::Tensor;

ApanModel::ApanModel(const ApanConfig& config,
                     const graph::EdgeFeatureStore* features, uint64_t seed)
    : config_(config),
      features_(features),
      rng_(seed),
      graph_(config.num_nodes),
      encoder_(config, &rng_),
      link_decoder_(config.embedding_dim, config.mlp_hidden, &rng_),
      edge_decoder_(config.embedding_dim,
                    features != nullptr ? features->dim()
                                        : config.embedding_dim,
                    config.mlp_hidden, &rng_),
      node_decoder_(config.embedding_dim, config.mlp_hidden, &rng_),
      propagator_(config, features) {
  APAN_CHECK(features != nullptr);
  APAN_CHECK_MSG(features->dim() == config.embedding_dim,
                 "APAN requires embedding_dim == edge feature dim");
  link_scale_ = Tensor::Ones({1, 1}, /*requires_grad=*/true);
  link_bias_ = Tensor::Zeros({1}, /*requires_grad=*/true);
  RegisterParameter(link_scale_);
  RegisterParameter(link_bias_);
  RegisterChild(&encoder_);
  RegisterChild(&link_decoder_);
  RegisterChild(&edge_decoder_);
  RegisterChild(&node_decoder_);
}

NodeStateStore& ApanModel::DefaultStore() const {
  std::call_once(store_once_, [this] {
    store_ = std::make_unique<NodeStateStore>(
        config_.num_nodes, config_.mailbox_slots, config_.embedding_dim);
  });
  return *store_;
}

Tensor ApanModel::ScoreLinkLogits(const Tensor& z_src,
                                  const Tensor& z_dst) const {
  const float inv_sqrt_d =
      1.0f / std::sqrt(static_cast<float>(config_.embedding_dim));
  Tensor dot = tensor::MulScalar(tensor::RowwiseDot(z_src, z_dst), inv_sqrt_d);
  return tensor::Add(tensor::MatMul(dot, link_scale_), link_bias_);
}

Tensor ApanModel::GatherLastEmbeddings(
    const std::vector<graph::NodeId>& nodes) const {
  return DefaultStore().GatherLastEmbeddings(nodes);
}

ApanEncoder::Output ApanModel::EncodeNodes(
    const std::vector<graph::NodeId>& nodes) {
  APAN_CHECK_MSG(!nodes.empty(), "EncodeNodes on empty node list");
  const NodeStateStore& store = DefaultStore();
  return encoder_.Forward(store.GatherLastEmbeddings(nodes),
                          store.ReadBatch(nodes), &rng_);
}

void ApanModel::UpdateLastEmbeddings(
    const std::vector<graph::NodeId>& nodes, const Tensor& embeddings) {
  DefaultStore().UpdateLastEmbeddings(nodes, embeddings);
}

std::vector<float> ApanModel::LastEmbedding(graph::NodeId node) const {
  return DefaultStore().LastEmbedding(node);
}

void ApanModel::SetLastEmbedding(graph::NodeId node,
                                 std::span<const float> z) {
  DefaultStore().SetLastEmbedding(node, z);
}

Status ApanModel::ProcessBatchPostInference(
    std::span<const graph::Event> events, std::span<const float> z,
    std::span<const int64_t> src_row, std::span<const int64_t> dst_row) {
  const size_t n = events.size();
  const auto d = static_cast<size_t>(config_.embedding_dim);
  APAN_CHECK_MSG(src_row.size() == n && dst_row.size() == n,
                 "one embedding row pair per event");
  APAN_CHECK_MSG(z.size() % d == 0,
                 "interaction embeddings have wrong dimension");
  const auto embedding = [&z, d](int64_t row) {
    APAN_CHECK_MSG(row >= 0 && static_cast<size_t>(row) < z.size() / d,
                   "interaction embedding row out of range");
    return z.subspan(static_cast<size_t>(row) * d, d);
  };
  NodeStateStore& store = DefaultStore();
  // The endpoints, in event order. z(t−): when a node appears several
  // times in a batch, the later event (newer timestamp) wins — events are
  // required to be time-ordered. ψ at hop 0 (DeliverHop0): each endpoint
  // keeps one unreduced slot per event, ahead of its ρ mail below.
  std::vector<float> mail(d);
  for (size_t r = 0; r < n; ++r) {
    const graph::Event& e = events[r];
    propagator_.DeliverHop0(
        e, embedding(src_row[r]).data(), embedding(dst_row[r]).data(), mail,
        [&store, &e, d](graph::NodeId node, const float* z_node,
                        std::span<const float> row) {
          store.SetLastEmbedding(node, {z_node, d});
          store.Deliver(node, row, e.timestamp);
        });
  }
  // N: sampled before the batch's edges are appended, so neighbourhoods
  // reflect the graph at batch start (endpoints still receive their own
  // mail at hop 0). Most-recent is the paper's choice; uniform is the
  // §3.5 alternative, drawing from one stream in event order.
  std::vector<std::vector<graph::HopEntry>> hops(n);
  if (config_.propagation_hops > 0) {
    for (size_t r = 0; r < n; ++r) {
      const graph::Event& e = events[r];
      hops[r] = config_.sampling == PropagationSampling::kMostRecent
                    ? graph::KHopMostRecent(graph_, {e.src, e.dst},
                                            e.timestamp,
                                            config_.propagation_hops,
                                            config_.sampled_neighbors)
                    : graph::KHopUniform(graph_, {e.src, e.dst}, e.timestamp,
                                         config_.propagation_hops,
                                         config_.sampled_neighbors,
                                         &sampling_rng_);
    }
  }
  RowBlock partial;
  propagator_.PropagateRows({events, z, src_row, dst_row},
                            HopList::FromEntries(hops), &partial);
  // ψ for ρ: each recipient's reduced mail.
  for (size_t i = 0; i < partial.size(); ++i) {
    MailPropagator::FinalizeRow(partial.row(i), partial.width,
                                partial.count[i]);
    store.Deliver(partial.node[i], {partial.row(i), d},
                  partial.timestamp[i]);
  }
  for (const graph::Event& e : events) {
    APAN_RETURN_NOT_OK(graph_.AddEvent(e));
  }
  return Status::OK();
}

void ApanModel::ApplyEmbeddings(
    const std::vector<InteractionRecord>& records) {
  NodeStateStore& store = DefaultStore();
  for (const InteractionRecord& r : records) {
    store.SetLastEmbedding(r.event.src, r.z_src);
    store.SetLastEmbedding(r.event.dst, r.z_dst);
  }
}

Status ApanModel::AppendEvents(
    const std::vector<InteractionRecord>& records) {
  for (const InteractionRecord& r : records) {
    APAN_RETURN_NOT_OK(graph_.AddEvent(r.event));
  }
  return Status::OK();
}

void ApanModel::ResetState() {
  // Reset without materializing: an unallocated store is already reset.
  if (store_ != nullptr) store_->Reset();
  graph_.Reset();
}

}  // namespace core
}  // namespace apan
