// ApanModel — the full APAN system (paper Figure 3), factored into the
// two planes a distributed deployment needs (paper §3.6):
//
//   · shared serve-time *weights* — encoder, task decoders, link
//     calibration — small, immutable during serving, replicable on every
//     shard (serve::ShardedEngine reads them through a const model);
//   · mutable per-node *state* — the z(t−) table and the mailbox — held
//     in a core::NodeStateStore. The model owns one default store
//     covering all nodes (the monolithic layout that training and the
//     serial serving path use); serve::ShardedEngine replaces it with N
//     disjoint per-shard stores and never touches this one.
//
// The synchronous path (EncodeNodes → decoder) touches only the state
// store — node embeddings and mailboxes — and never queries the temporal
// graph; the test suite asserts this via TemporalGraph::query_count().
// The asynchronous path (ProcessBatchPostInference) is the only graph
// reader: it samples the k-hop neighbourhoods, runs the graph-free
// propagation kernel over them, and appends the batch's events.

#ifndef APAN_CORE_APAN_MODEL_H_
#define APAN_CORE_APAN_MODEL_H_

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/config.h"
#include "core/decoder.h"
#include "core/encoder.h"
#include "core/mailbox.h"
#include "core/node_state_store.h"
#include "core/propagator.h"
#include "graph/edge_features.h"
#include "graph/temporal_graph.h"
#include "nn/module.h"

namespace apan {
namespace core {

/// \brief End-to-end APAN over one graph.
class ApanModel : public nn::Module {
 public:
  /// `features` must outlive the model. The model owns its temporal graph
  /// (events are appended as the stream is consumed).
  ApanModel(const ApanConfig& config,
            const graph::EdgeFeatureStore* features, uint64_t seed);

  const ApanConfig& config() const { return config_; }
  graph::TemporalGraph& graph() { return graph_; }
  const graph::TemporalGraph& graph() const { return graph_; }
  /// The default (all-nodes) state store's mailbox. Local rows equal
  /// global node ids here, so it is addressed by node id as always.
  Mailbox& mailbox() { return DefaultStore().mailbox(); }
  const Mailbox& mailbox() const { return DefaultStore().mailbox(); }
  /// The default all-nodes state store (z(t−) rows + mailbox). Allocated
  /// lazily on first monolithic-state access: a process that serves only
  /// through ShardedEngine (which never touches it) does not pay
  /// O(num_nodes · slots · dim) for a plane it replaced with per-shard
  /// stores — weights-only replicas stay weights-only.
  NodeStateStore& state_store() { return DefaultStore(); }
  const NodeStateStore& state_store() const { return DefaultStore(); }
  /// Whether the default store has been materialized (quiescent
  /// inspection; false for a model used exclusively through
  /// ShardedEngine).
  bool state_store_allocated() const { return store_ != nullptr; }
  ApanEncoder& encoder() { return encoder_; }
  const ApanEncoder& encoder() const { return encoder_; }
  LinkDecoder& link_decoder() { return link_decoder_; }
  EdgeDecoder& edge_decoder() { return edge_decoder_; }
  NodeDecoder& node_decoder() { return node_decoder_; }
  Rng* rng() { return &rng_; }

  // ---- Synchronous link ----------------------------------------------------

  /// Current stored embedding z(t−) of each node as a constant tensor.
  tensor::Tensor GatherLastEmbeddings(
      const std::vector<graph::NodeId>& nodes) const;

  /// \brief Encoder pass for a set of nodes: reads mailboxes + last
  /// embeddings from the default store, returns new embeddings (in the
  /// autograd graph when training) and attention weights. No graph
  /// queries.
  ApanEncoder::Output EncodeNodes(const std::vector<graph::NodeId>& nodes);

  /// \brief Link-prediction logits per the paper's Eq. 7: a scaled dot
  /// product σ(z_iᵀ z_j) with a learnable affine calibration. (The MLP
  /// decoders serve the downstream classification heads of §3.4.)
  /// \return {batch, 1} logits.
  tensor::Tensor ScoreLinkLogits(const tensor::Tensor& z_src,
                                 const tensor::Tensor& z_dst) const;

  // ---- Asynchronous link ---------------------------------------------------

  /// \brief Completes a batch after inference, in flat form: `z` is the
  /// batch's detached embedding matrix (row-major, embedding_dim wide) and
  /// event r's endpoint embeddings are its rows `src_row[r]` and
  /// `dst_row[r]`. In order: walks the events, writing those rows as the
  /// endpoints' new z(t−) (a later event wins on duplicates) and
  /// delivering each event's hop-0 mail (propagator().MailRow) to its
  /// endpoints; samples each event's k-hop neighbourhood N on the model's
  /// own graph, before the batch is appended; runs
  /// propagator().PropagateRows and delivers each ρ-finalized row; appends
  /// the events to the graph. Every mailbox write is
  /// NodeStateStore::Deliver.
  /// \param events one per row pair, in timestamp order.
  /// \return first error from the graph append, if any.
  Status ProcessBatchPostInference(std::span<const graph::Event> events,
                                   std::span<const float> z,
                                   std::span<const int64_t> src_row,
                                   std::span<const int64_t> dst_row);

  /// \name Record form
  /// Post-inference stages 1 (z(t−) write) and 5 (graph append) over
  /// InteractionRecords. Kept only for servebench/harness.cc, which
  /// replays ProcessBatchPostInference call by call (see the record block
  /// in core/propagator.h). AppendEvents must follow the batch's N
  /// sampling, so that neighbourhoods reflect the graph at batch start.
  ///@{
  void ApplyEmbeddings(const std::vector<InteractionRecord>& records);
  Status AppendEvents(const std::vector<InteractionRecord>& records);
  ///@}

  /// Writes detached embedding values into the z(t−) table.
  void UpdateLastEmbeddings(const std::vector<graph::NodeId>& nodes,
                            const tensor::Tensor& embeddings);

  /// Raw read of one node's stored embedding (tests / examples).
  /// Bounds-checked: aborts on an out-of-range node.
  std::vector<float> LastEmbedding(graph::NodeId node) const;

  /// Raw write of one node's stored embedding z(t−). Bounds-checked:
  /// `node` must be in range and `z` must hold embedding_dim floats — a
  /// violation aborts instead of silently indexing out of range.
  void SetLastEmbedding(graph::NodeId node, std::span<const float> z);

  // ---- Lifecycle -----------------------------------------------------------

  /// Zeroes all per-node state and drops all mail; resets the graph to
  /// empty. Called between training epochs (streaming state is epoch-local
  /// while weights persist).
  void ResetState();

  const MailPropagator& propagator() const { return propagator_; }

 private:
  /// Lazily materializes the default all-nodes store (thread-safe
  /// creation; access synchronization stays the caller's contract, as
  /// it always was for the mailbox and z table).
  NodeStateStore& DefaultStore() const;

  ApanConfig config_;
  const graph::EdgeFeatureStore* features_;
  Rng rng_;
  graph::TemporalGraph graph_;
  mutable std::once_flag store_once_;
  mutable std::unique_ptr<NodeStateStore> store_;  // default all-nodes store
  ApanEncoder encoder_;
  LinkDecoder link_decoder_;
  EdgeDecoder edge_decoder_;
  NodeDecoder node_decoder_;
  MailPropagator propagator_;
  /// N's draws under PropagationSampling::kUniform. Deliberately not
  /// reset by ResetState: epochs continue one sampling stream.
  Rng sampling_rng_{0xA9A17ULL};
  tensor::Tensor link_scale_;  // {1, 1} Eq. 7 calibration
  tensor::Tensor link_bias_;   // {1}
};

}  // namespace core
}  // namespace apan

#endif  // APAN_CORE_APAN_MODEL_H_
