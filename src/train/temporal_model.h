// Common streaming interface for CTDG models.
//
// The trainer drives every dynamic model (APAN, TGN, TGAT, JODIE, DyRep —
// and the static GNNs, which simply ignore streaming state) through the
// same protocol:
//
//   per chronological batch B:
//     ScoreLinks(B)  — embeddings + pos/neg logits (autograd when training)
//     [loss backward + optimizer step]
//     Consume(B)     — advance streaming state past B (no gradients)
//
// Consume must be callable without a prior ScoreLinks on the same batch
// (the classification probes stream without scoring).

#ifndef APAN_TRAIN_TEMPORAL_MODEL_H_
#define APAN_TRAIN_TEMPORAL_MODEL_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "graph/temporal_graph.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace apan {
namespace train {

/// One chronological batch of a dataset plus per-event negative samples.
struct EventBatch {
  const data::Dataset* dataset = nullptr;
  size_t begin = 0;
  size_t end = 0;
  /// One negative destination per event; may be empty for calls that only
  /// need endpoint embeddings (EmbedEndpoints / Consume).
  std::vector<graph::NodeId> negatives;

  size_t size() const { return end - begin; }
  const graph::Event& event(size_t i) const {
    return dataset->events[begin + i];
  }
};

/// \brief Interface every dynamic-graph model implements.
class TemporalModel {
 public:
  virtual ~TemporalModel() = default;

  virtual std::string name() const = 0;
  virtual int64_t embedding_dim() const = 0;

  /// Link-prediction logits for the batch.
  struct LinkScores {
    tensor::Tensor pos_logits;  ///< {batch, 1} for the true (src, dst).
    tensor::Tensor neg_logits;  ///< {batch, 1} for (src, negative).
  };
  /// Requires batch.negatives to be filled.
  virtual LinkScores ScoreLinks(const EventBatch& batch) = 0;

  /// Temporal embeddings of each event's endpoints, {batch, dim} each.
  struct EndpointEmbeddings {
    tensor::Tensor z_src;
    tensor::Tensor z_dst;
  };
  virtual EndpointEmbeddings EmbedEndpoints(const EventBatch& batch) = 0;

  /// Advances streaming state (memory/mailbox/graph) past the batch.
  virtual Status Consume(const EventBatch& batch) = 0;

  /// Clears streaming state (start of an epoch); weights persist.
  virtual void ResetState() = 0;

  /// Trainable parameters for the optimizer.
  virtual std::vector<tensor::Tensor> Parameters() = 0;
  virtual void SetTraining(bool training) = 0;

  /// Synchronous-path graph queries made so far (Figure 6's decomposition:
  /// APAN reports 0; synchronous CTDG models report their inference-time
  /// neighbor lookups).
  virtual int64_t SyncPathGraphQueries() const { return 0; }
};

}  // namespace train
}  // namespace apan

#endif  // APAN_TRAIN_TEMPORAL_MODEL_H_
