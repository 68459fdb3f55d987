// Streaming link-prediction training and evaluation (paper §4.2, Eq. 7).
//
// Protocol (identical for every TemporalModel, matching TGN/TGAT's setup):
//   * chronological batches of `batch_size` events;
//   * per event one negative destination drawn from the pool of nodes
//     already seen in the stream (time-varying negative sampling);
//   * train on the first 70%, early-stop on validation AP, report AP /
//     accuracy / AUC on validation and test with the best weights;
//   * streaming state (memory, mailboxes, graph) is reset each epoch and
//     keeps advancing through validation and test (transductive protocol).

#ifndef APAN_TRAIN_LINK_TRAINER_H_
#define APAN_TRAIN_LINK_TRAINER_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "train/temporal_model.h"
#include "util/status.h"

namespace apan {
namespace train {

struct LinkTrainConfig {
  size_t batch_size = 200;  ///< Paper §4.4.
  int max_epochs = 8;
  int patience = 2;         ///< Early stopping on validation AP.
  float lr = 3e-3f;         ///< See EXPERIMENTS.md on the deviation from
                            ///< the paper's 1e-4 (epoch budget).
  float grad_clip = 5.0f;
  uint64_t negative_seed = 99;
  bool verbose = false;
};

/// Metrics of one split.
struct SplitMetrics {
  double ap = 0.0;
  double accuracy = 0.0;
  double auc = 0.0;
  size_t num_events = 0;
};

/// Everything the Table-2 / Figure-6/7 benches need from one run.
struct LinkReport {
  std::string model_name;
  SplitMetrics validation;
  SplitMetrics test;
  int epochs_run = 0;
  double mean_train_seconds_per_epoch = 0.0;
  /// Mean milliseconds per evaluation batch spent in ScoreLinks — the
  /// synchronous-path inference latency of Figure 6.
  double mean_inference_millis_per_batch = 0.0;
  /// p50 / p99 over the same per-batch ScoreLinks times (what
  /// BENCH_fig6.json tracks across PRs).
  double inference_p50_millis = 0.0;
  double inference_p99_millis = 0.0;
  /// Graph queries issued on the synchronous path during evaluation.
  int64_t sync_graph_queries = 0;
  /// Training-arena counters over the whole run (BENCH_fig7.json tracks
  /// them): heap impls, replayed pool draws, plan misses (0 when every
  /// warm step replayed cleanly), and the sealed plan's slot count.
  int64_t arena_fresh_impls = 0;
  int64_t arena_reused_impls = 0;
  int64_t arena_plan_misses = 0;
  int64_t arena_pool_slots = 0;
};

/// \brief Drives training + evaluation of one model on one dataset.
class LinkTrainer {
 public:
  explicit LinkTrainer(LinkTrainConfig config) : config_(config) {}

  /// Trains `model` and fills a LinkReport. The model is left holding its
  /// best (early-stopped) weights and the streaming state of a full final
  /// pass over the dataset.
  Result<LinkReport> Run(TemporalModel* model, const data::Dataset& dataset);

  /// \brief Evaluation only: resets state, streams the whole dataset with
  /// frozen weights (train range consumed without scoring, then validation
  /// and test scored in sequence with state carried through — the TGN-style
  /// protocol). Negative samples are deterministic given
  /// `config.negative_seed`, so every model is scored against identical
  /// negatives.
  struct EvalResult {
    SplitMetrics validation;
    SplitMetrics test;
    double mean_inference_millis_per_batch = 0.0;
    double inference_p50_millis = 0.0;
    double inference_p99_millis = 0.0;
    int64_t sync_graph_queries = 0;
  };
  Result<EvalResult> Evaluate(TemporalModel* model,
                              const data::Dataset& dataset);

 private:
  LinkTrainConfig config_;
};

}  // namespace train
}  // namespace apan

#endif  // APAN_TRAIN_LINK_TRAINER_H_
