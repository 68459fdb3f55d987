#include "train/link_trainer.h"

#include <algorithm>
#include <cmath>

#include "data/batching.h"
#include "data/negative_sampler.h"
#include "obs/metrics.h"
#include "tensor/arena.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "train/metrics.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace apan {
namespace train {

namespace {

float StableSigmoid(float x) {
  if (x >= 0.0f) {
    const float z = std::exp(-x);
    return 1.0f / (1.0f + z);
  }
  const float z = std::exp(x);
  return z / (1.0f + z);
}

bool IsBipartite(const data::Dataset& ds) {
  return ds.num_users > 0 && ds.num_users < ds.num_nodes;
}

/// Admits a processed event's endpoints into the negative pool.
void ObserveEvent(const data::Dataset& ds, const graph::Event& e,
                  data::NegativeSampler* sampler) {
  if (IsBipartite(ds)) {
    sampler->Observe(e.dst);  // negatives are items
  } else {
    sampler->Observe(e.src);
    sampler->Observe(e.dst);
  }
}

/// Draws per-event negatives from the already-seen pool. Events whose pool
/// is still empty (the very first batch) fall back to the true destination
/// — their scores contribute a constant and affect all models equally.
std::vector<graph::NodeId> DrawNegatives(const data::Dataset& ds,
                                         const data::Batch& batch,
                                         const data::NegativeSampler& sampler,
                                         Rng* rng) {
  std::vector<graph::NodeId> negs;
  negs.reserve(batch.size());
  for (size_t i = batch.begin; i < batch.end; ++i) {
    const auto& e = ds.events[i];
    graph::NodeId neg = sampler.Sample(rng, e.dst);
    if (neg < 0) neg = e.dst;
    negs.push_back(neg);
  }
  return negs;
}

struct ScoredSplit {
  std::vector<float> scores;
  std::vector<int> labels;
  double total_score_millis = 0.0;
  size_t num_batches = 0;
  /// Per-batch ScoreLinks wall times (for the p50/p99 latency report).
  std::vector<double> batch_millis;
};

/// Snapshot / restore of model parameter values (early stopping).
std::vector<float> SnapshotParams(TemporalModel* model) {
  std::vector<float> snap;
  for (auto& p : model->Parameters()) {
    snap.insert(snap.end(), p.values().begin(), p.values().end());
  }
  return snap;
}

void RestoreParams(TemporalModel* model, const std::vector<float>& snap) {
  size_t offset = 0;
  for (auto& p : model->Parameters()) {
    const size_t n = static_cast<size_t>(p.numel());
    APAN_CHECK(offset + n <= snap.size());
    std::copy_n(snap.begin() + offset, n, p.data());
    offset += n;
  }
  APAN_CHECK(offset == snap.size());
}

}  // namespace

Result<LinkReport> LinkTrainer::Run(TemporalModel* model,
                                    const data::Dataset& dataset) {
  if (model == nullptr) return Status::InvalidArgument("null model");
  APAN_RETURN_NOT_OK(dataset.Validate());
  if (dataset.train_end == 0) {
    return Status::InvalidArgument("dataset has an empty training split");
  }

  tensor::Adam optimizer(model->Parameters(), {.lr = config_.lr});
  LinkReport report;
  report.model_name = model->name();

  double best_val_ap = -1.0;
  std::vector<float> best_params;
  int bad_epochs = 0;
  std::vector<double> epoch_seconds;

  // One training arena for the whole run: the first step plans, every
  // later step (across epochs too — the op sequence doesn't change)
  // replays from the sealed pool.
  tensor::TrainingArena train_arena;

  for (int epoch = 0; epoch < config_.max_epochs; ++epoch) {
    // ---- Train pass -------------------------------------------------------
    model->ResetState();
    model->SetTraining(true);
    data::NegativeSampler sampler(dataset.num_nodes);
    Rng neg_rng(config_.negative_seed);
    Stopwatch epoch_watch;

    data::BatchIterator train_iter(dataset, data::Split::kTrain,
                                   config_.batch_size);
    while (!train_iter.Done()) {
      const data::Batch b = train_iter.Next();
      EventBatch batch{&dataset, b.begin, b.end,
                       DrawNegatives(dataset, b, sampler, &neg_rng)};
      {
        tensor::TrainingStepScope step_scope(&train_arena);
        TemporalModel::LinkScores scores = model->ScoreLinks(batch);
        std::vector<float> pos_targets(batch.size(), 1.0f);
        std::vector<float> neg_targets(batch.size(), 0.0f);
        tensor::Tensor loss = tensor::MulScalar(
            tensor::Add(tensor::BceWithLogits(scores.pos_logits, pos_targets),
                        tensor::BceWithLogits(scores.neg_logits, neg_targets)),
            0.5f);
        optimizer.ZeroGrad();
        APAN_RETURN_NOT_OK(loss.Backward());
      }
      optimizer.ClipGradNorm(config_.grad_clip);
      optimizer.Step();
      APAN_RETURN_NOT_OK(model->Consume(batch));
      for (size_t i = b.begin; i < b.end; ++i) {
        ObserveEvent(dataset, dataset.events[i], &sampler);
      }
    }
    epoch_seconds.push_back(epoch_watch.ElapsedSeconds());
    ++report.epochs_run;

    // ---- Validation pass (state continues from the train stream) ----------
    model->SetTraining(false);
    ScoredSplit val;
    {
      tensor::NoGradGuard no_grad;
      data::BatchIterator val_iter(dataset, data::Split::kValidation,
                                   config_.batch_size);
      while (!val_iter.Done()) {
        const data::Batch b = val_iter.Next();
        EventBatch batch{&dataset, b.begin, b.end,
                         DrawNegatives(dataset, b, sampler, &neg_rng)};
        TemporalModel::LinkScores scores = model->ScoreLinks(batch);
        for (size_t i = 0; i < batch.size(); ++i) {
          val.scores.push_back(
              StableSigmoid(scores.pos_logits.item(static_cast<int64_t>(i))));
          val.labels.push_back(1);
          val.scores.push_back(
              StableSigmoid(scores.neg_logits.item(static_cast<int64_t>(i))));
          val.labels.push_back(0);
        }
        APAN_RETURN_NOT_OK(model->Consume(batch));
        for (size_t i = b.begin; i < b.end; ++i) {
          ObserveEvent(dataset, dataset.events[i], &sampler);
        }
      }
    }
    const double val_ap = AveragePrecision(val.scores, val.labels);
    if (config_.verbose) {
      APAN_LOG(Info) << model->name() << " epoch " << epoch
                     << " val AP=" << val_ap;
    }
    if (val_ap > best_val_ap) {
      best_val_ap = val_ap;
      best_params = SnapshotParams(model);
      bad_epochs = 0;
    } else {
      ++bad_epochs;
      if (bad_epochs > config_.patience) break;
    }
  }

  if (!best_params.empty()) RestoreParams(model, best_params);
  report.mean_train_seconds_per_epoch =
      Summarize(epoch_seconds).mean;
  report.arena_fresh_impls = train_arena.fresh_impls();
  report.arena_reused_impls = train_arena.reused_impls();
  report.arena_plan_misses = train_arena.plan_misses();
  report.arena_pool_slots = static_cast<int64_t>(train_arena.pool_slots());

  // ---- Final full evaluation pass with best weights ------------------------
  APAN_ASSIGN_OR_RETURN(auto eval, Evaluate(model, dataset));
  report.validation = eval.validation;
  report.test = eval.test;
  report.mean_inference_millis_per_batch =
      eval.mean_inference_millis_per_batch;
  report.inference_p50_millis = eval.inference_p50_millis;
  report.inference_p99_millis = eval.inference_p99_millis;
  report.sync_graph_queries = eval.sync_graph_queries;
  return report;
}

Result<LinkTrainer::EvalResult> LinkTrainer::Evaluate(
    TemporalModel* model, const data::Dataset& dataset) {
  if (model == nullptr) return Status::InvalidArgument("null model");
  model->ResetState();
  model->SetTraining(false);
  tensor::NoGradGuard no_grad;

  data::NegativeSampler sampler(dataset.num_nodes);
  Rng neg_rng(config_.negative_seed);
  const int64_t queries_before = model->SyncPathGraphQueries();

  // Phase 1: warm the streaming state over the training range (no scoring).
  data::BatchIterator warm_iter(0, dataset.train_end, config_.batch_size);
  while (!warm_iter.Done()) {
    const data::Batch b = warm_iter.Next();
    EventBatch batch{&dataset, b.begin, b.end, {}};
    APAN_RETURN_NOT_OK(model->Consume(batch));
    for (size_t i = b.begin; i < b.end; ++i) {
      ObserveEvent(dataset, dataset.events[i], &sampler);
    }
  }

  // Phase 2: score validation then test, carrying streaming state through.
  auto score_range = [&](size_t lo, size_t hi,
                         ScoredSplit* scored) -> Status {
    data::BatchIterator iter(lo, hi, config_.batch_size);
    while (!iter.Done()) {
      const data::Batch b = iter.Next();
      EventBatch batch{&dataset, b.begin, b.end,
                       DrawNegatives(dataset, b, sampler, &neg_rng)};
      Stopwatch watch;
      TemporalModel::LinkScores scores = model->ScoreLinks(batch);
      const double millis = watch.ElapsedMillis();
      scored->total_score_millis += millis;
      scored->batch_millis.push_back(millis);
      ++scored->num_batches;
      for (size_t i = 0; i < batch.size(); ++i) {
        scored->scores.push_back(
            StableSigmoid(scores.pos_logits.item(static_cast<int64_t>(i))));
        scored->labels.push_back(1);
        scored->scores.push_back(
            StableSigmoid(scores.neg_logits.item(static_cast<int64_t>(i))));
        scored->labels.push_back(0);
      }
      APAN_RETURN_NOT_OK(model->Consume(batch));
      for (size_t i = b.begin; i < b.end; ++i) {
        ObserveEvent(dataset, dataset.events[i], &sampler);
      }
    }
    return Status::OK();
  };

  ScoredSplit val_scored, test_scored;
  APAN_RETURN_NOT_OK(
      score_range(dataset.train_end, dataset.val_end, &val_scored));
  APAN_RETURN_NOT_OK(
      score_range(dataset.val_end, dataset.events.size(), &test_scored));

  auto to_metrics = [](const ScoredSplit& s) {
    SplitMetrics m;
    m.ap = AveragePrecision(s.scores, s.labels);
    m.accuracy = AccuracyAtThreshold(s.scores, s.labels);
    m.auc = RocAuc(s.scores, s.labels);
    m.num_events = s.scores.size() / 2;
    return m;
  };

  EvalResult out;
  out.validation = to_metrics(val_scored);
  out.test = to_metrics(test_scored);
  const double total_millis =
      val_scored.total_score_millis + test_scored.total_score_millis;
  const size_t total_batches = val_scored.num_batches + test_scored.num_batches;
  out.mean_inference_millis_per_batch =
      total_batches > 0 ? total_millis / static_cast<double>(total_batches)
                        : 0.0;
  {
    obs::Histogram latency(1);
    for (double ms : val_scored.batch_millis) latency.Record(ms);
    for (double ms : test_scored.batch_millis) latency.Record(ms);
    out.inference_p50_millis = latency.P50();
    out.inference_p99_millis = latency.P99();
  }
  out.sync_graph_queries = model->SyncPathGraphQueries() - queries_before;
  return out;
}

}  // namespace train
}  // namespace apan
