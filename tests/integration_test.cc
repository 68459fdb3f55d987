// End-to-end experiments at miniature scale: the full train → evaluate →
// probe pipeline that the benches run, asserting the qualitative shapes
// hold rather than exact values.

#include <gtest/gtest.h>

#include "baselines/jodie.h"
#include "data/synthetic.h"
#include "serve/sharded_engine.h"
#include "train/apan_adapter.h"
#include "train/link_trainer.h"
#include "train/probe.h"

namespace apan {
namespace {

TEST(IntegrationTest, ApanFullPipelineLearnsAndProbes) {
  auto ds = *data::GenerateSynthetic(
      data::SyntheticConfig::WikipediaLike().Scaled(0.12));
  core::ApanConfig cfg;
  cfg.num_nodes = ds.num_nodes;
  cfg.embedding_dim = ds.feature_dim();
  train::ApanLinkModel model(cfg, &ds.features, 17);

  train::LinkTrainConfig tc;
  tc.max_epochs = 4;
  tc.patience = 4;
  train::LinkTrainer trainer(tc);
  auto report = trainer.Run(&model, ds);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->test.ap, 0.55);
  EXPECT_EQ(report->sync_graph_queries, 0);

  // Node-classification probe on the trained model.
  auto rows = train::CollectTemporalRows(&model, ds, 200);
  ASSERT_TRUE(rows.ok());
  train::ProbeConfig pc;
  pc.epochs = 6;
  auto probe = train::TrainClassificationProbe(*rows, pc);
  ASSERT_TRUE(probe.ok()) << probe.status();
  EXPECT_GT(probe->test_auc, 0.45);  // skewed task: just sanity at this scale
}

TEST(IntegrationTest, TrainedModelServesThroughSingleShardEngine) {
  auto ds = *data::GenerateSynthetic(
      data::SyntheticConfig::WikipediaLike().Scaled(0.08));
  core::ApanConfig cfg;
  cfg.num_nodes = ds.num_nodes;
  cfg.embedding_dim = ds.feature_dim();
  train::ApanLinkModel model(cfg, &ds.features, 18);
  train::LinkTrainConfig tc;
  tc.max_epochs = 2;
  train::LinkTrainer trainer(tc);
  ASSERT_TRUE(trainer.Run(&model, ds).ok());

  // Redeploy the trained weights behind the single-worker serving engine
  // and replay the stream: scores must separate true edges from shuffled
  // ones.
  model.ResetState();
  serve::ShardedEngine::Options options;
  options.num_shards = 1;
  serve::ShardedEngine engine(&model.model(), options);
  std::vector<float> true_scores;
  Rng rng(5);
  for (size_t lo = 0; lo + 100 <= ds.events.size(); lo += 100) {
    std::vector<graph::Event> events(ds.events.begin() + lo,
                                     ds.events.begin() + lo + 100);
    auto result = engine.InferBatch(events);
    ASSERT_TRUE(result.ok());
    if (lo > ds.events.size() / 2) {
      for (float s : result->scores) true_scores.push_back(s);
    }
  }
  engine.Flush();
  double mean_true = 0.0;
  for (float s : true_scores) mean_true += s;
  mean_true /= static_cast<double>(true_scores.size());
  // Trained model assigns clearly-above-chance scores to real events.
  EXPECT_GT(mean_true, 0.55);
  EXPECT_GT(engine.sync_latency().count(), 0u);
}

TEST(IntegrationTest, EdgeClassificationPipelineOnAlipayLike) {
  auto ds = *data::GenerateSynthetic(
      data::SyntheticConfig::AlipayLike().Scaled(0.03));
  core::ApanConfig cfg;
  cfg.num_nodes = ds.num_nodes;
  cfg.embedding_dim = ds.feature_dim();
  train::ApanLinkModel model(cfg, &ds.features, 19);
  train::LinkTrainConfig tc;
  tc.max_epochs = 2;
  train::LinkTrainer trainer(tc);
  ASSERT_TRUE(trainer.Run(&model, ds).ok());
  auto rows = train::CollectTemporalRows(&model, ds, 200);
  ASSERT_TRUE(rows.ok());
  int64_t pos = 0;
  for (const auto& r : *rows) pos += r.label;
  ASSERT_GT(pos, 0) << "fraud labels must exist";
  train::ProbeConfig pc;
  pc.epochs = 8;
  auto probe = train::TrainClassificationProbe(*rows, pc);
  ASSERT_TRUE(probe.ok()) << probe.status();
  // Fraud events carry a feature shift; even a small model must beat 0.5.
  EXPECT_GT(probe->test_auc, 0.6);
}

TEST(IntegrationTest, BatchSizeRobustnessShapeHolds) {
  // Figure 8's mechanism at miniature scale: APAN's score quality should
  // not collapse when the batch size grows 3x. The batch must stay small
  // relative to the training split (the figure's regime), hence the
  // slightly larger dataset here.
  auto ds = *data::GenerateSynthetic(
      data::SyntheticConfig::WikipediaLike().Scaled(0.15));
  core::ApanConfig cfg;
  cfg.num_nodes = ds.num_nodes;
  cfg.embedding_dim = ds.feature_dim();

  // Epochs scale with batch size so both runs take the same number of
  // optimizer steps — the comparison isolates the batching effect itself
  // (larger batches mean staler in-batch information), which is what
  // Figure 8 studies.
  auto run = [&](size_t batch_size, int epochs) {
    train::ApanLinkModel model(cfg, &ds.features, 20);
    train::LinkTrainConfig tc;
    tc.max_epochs = epochs;
    tc.patience = epochs;
    tc.batch_size = batch_size;
    train::LinkTrainer trainer(tc);
    auto report = trainer.Run(&model, ds);
    APAN_CHECK(report.ok());
    return report->test.ap;
  };
  const double small = run(100, 4);
  const double large = run(300, 12);
  EXPECT_GT(large, small - 0.12)
      << "APAN AP should be roughly flat in batch size";
}

}  // namespace
}  // namespace apan
