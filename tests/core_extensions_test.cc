// Tests for the §3.5/§3.6 extension options: time-kernel positional
// encoding and uniform-sampling propagation.

#include <gtest/gtest.h>

#include <cmath>

#include "core/apan_model.h"
#include "data/synthetic.h"
#include "train/apan_adapter.h"
#include "train/link_trainer.h"

namespace apan {
namespace core {
namespace {

constexpr int64_t kDim = 8;

ApanConfig BaseConfig() {
  ApanConfig c;
  c.num_nodes = 12;
  c.embedding_dim = kDim;
  c.num_heads = 2;
  c.mailbox_slots = 4;
  c.sampled_neighbors = 3;
  c.propagation_hops = 1;
  c.mlp_hidden = 16;
  c.dropout = 0.0f;
  return c;
}

TEST(MailboxTimestampsTest, ReadBatchReportsSortedTimestamps) {
  Mailbox box(2, 3, 2);
  box.Deliver(0, std::vector<float>{1.0f, 1.0f}, 5.0);
  box.Deliver(0, std::vector<float>{2.0f, 2.0f}, 2.0);  // out of order
  auto read = box.ReadBatch({0, 1});
  ASSERT_EQ(read.timestamps.size(), 6u);
  EXPECT_EQ(read.timestamps[0], 2.0);
  EXPECT_EQ(read.timestamps[1], 5.0);
  EXPECT_EQ(read.timestamps[2], 0.0);  // padding
  EXPECT_EQ(read.timestamps[3], 0.0);  // empty node
}

TEST(TimeKernelEncoderTest, ProducesFiniteDistinctOutput) {
  Rng rng(1);
  ApanConfig cfg = BaseConfig();
  cfg.positional = PositionalMode::kTimeKernel;
  ApanEncoder enc(cfg, &rng);
  enc.SetTraining(false);
  Mailbox box(12, 4, kDim);
  box.Deliver(0, std::vector<float>(kDim, 0.5f), 1.0);
  box.Deliver(0, std::vector<float>(kDim, 0.5f), 9.0);
  auto out =
      enc.Forward(tensor::Tensor::Zeros({1, kDim}), box.ReadBatch({0}));
  for (int64_t i = 0; i < out.embeddings.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(out.embeddings.item(i)));
  }
  // Mail age matters under the time kernel: compressing the gap changes
  // the encoding even though contents are identical.
  Mailbox tight(12, 4, kDim);
  tight.Deliver(0, std::vector<float>(kDim, 0.5f), 8.9);
  tight.Deliver(0, std::vector<float>(kDim, 0.5f), 9.0);
  auto out2 =
      enc.Forward(tensor::Tensor::Zeros({1, kDim}), tight.ReadBatch({0}));
  float diff = 0.0f;
  for (int64_t i = 0; i < kDim; ++i) {
    diff += std::abs(out.embeddings.item(i) - out2.embeddings.item(i));
  }
  EXPECT_GT(diff, 1e-4f);
}

TEST(TimeKernelEncoderTest, ParameterSetSwapsPositionalTable) {
  Rng rng(2);
  ApanConfig learned = BaseConfig();
  ApanConfig kernel = BaseConfig();
  kernel.positional = PositionalMode::kTimeKernel;
  ApanEncoder a(learned, &rng);
  ApanEncoder b(kernel, &rng);
  // Learned table: slots*dim params; kernel: 2*dim (omega + phase).
  EXPECT_NE(a.ParameterCount(), b.ParameterCount());
}

TEST(UniformPropagationTest, DeliversToHistoricalNeighbors) {
  graph::EdgeFeatureStore features(kDim);
  ApanConfig cfg = BaseConfig();
  cfg.sampling = PropagationSampling::kUniform;
  ApanModel model(cfg, &features, 5);
  // One event per batch; both endpoints read row 0 of an all-ones matrix.
  const std::vector<float> z(kDim, 1.0f);
  const std::vector<int64_t> row = {0};
  auto process = [&](graph::NodeId s, graph::NodeId d, double t) {
    const std::vector<graph::Event> events = {
        {s, d, t, features.Append(std::vector<float>(kDim, 0.0f))}};
    return model.ProcessBatchPostInference(events, z, row, row);
  };
  ASSERT_TRUE(process(0, 1, 1.0).ok());
  ASSERT_TRUE(process(1, 2, 2.0).ok());
  // Node 0 is a historical neighbor of 1 — uniform propagation from the
  // (1,2) event must have reached it.
  EXPECT_GE(model.mailbox().ValidCount(0), 2);
}

TEST(UniformPropagationTest, EndToEndTrainingWorks) {
  auto ds = *data::GenerateSynthetic(
      data::SyntheticConfig::WikipediaLike().Scaled(0.05));
  ApanConfig cfg;
  cfg.num_nodes = ds.num_nodes;
  cfg.embedding_dim = ds.feature_dim();
  cfg.sampling = PropagationSampling::kUniform;
  cfg.positional = PositionalMode::kTimeKernel;
  train::ApanLinkModel model(cfg, &ds.features, 6, "APAN-variant");
  train::LinkTrainConfig tc;
  tc.max_epochs = 2;
  train::LinkTrainer trainer(tc);
  auto report = trainer.Run(&model, ds);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->test.ap, 0.5);
  EXPECT_EQ(report->sync_graph_queries, 0);  // still asynchronous
}

}  // namespace
}  // namespace core
}  // namespace apan
