// Training fast path: graph-planned TrainingArena replay and same-ISA
// bitwise determinism of the kernel-substrate backward pass (see
// docs/performance.md, "Training fast path").

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/config.h"
#include "data/synthetic.h"
#include "tensor/arena.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "train/apan_adapter.h"
#include "train/link_trainer.h"

namespace apan {
namespace train {
namespace {

using tensor::Tensor;

data::Dataset TinyDataset() {
  auto cfg = data::SyntheticConfig::WikipediaLike().Scaled(0.08);
  return *data::GenerateSynthetic(cfg);
}

core::ApanConfig ApanFor(const data::Dataset& ds) {
  core::ApanConfig c;
  c.num_nodes = ds.num_nodes;
  c.embedding_dim = ds.feature_dim();
  c.dropout = 0.1f;
  return c;
}

std::vector<float> FlatParams(TemporalModel* model) {
  std::vector<float> flat;
  for (auto& p : model->Parameters()) {
    flat.insert(flat.end(), p.values().begin(), p.values().end());
  }
  return flat;
}

// ---- TrainingArena in isolation ---------------------------------------------

TEST(TrainingArenaTest, WarmReplayAllocatesNothingAndPreservesNumerics) {
  Rng rng(311);
  Tensor w = Tensor::Randn({6, 6}, &rng);
  w.set_requires_grad(true);
  Tensor bias = Tensor::Randn({6}, &rng);
  bias.set_requires_grad(true);
  Tensor x = Tensor::Randn({4, 6}, &rng);

  tensor::TrainingArena arena;
  int64_t warm_fresh = 0;
  float loss0 = 0.0f;
  std::vector<float> grad0;
  for (int step = 0; step < 5; ++step) {
    float loss_val = 0.0f;
    {
      tensor::TrainingStepScope scope(&arena);
      Tensor y = tensor::AddBiasRelu(tensor::MatMul(x, w), bias);
      Tensor loss = tensor::SumAll(tensor::SoftmaxLastDim(y));
      w.ZeroGrad();
      bias.ZeroGrad();
      ASSERT_TRUE(loss.Backward().ok());
      loss_val = loss.item();
    }
    if (step == 0) {
      EXPECT_TRUE(arena.planned());
      EXPECT_GT(arena.pool_slots(), 0u);
      EXPECT_GT(arena.fresh_impls(), 0);
      warm_fresh = arena.fresh_impls();
      loss0 = loss_val;
      grad0 = w.GradToVector();
      ASSERT_FALSE(grad0.empty());
    } else {
      // Replay: zero heap impls, every draw from the sealed pool.
      EXPECT_EQ(arena.fresh_impls(), warm_fresh) << "step " << step;
      EXPECT_EQ(arena.plan_misses(), 0) << "step " << step;
      EXPECT_GT(arena.reused_impls(), 0);
      // Same inputs through pooled buffers: bitwise-identical step.
      EXPECT_EQ(loss_val, loss0) << "step " << step;
      const auto grad = w.GradToVector();
      ASSERT_EQ(grad.size(), grad0.size());
      for (size_t i = 0; i < grad.size(); ++i) {
        EXPECT_EQ(grad[i], grad0[i]) << "step " << step << " coord " << i;
      }
    }
  }
}

TEST(TrainingArenaTest, TensorHeldAcrossStepsFallsBackWithoutCorruption) {
  Rng rng(312);
  Tensor x = Tensor::Randn({3, 5}, &rng);
  x.set_requires_grad(true);

  tensor::TrainingArena arena;
  Tensor held;
  {
    tensor::TrainingStepScope scope(&arena);
    held = tensor::Sigmoid(x);  // escapes the step
  }
  const std::vector<float> held_values = held.values();
  {
    tensor::TrainingStepScope scope(&arena);
    Tensor fresh = tensor::Sigmoid(x);
    // The held tensor pins its planned slot; the replay must not alias it.
    EXPECT_NE(fresh.impl().get(), held.impl().get());
  }
  EXPECT_GE(arena.plan_misses(), 1);
  for (size_t i = 0; i < held_values.size(); ++i) {
    EXPECT_EQ(held.values()[i], held_values[i]) << "coord " << i;
  }
}

// ---- Trainer-level: zero allocs, determinism, shard equivalence -------------

TEST(TrainFastpathTest, TrainerArenaPlanReplaysWithoutMisses) {
  data::Dataset ds = TinyDataset();
  ApanLinkModel model(ApanFor(ds), &ds.features, 42);
  LinkTrainConfig cfg;
  cfg.max_epochs = 2;
  cfg.patience = 3;
  LinkTrainer trainer(cfg);
  auto report = trainer.Run(&model, ds);
  ASSERT_TRUE(report.ok()) << report.status();
  // APAN's training step is structurally constant, so after the first
  // (planning) batch every step of both epochs replays from the pool:
  // the zero-heap-allocation steady state.
  EXPECT_EQ(report->arena_plan_misses, 0);
  EXPECT_GT(report->arena_pool_slots, 0);
  EXPECT_GT(report->arena_fresh_impls, 0);
  EXPECT_GT(report->arena_reused_impls, report->arena_fresh_impls);
}

TEST(TrainFastpathTest, TrainingIsBitwiseDeterministicOnOneHost) {
  data::Dataset ds = TinyDataset();
  LinkTrainConfig cfg;
  cfg.max_epochs = 2;
  cfg.patience = 3;

  ApanLinkModel m1(ApanFor(ds), &ds.features, 42);
  ApanLinkModel m2(ApanFor(ds), &ds.features, 42);
  LinkTrainer trainer(cfg);
  auto r1 = trainer.Run(&m1, ds);
  auto r2 = trainer.Run(&m2, ds);
  ASSERT_TRUE(r1.ok() && r2.ok());

  // Per-ISA contract (kernels.h): one host, one tier, identical seeds →
  // the whole training trajectory is bitwise reproducible.
  const auto p1 = FlatParams(&m1);
  const auto p2 = FlatParams(&m2);
  ASSERT_EQ(p1.size(), p2.size());
  for (size_t i = 0; i < p1.size(); ++i) {
    ASSERT_EQ(p1[i], p2[i]) << "param coord " << i;
  }
  EXPECT_DOUBLE_EQ(r1->test.ap, r2->test.ap);
  EXPECT_DOUBLE_EQ(r1->validation.ap, r2->validation.ap);
}

}  // namespace
}  // namespace train
}  // namespace apan
