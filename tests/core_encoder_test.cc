#include "core/encoder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "core/node_state_store.h"
#include "tensor/arena.h"
#include "tensor/ops.h"

namespace apan {
namespace core {
namespace {

using tensor::Shape;
using tensor::Tensor;

ApanConfig SmallConfig() {
  ApanConfig c;
  c.num_nodes = 10;
  c.embedding_dim = 8;
  c.num_heads = 2;
  c.mailbox_slots = 4;
  c.mlp_hidden = 16;
  c.dropout = 0.0f;
  return c;
}

TEST(ApanEncoderTest, OutputShapes) {
  Rng rng(1);
  ApanEncoder enc(SmallConfig(), &rng);
  Mailbox box(10, 4, 8);
  box.Deliver(3, std::vector<float>(8, 1.0f), 1.0);
  auto read = box.ReadBatch({3, 5});
  Tensor last = Tensor::Randn({2, 8}, &rng);
  auto out = enc.Forward(last, read);
  EXPECT_EQ(out.embeddings.shape(), (Shape{2, 8}));
  EXPECT_EQ(out.attention.shape(), (Shape{2, 2, 4}));
}

TEST(ApanEncoderTest, DeterministicInEvalMode) {
  Rng rng(2);
  ApanEncoder enc(SmallConfig(), &rng);
  enc.SetTraining(false);
  Mailbox box(10, 4, 8);
  box.Deliver(0, std::vector<float>(8, 0.5f), 1.0);
  auto read = box.ReadBatch({0});
  Tensor last = Tensor::Randn({1, 8}, &rng);
  auto a = enc.Forward(last, read);
  auto b = enc.Forward(last, read);
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_FLOAT_EQ(a.embeddings.item(i), b.embeddings.item(i));
  }
}

TEST(ApanEncoderTest, ColdStartEmptyMailboxIsFinite) {
  Rng rng(3);
  ApanEncoder enc(SmallConfig(), &rng);
  Mailbox box(10, 4, 8);
  auto read = box.ReadBatch({7});
  auto out = enc.Forward(Tensor::Zeros({1, 8}), read);
  for (int64_t i = 0; i < out.embeddings.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(out.embeddings.item(i)));
  }
  // Uniform attention over the empty slots.
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(out.attention.item(i), 0.25f, 1e-4f);
  }
}

TEST(ApanEncoderTest, InvariantToDeliveryOrderAfterSort) {
  // Two mailboxes holding the same mails delivered in different orders
  // must encode identically — the property that makes APAN robust to
  // out-of-order streams.
  Rng rng(4);
  ApanEncoder enc(SmallConfig(), &rng);
  enc.SetTraining(false);
  Mailbox a(10, 4, 8), b(10, 4, 8);
  std::vector<std::pair<double, float>> mails = {
      {1.0, 0.1f}, {2.0, 0.2f}, {3.0, 0.3f}};
  for (const auto& [t, v] : mails) {
    a.Deliver(0, std::vector<float>(8, v), t);
  }
  for (auto it = mails.rbegin(); it != mails.rend(); ++it) {
    b.Deliver(0, std::vector<float>(8, it->second), it->first);
  }
  Tensor last = Tensor::Randn({1, 8}, &rng);
  auto oa = enc.Forward(last, a.ReadBatch({0}));
  auto ob = enc.Forward(last, b.ReadBatch({0}));
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_FLOAT_EQ(oa.embeddings.item(i), ob.embeddings.item(i));
  }
}

TEST(ApanEncoderDeathTest, MalformedReadResultAborts) {
  // Forward is the public entry point: a read whose counts or mask do not
  // match the batch must abort, not index past the buffers.
  for (const PositionalMode mode :
       {PositionalMode::kLearnedPosition, PositionalMode::kTimeKernel}) {
    ApanConfig cfg = SmallConfig();
    cfg.positional = mode;
    Rng rng(9);
    ApanEncoder enc(cfg, &rng);
    enc.SetTraining(false);
    Mailbox box(10, 4, 8);
    box.Deliver(3, std::vector<float>(8, 1.0f), 1.0);
    box.Deliver(3, std::vector<float>(8, 2.0f), 2.0);
    const Mailbox::ReadResult good = box.ReadBatch({3, 5});
    const Tensor last = Tensor::Randn({2, 8}, &rng);

    Mailbox::ReadResult short_counts = good;
    short_counts.counts.pop_back();
    EXPECT_DEATH(static_cast<void>(enc.Forward(last, short_counts)),
                 "counts must have one entry per row");
    Mailbox::ReadResult over = good;
    over.counts[0] = cfg.mailbox_slots + 1;
    EXPECT_DEATH(static_cast<void>(enc.Forward(last, over)),
                 "count outside");
    Mailbox::ReadResult negative = good;
    negative.counts[1] = -1;
    EXPECT_DEATH(static_cast<void>(enc.Forward(last, negative)),
                 "count outside");
    Mailbox::ReadResult short_mask = good;
    short_mask.mask.pop_back();
    EXPECT_DEATH(static_cast<void>(enc.Forward(last, short_mask)),
                 "mask must have batch\\*slots entries");
  }
}

TEST(ApanEncoderTest, MailContentChangesOutput) {
  Rng rng(5);
  ApanEncoder enc(SmallConfig(), &rng);
  enc.SetTraining(false);
  Mailbox a(10, 4, 8), b(10, 4, 8);
  a.Deliver(0, std::vector<float>(8, 1.0f), 1.0);
  b.Deliver(0, std::vector<float>(8, -1.0f), 1.0);
  Tensor last = Tensor::Zeros({1, 8});
  auto oa = enc.Forward(last, a.ReadBatch({0}));
  auto ob = enc.Forward(last, b.ReadBatch({0}));
  float diff = 0.0f;
  for (int64_t i = 0; i < 8; ++i) {
    diff += std::abs(oa.embeddings.item(i) - ob.embeddings.item(i));
  }
  EXPECT_GT(diff, 1e-3f);
}

TEST(ApanEncoderTest, GradientsFlowToAllSubmodules) {
  Rng rng(6);
  ApanConfig cfg = SmallConfig();
  ApanEncoder enc(cfg, &rng);
  Mailbox box(10, 4, 8);
  box.Deliver(0, std::vector<float>(8, 0.3f), 1.0);
  box.Deliver(0, std::vector<float>(8, -0.2f), 2.0);
  auto out = enc.Forward(Tensor::Randn({1, 8}, &rng), box.ReadBatch({0}));
  ASSERT_TRUE(tensor::SumAll(out.embeddings).Backward().ok());
  int with_grad = 0;
  for (auto& p : enc.Parameters()) {
    double norm = 0.0;
    for (float g : p.GradToVector()) norm += std::abs(g);
    if (norm > 0.0) ++with_grad;
  }
  // Positional table, attention (4), layer norm (2), MLP (4) all live.
  EXPECT_GE(with_grad, 10);
}

// ---- Batch invariance ------------------------------------------------------
// The serving path encodes a node inside whatever batch its events arrive
// in, so the inference forward must give every row the same bits whatever
// else shares its batch and wherever it sits. The engine relies on this to
// move encode work (between shards, into another batch) and still match
// the serial path bitwise.

/// Inference-mode encode of `nodes` (the serving path: no grad, one arena
/// scope per call, as each engine encode task opens), rows copied out
/// before the arena rewinds.
std::vector<float> EncodeRows(const ApanEncoder& enc,
                              const NodeStateStore& store,
                              const std::vector<graph::NodeId>& nodes) {
  tensor::NoGradGuard no_grad;
  tensor::ArenaScope arena;
  const Tensor z =
      enc.Forward(store.GatherLastEmbeddings(nodes), store.ReadBatch(nodes))
          .embeddings;
  return std::vector<float>(z.data(), z.data() + z.numel());
}

/// Encodes `order` in consecutive batches of `batch_size` (the last one
/// shorter) and counts the rows whose bits differ from `reference`
/// (indexed by node id).
int64_t MismatchedRows(const ApanEncoder& enc, const NodeStateStore& store,
                       const std::vector<graph::NodeId>& order,
                       size_t batch_size,
                       const std::vector<float>& reference) {
  const auto d = static_cast<size_t>(enc.dim());
  int64_t mismatched = 0;
  for (size_t lo = 0; lo < order.size(); lo += batch_size) {
    const std::vector<graph::NodeId> batch(
        order.begin() + static_cast<std::ptrdiff_t>(lo),
        order.begin() + static_cast<std::ptrdiff_t>(
                            std::min(order.size(), lo + batch_size)));
    const std::vector<float> rows = EncodeRows(enc, store, batch);
    for (size_t r = 0; r < batch.size(); ++r) {
      const float* want =
          reference.data() + static_cast<size_t>(batch[r]) * d;
      if (std::memcmp(rows.data() + r * d, want, d * sizeof(float)) != 0) {
        ++mismatched;
      }
    }
  }
  return mismatched;
}

TEST(ApanEncoderProperty, RowsAreBatchInvariant) {
  constexpr int64_t kNodes = 300;
  for (const PositionalMode mode :
       {PositionalMode::kLearnedPosition, PositionalMode::kTimeKernel}) {
    for (const int64_t d : {8, 32, 100, 172}) {
      SCOPED_TRACE(::testing::Message()
                   << "positional mode "
                   << (mode == PositionalMode::kTimeKernel ? "time-kernel"
                                                           : "learned")
                   << ", d = " << d);
      ApanConfig cfg;
      cfg.num_nodes = kNodes;
      cfg.embedding_dim = d;
      cfg.positional = mode;
      cfg.dropout = 0.0f;
      Rng rng(static_cast<uint64_t>(d) * 2 +
              (mode == PositionalMode::kTimeKernel ? 1 : 0));
      ApanEncoder enc(cfg, &rng);
      enc.SetTraining(false);

      // Every node gets a random z(t−) and 0 .. slots+2 mails at random
      // times: empty mailboxes, partly filled ones and evicting rings.
      NodeStateStore store(kNodes, cfg.mailbox_slots, d);
      std::vector<float> row(static_cast<size_t>(d));
      for (graph::NodeId v = 0; v < kNodes; ++v) {
        for (float& x : row) x = static_cast<float>(rng.Normal());
        store.SetLastEmbedding(v, row);
        const int64_t mails =
            rng.UniformInt(int64_t{0}, cfg.mailbox_slots + 2);
        for (int64_t m = 0; m < mails; ++m) {
          for (float& x : row) x = static_cast<float>(rng.Normal());
          store.Deliver(v, row, rng.Uniform(0.0, 100.0));
        }
      }

      // Reference: all 300 nodes in one batch, in id order.
      std::vector<graph::NodeId> ids(static_cast<size_t>(kNodes));
      std::iota(ids.begin(), ids.end(), graph::NodeId{0});
      const std::vector<float> reference = EncodeRows(enc, store, ids);

      // The same rows alone, in batches of 3 and 17 drawn from a shuffled
      // order, and inside the full batch reversed and shuffled: every row
      // sits at many positions among many different neighbours.
      std::vector<graph::NodeId> shuffled = ids;
      std::shuffle(shuffled.begin(), shuffled.end(), rng);
      const std::vector<graph::NodeId> reversed(ids.rbegin(), ids.rend());
      EXPECT_EQ(MismatchedRows(enc, store, ids, 1, reference), 0) << "alone";
      EXPECT_EQ(MismatchedRows(enc, store, shuffled, 3, reference), 0)
          << "batches of 3";
      EXPECT_EQ(MismatchedRows(enc, store, shuffled, 17, reference), 0)
          << "batches of 17";
      EXPECT_EQ(MismatchedRows(enc, store, reversed, 300, reference), 0)
          << "300-node batch, reversed";
      EXPECT_EQ(MismatchedRows(enc, store, shuffled, 300, reference), 0)
          << "300-node batch, shuffled";
    }
  }
}

TEST(ApanConfigTest, ValidationCatchesEachField) {
  ApanConfig c = SmallConfig();
  EXPECT_TRUE(c.Validate().ok());
  c.num_heads = 3;  // does not divide 8
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
  c = SmallConfig();
  c.embedding_dim = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = SmallConfig();
  c.mailbox_slots = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = SmallConfig();
  c.dropout = 1.0f;
  EXPECT_FALSE(c.Validate().ok());
  c = SmallConfig();
  c.propagation_hops = -1;
  EXPECT_FALSE(c.Validate().ok());
}

}  // namespace
}  // namespace core
}  // namespace apan
