// NodeStateStore — the shard-local node-state plane: a Mailbox slice plus
// z(t−) rows for an arbitrary node subset with dense local indexing.
// Covers: subset-vs-monolithic behavioral equivalence, global-id
// translation, memory accounting (disjoint stores sum to ~1x), lifecycle
// reset, and the bounds-check regression for SetLastEmbedding /
// LastEmbedding on both the store and ApanModel (a bad node id or a
// wrong-dimension embedding must abort, never silently index out of
// range).

#include "core/node_state_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/apan_model.h"
#include "data/synthetic.h"

namespace apan {
namespace core {
namespace {

TEST(NodeStateStoreTest, AllNodesStoreIsIdentityMapped) {
  NodeStateStore store(/*num_nodes=*/6, /*slots=*/2, /*dim=*/3);
  EXPECT_EQ(store.num_nodes(), 6);
  EXPECT_EQ(store.owned_count(), 6);
  for (graph::NodeId v = 0; v < 6; ++v) EXPECT_TRUE(store.Owns(v));
  EXPECT_FALSE(store.Owns(-1));
  EXPECT_FALSE(store.Owns(6));

  store.Deliver(4, std::vector<float>{1.f, 2.f, 3.f}, 5.0);
  EXPECT_EQ(store.ValidCount(4), 1);
  EXPECT_EQ(store.ValidCount(0), 0);
  // Identity mapping: the raw local-row mailbox sees the same node id.
  EXPECT_EQ(store.mailbox().ValidCount(4), 1);
  EXPECT_FLOAT_EQ(store.RawSlot(4, 0)[1], 2.f);
  EXPECT_EQ(store.NewestTimestamp(4), 5.0);
}

/// Partition with `owned` on shard 0 and every other node on shard 1 —
/// how an arbitrary subset store is expressed.
std::shared_ptr<const graph::NodePartition> SubsetPartition(
    int64_t num_nodes, std::vector<graph::NodeId> owned) {
  return graph::NodePartition::Build(
      num_nodes, 2, [owned = std::move(owned)](graph::NodeId v) {
        return std::find(owned.begin(), owned.end(), v) != owned.end() ? 0
                                                                       : 1;
      });
}

TEST(NodeStateStoreTest, SubsetStoreTranslatesGlobalIds) {
  NodeStateStore store(SubsetPartition(10, {7, 2, 9}), /*shard=*/0,
                       /*slots=*/2, /*dim=*/2);
  EXPECT_EQ(store.owned_count(), 3);
  EXPECT_TRUE(store.Owns(7));
  EXPECT_TRUE(store.Owns(2));
  EXPECT_TRUE(store.Owns(9));
  EXPECT_FALSE(store.Owns(0));
  EXPECT_FALSE(store.Owns(8));

  store.SetLastEmbedding(9, std::vector<float>{4.f, 5.f});
  EXPECT_FLOAT_EQ(store.LastEmbedding(9)[0], 4.f);
  EXPECT_FLOAT_EQ(store.LastEmbedding(7)[0], 0.f);  // untouched row

  store.Deliver(2, std::vector<float>{1.f, 1.f}, 1.0);
  store.Deliver(9, std::vector<float>{2.f, 2.f}, 2.0);
  store.Deliver(2, std::vector<float>{3.f, 3.f}, 3.0);
  EXPECT_EQ(store.ValidCount(2), 2);
  EXPECT_EQ(store.ValidCount(9), 1);
  EXPECT_EQ(store.ValidCount(7), 0);
  EXPECT_EQ(store.NewestTimestamp(2), 3.0);
  const auto read = store.ReadBatch({2, 9});
  EXPECT_EQ(read.counts[0], 2);
  EXPECT_EQ(read.counts[1], 1);
  EXPECT_EQ(read.timestamps[0], 1.0);
  EXPECT_EQ(read.timestamps[1], 3.0);

  // GatherLastEmbeddings round-trips through the dense rows.
  tensor::Tensor z = store.GatherLastEmbeddings({9, 2});
  EXPECT_FLOAT_EQ(z.data()[0], 4.f);
  EXPECT_FLOAT_EQ(z.data()[2], 0.f);
}

TEST(NodeStateStoreTest, SubsetStoreMatchesMonolithicPerNode) {
  // A partition of stores fed each node's deliveries must hold exactly
  // the per-node state the monolithic store holds — ring eviction
  // included.
  const int64_t nodes = 12, slots = 3, dim = 2;
  NodeStateStore mono(nodes, slots, dim);
  const auto partition = graph::NodePartition::Build(
      nodes, 2, [](graph::NodeId v) { return static_cast<int>(v % 2); });
  NodeStateStore even(partition, 0, slots, dim);
  NodeStateStore odd(partition, 1, slots, dim);

  for (int i = 0; i < 40; ++i) {
    const graph::NodeId to = (i * 7) % nodes;
    const std::vector<float> mail = {static_cast<float>(i),
                                     static_cast<float>(-i)};
    mono.Deliver(to, mail, static_cast<double>(i));
    (to % 2 == 0 ? even : odd).Deliver(to, mail, static_cast<double>(i));
  }

  for (graph::NodeId v = 0; v < nodes; ++v) {
    const NodeStateStore& shard = (v % 2 == 0) ? even : odd;
    ASSERT_EQ(shard.ValidCount(v), mono.ValidCount(v)) << "node " << v;
    for (int64_t s = 0; s < shard.ValidCount(v); ++s) {
      const auto a = mono.RawSlot(v, s);
      const auto b = shard.RawSlot(v, s);
      for (size_t k = 0; k < a.size(); ++k) {
        ASSERT_EQ(a[k], b[k]) << "node " << v << " slot " << s;
      }
    }
  }
}

TEST(NodeStateStoreTest, DisjointStoresSumToMonolithicMemory) {
  // 32 and 64 shards are the regression teeth: a per-store O(num_nodes)
  // index would make the sum scale with the shard count; the shared
  // partition index is charged exactly once across all stores.
  const int64_t nodes = 1024, slots = 4, dim = 16;
  NodeStateStore mono(nodes, slots, dim);
  for (const int shards : {1, 2, 4, 8, 32, 64}) {
    const auto partition = graph::NodePartition::Build(
        nodes, shards,
        [shards](graph::NodeId v) { return graph::NodeShardOf(v, shards); });
    int64_t sum = 0;
    for (int s = 0; s < shards; ++s) {
      NodeStateStore store(partition, s, slots, dim);
      sum += store.MemoryBytes();
    }
    const double ratio = static_cast<double>(sum) /
                         static_cast<double>(mono.MemoryBytes());
    // Each node's rows live in exactly one store; the only overhead is
    // the partition index, counted once total.
    EXPECT_GE(ratio, 1.0) << shards << " shards";
    EXPECT_LE(ratio, 1.2) << shards << " shards";
  }
}

TEST(NodeStateStoreTest, EmptyStoreIsWellFormed) {
  // A shard that owns no nodes still needs a well-formed store.
  NodeStateStore store(SubsetPartition(5, {}), /*shard=*/0, /*slots=*/2,
                       /*dim=*/2);
  EXPECT_EQ(store.owned_count(), 0);
  EXPECT_FALSE(store.Owns(0));
  EXPECT_GE(store.MemoryBytes(), 0);
  store.Reset();  // no-op, must not crash
}

TEST(NodeStateStoreTest, ResetZeroesStateAndDropsMail) {
  NodeStateStore store(4, 2, 2);
  store.SetLastEmbedding(1, std::vector<float>{1.f, 2.f});
  store.Deliver(1, std::vector<float>{3.f, 4.f}, 1.0);
  store.Reset();
  EXPECT_FLOAT_EQ(store.LastEmbedding(1)[0], 0.f);
  EXPECT_EQ(store.ValidCount(1), 0);
}

// ---- Bounds-check regression (satellite) -----------------------------------
// Out-of-range nodes and wrong-dimension embeddings must abort loudly on
// both the store and the model, never write out of range.

TEST(NodeStateStoreDeathTest, SetLastEmbeddingRejectsBadInputs) {
  NodeStateStore store(4, 2, 2);
  const std::vector<float> ok = {1.f, 2.f};
  const std::vector<float> wrong_dim = {1.f, 2.f, 3.f};
  EXPECT_DEATH(store.SetLastEmbedding(-1, ok), "out of range");
  EXPECT_DEATH(store.SetLastEmbedding(4, ok), "out of range");
  EXPECT_DEATH(store.SetLastEmbedding(0, wrong_dim), "dimension mismatch");
}

TEST(NodeStateStoreDeathTest, SubsetStoreRejectsUnownedNodes) {
  NodeStateStore store(SubsetPartition(5, {1, 3}), /*shard=*/0, 2, 2);
  const std::vector<float> z = {1.f, 2.f};
  EXPECT_DEATH(store.SetLastEmbedding(2, z), "not owned");
  EXPECT_DEATH(store.LastEmbedding(0), "not owned");
  EXPECT_DEATH(store.ValidCount(4), "not owned");
}

TEST(NodeStateStoreDeathTest, ModelBoundsChecksMirrorTheStore) {
  data::Dataset dataset = *data::GenerateSynthetic(
      data::SyntheticConfig::WikipediaLike().Scaled(0.02));
  ApanConfig config;
  config.num_nodes = dataset.num_nodes;
  config.embedding_dim = dataset.feature_dim();
  ApanModel model(config, &dataset.features, 1);
  const std::vector<float> ok(static_cast<size_t>(config.embedding_dim), 0.f);
  const std::vector<float> wrong_dim(
      static_cast<size_t>(config.embedding_dim + 1), 0.f);
  EXPECT_DEATH(model.SetLastEmbedding(-1, ok), "out of range");
  EXPECT_DEATH(model.SetLastEmbedding(config.num_nodes, ok), "out of range");
  EXPECT_DEATH(model.SetLastEmbedding(0, wrong_dim), "dimension mismatch");
  EXPECT_DEATH(model.LastEmbedding(config.num_nodes), "out of range");
}

}  // namespace
}  // namespace core
}  // namespace apan
