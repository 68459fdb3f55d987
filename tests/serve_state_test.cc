// The sharded state plane end-to-end: per-shard NodeStateStore memory
// accounting against the monolithic store, ShardedEngine::ResetState
// reuse between epochs (a reset engine must reproduce a fresh engine
// bitwise), and the model-untouched invariant (weights replicated, state
// partitioned — the engine never writes ApanModel's mutable state).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "serve/async_pipeline.h"
#include "serve/sharded_engine.h"
#include "serve/transport.h"
#include "serve_state_util.h"

namespace apan {
namespace serve {
namespace {

using testutil::ExpectModelStateUntouched;
using testutil::ExpectStitchedMailboxEqual;

struct Fixture {
  Fixture()
      : dataset(*data::GenerateSynthetic(
            data::SyntheticConfig::WikipediaLike().Scaled(0.05))) {
    config.num_nodes = dataset.num_nodes;
    config.embedding_dim = dataset.feature_dim();
    config.mailbox_slots = 5;
    config.sampled_neighbors = 5;
    config.propagation_hops = 1;
    config.dropout = 0.0f;
  }

  std::vector<graph::Event> BatchEvents(size_t lo, size_t hi) const {
    return std::vector<graph::Event>(dataset.events.begin() + lo,
                                     dataset.events.begin() + hi);
  }

  data::Dataset dataset;
  core::ApanConfig config;
};

// ---- State memory accounting (satellite) -----------------------------------

TEST(ShardedStateTest, PerShardStoreMemorySumsToMonolithic) {
  // Disjoint per-shard stores must store the node-state plane ~once, not
  // once per shard: summed NodeStateStore::MemoryBytes stays within 1.2x
  // of the monolithic store at every shard count (the per-store local
  // index is the only overhead).
  Fixture f;
  core::ApanModel model(f.config, &f.dataset.features, 3);
  const int64_t mono_bytes = model.state_store().MemoryBytes();
  ASSERT_GT(mono_bytes, 0);
  for (const int shards : {1, 2, 4, 8}) {
    ShardedEngine::Options options;
    options.num_shards = shards;
    ShardedEngine engine(&model, options);
    int64_t owned = 0;
    int64_t sum = 0;
    for (int s = 0; s < shards; ++s) {
      owned += engine.state_store(s).owned_count();
      sum += engine.state_store(s).MemoryBytes();
    }
    EXPECT_EQ(owned, f.config.num_nodes) << shards << " shards";
    const double ratio =
        static_cast<double>(sum) / static_cast<double>(mono_bytes);
    EXPECT_GE(ratio, 1.0) << shards << " shards";
    EXPECT_LE(ratio, 1.2) << shards << " shards";
  }
}

// ---- ResetState between epochs (satellite) ---------------------------------

void RunStream(ShardedEngine& engine, const Fixture& f, size_t n,
               size_t batch) {
  for (size_t lo = 0; lo + batch <= n; lo += batch) {
    ASSERT_TRUE(engine.InferBatch(f.BatchEvents(lo, lo + batch)).ok());
  }
  engine.Flush();
}

void ResetReproducesFreshEngine(TransportKind kind) {
  Fixture f;
  const size_t events = 200, batch = 50;

  // Reference: the single-worker pipeline over the stream, once.
  core::ApanModel piped(f.config, &f.dataset.features, 7);
  {
    AsyncPipeline pipeline(&piped, {});
    for (size_t lo = 0; lo + batch <= events; lo += batch) {
      ASSERT_TRUE(pipeline.InferBatch(f.BatchEvents(lo, lo + batch)).ok());
    }
    pipeline.Flush();
  }

  // Epoch 1 + ResetState + epoch 2 on one engine.
  core::ApanModel reused(f.config, &f.dataset.features, 7);
  ShardedEngine::Options options;
  options.num_shards = 4;
  options.transport = MakeTransportFactory(kind);
  ShardedEngine engine(&reused, options);
  RunStream(engine, f, events, batch);
  engine.ResetState();

  // After reset every replica and store is empty and batch numbering has
  // rewound — exactly a fresh engine.
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(engine.replica(s).num_events(), 0) << "shard " << s;
    EXPECT_EQ(engine.replica(s).MemoryBytes(), 0) << "shard " << s;
  }
  for (graph::NodeId v = 0; v < f.config.num_nodes; ++v) {
    const core::NodeStateStore& store =
        engine.state_store(engine.router().ShardOf(v));
    ASSERT_EQ(store.ValidCount(v), 0) << "node " << v;
    for (const float x : store.LastEmbedding(v)) {
      ASSERT_EQ(x, 0.0f) << "node " << v;
    }
  }

  RunStream(engine, f, events, batch);

  // Epoch 2 of the reused engine lands bitwise on the single-run
  // reference — and therefore on what a fresh engine produces (the
  // sharded tests assert fresh == pipeline on this stream).
  ExpectStitchedMailboxEqual(engine, piped, f.config.num_nodes);
  EXPECT_FALSE(reused.state_store_allocated())
      << "two epochs of serving must not materialize the model's store";
  ExpectModelStateUntouched(reused, f.config.num_nodes);
  EXPECT_EQ(engine.replica(0).num_events(),
            static_cast<int64_t>(events / batch * batch));
}

TEST(ShardedStateTest, ResetStateReproducesFreshEngineInProcess) {
  ResetReproducesFreshEngine(TransportKind::kInProcess);
}

TEST(ShardedStateTest, ResetStateReproducesFreshEngineUnixSocket) {
  if (!UnixSocketTransport::Available()) {
    GTEST_SKIP() << "AF_UNIX unavailable on this platform";
  }
  ResetReproducesFreshEngine(TransportKind::kUnixSocket);
}

TEST(ShardedStateTest, ResetStateIsIdempotentAndReusable) {
  Fixture f;
  core::ApanModel model(f.config, &f.dataset.features, 5);
  ShardedEngine::Options options;
  options.num_shards = 2;
  ShardedEngine engine(&model, options);
  engine.ResetState();  // reset of a fresh engine is a no-op
  RunStream(engine, f, 100, 50);
  engine.ResetState();
  engine.ResetState();  // back-to-back resets must not wedge
  RunStream(engine, f, 100, 50);
  EXPECT_EQ(engine.replica(0).num_events(), 100);
  engine.Shutdown();
  engine.ResetState();  // documented no-op after Shutdown
}

TEST(ShardedStateTest, ResetStateKeepsCumulativeStats) {
  Fixture f;
  core::ApanModel model(f.config, &f.dataset.features, 5);
  ShardedEngine::Options options;
  options.num_shards = 2;
  ShardedEngine engine(&model, options);
  RunStream(engine, f, 100, 50);
  const auto before = engine.stats();
  engine.ResetState();
  RunStream(engine, f, 100, 50);
  const auto after = engine.stats();
  EXPECT_EQ(after.batches_ingested, 2 * before.batches_ingested);
  EXPECT_EQ(after.batches_propagated, 2 * before.batches_propagated);
}

// ---- Restore-vs-reset equivalence (recovery satellite) ---------------------

TEST(ShardedStateTest, RestoreFromJustWrittenSnapshotIsIdentity) {
  // Snapshot every shard of a warm engine, restore all four back into the
  // same engine: a checkpoint taken at a flushed boundary captures the
  // shard exactly, so the round trip must be a bitwise no-op.
  Fixture f;
  const size_t events = 200, batch = 50;
  core::ApanModel reference_model(f.config, &f.dataset.features, 7);
  {
    AsyncPipeline pipeline(&reference_model, {});
    for (size_t lo = 0; lo + batch <= events; lo += batch) {
      ASSERT_TRUE(pipeline.InferBatch(f.BatchEvents(lo, lo + batch)).ok());
    }
    pipeline.Flush();
  }
  core::ApanModel model(f.config, &f.dataset.features, 7);
  ShardedEngine::Options options;
  options.num_shards = 4;
  ShardedEngine engine(&model, options);
  RunStream(engine, f, events, batch);
  for (int s = 0; s < 4; ++s) {
    const std::string path =
        testing::TempDir() + "/identity_" + std::to_string(s) + ".apsn";
    ASSERT_TRUE(engine.SnapshotShard(s, path).ok());
    ASSERT_TRUE(engine.RestoreShard(s, path).ok());
  }
  ExpectStitchedMailboxEqual(engine, reference_model, f.config.num_nodes);
  // And the restored engine is still live: the next stretch of the
  // stream is accepted on top of the restored state.
  for (size_t lo = events; lo + batch <= events + 2 * batch; lo += batch) {
    ASSERT_TRUE(engine.InferBatch(f.BatchEvents(lo, lo + batch)).ok());
  }
  engine.Flush();
  EXPECT_EQ(engine.replica(0).num_events(),
            static_cast<int64_t>(events + 2 * batch));
}

TEST(ShardedStateTest, ResetFullReplayEqualsRestoreTailReplay) {
  // Two recovery strategies for the same crash point must converge: (a)
  // reset + replay the whole stream, (b) restore the mid-stream
  // checkpoint into a fresh engine + replay only the tail. Both are
  // checked bitwise against the single-worker reference.
  Fixture f;
  const size_t events = 200, cut = 100, batch = 50;
  core::ApanModel piped(f.config, &f.dataset.features, 7);
  {
    AsyncPipeline pipeline(&piped, {});
    for (size_t lo = 0; lo + batch <= events; lo += batch) {
      ASSERT_TRUE(pipeline.InferBatch(f.BatchEvents(lo, lo + batch)).ok());
    }
    pipeline.Flush();
  }

  // Checkpoint an engine at the cut, then exercise strategy (a) on it.
  core::ApanModel model_a(f.config, &f.dataset.features, 7);
  ShardedEngine::Options options;
  options.num_shards = 4;
  ShardedEngine engine_a(&model_a, options);
  RunStream(engine_a, f, cut, batch);
  for (int s = 0; s < 4; ++s) {
    ASSERT_TRUE(
        engine_a
            .SnapshotShard(s, testing::TempDir() + "/equiv_" +
                                  std::to_string(s) + ".apsn")
            .ok());
  }
  engine_a.ResetState();
  RunStream(engine_a, f, events, batch);
  ExpectStitchedMailboxEqual(engine_a, piped, f.config.num_nodes);

  // Strategy (b): a fresh engine adopts the checkpoint and replays the
  // tail only.
  core::ApanModel model_b(f.config, &f.dataset.features, 7);
  ShardedEngine engine_b(&model_b, options);
  for (int s = 0; s < 4; ++s) {
    ASSERT_TRUE(
        engine_b
            .RestoreShard(s, testing::TempDir() + "/equiv_" +
                                 std::to_string(s) + ".apsn")
            .ok());
  }
  for (size_t lo = cut; lo + batch <= events; lo += batch) {
    ASSERT_TRUE(engine_b.InferBatch(f.BatchEvents(lo, lo + batch)).ok());
  }
  engine_b.Flush();
  ExpectStitchedMailboxEqual(engine_b, piped, f.config.num_nodes);
  EXPECT_EQ(engine_b.replica(0).num_events(),
            static_cast<int64_t>(events));
}

}  // namespace
}  // namespace serve
}  // namespace apan
