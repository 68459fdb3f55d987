// Determinism of the sharded engine over real transports and under
// injected faults (ISSUE 3's tentpole claim): the final mailbox state
// must stay bitwise-equal to the single-worker AsyncPipeline when every
// cross-shard message crosses a Unix-domain socket, and when a
// FaultyTransport delays, reorders, and duplicates messages under a
// seeded RNG — sequence-tag replay absorbs reordering, and replay tags
// drop duplicates instead of re-applying them.

#include "serve/transport.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "data/synthetic.h"
#include "graph/node_partition.h"
#include "serve/async_pipeline.h"
#include "serve/sharded_engine.h"
#include "serve_state_util.h"

namespace apan {
namespace serve {
namespace {

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

/// Reference run: the single-worker pipeline over the first `n` events.
std::unique_ptr<core::ApanModel> RunPipeline(const Fixture& f, size_t n,
                                             size_t batch) {
  auto model = std::make_unique<core::ApanModel>(f.config,
                                                 &f.dataset.features, 7);
  AsyncPipeline pipeline(model.get(), {});
  for (size_t lo = 0; lo + batch <= n; lo += batch) {
    EXPECT_TRUE(pipeline.InferBatch(f.BatchEvents(lo, lo + batch)).ok());
  }
  pipeline.Flush();
  return model;
}

struct ShardedRun {
  // Declaration order matters: the engine reads the model's weights and
  // holds the served state, so it must be destroyed first (it is — members
  // destruct in reverse order).
  std::unique_ptr<core::ApanModel> model;
  std::unique_ptr<ShardedEngine> engine;  ///< Kept alive: owns the stores.
  ShardedEngine::Stats stats;
};

/// The engine over `factory`'s transport, free-running (no flush between
/// batches, so reordering/duplication genuinely interleaves in flight).
/// A null `partition` leaves the engine on the default hash ownership.
ShardedRun RunSharded(const Fixture& f, TransportFactory factory, size_t n,
                      size_t batch, bool shutdown_without_flush = false,
                      int num_shards = 4,
                      std::shared_ptr<const graph::NodePartition> partition =
                          nullptr) {
  ShardedRun run;
  run.model = std::make_unique<core::ApanModel>(f.config,
                                                &f.dataset.features, 7);
  ShardedEngine::Options options;
  options.num_shards = num_shards;
  options.partition = std::move(partition);
  options.transport = std::move(factory);
  run.engine = std::make_unique<ShardedEngine>(run.model.get(), options);
  for (size_t lo = 0; lo + batch <= n; lo += batch) {
    EXPECT_TRUE(run.engine->InferBatch(f.BatchEvents(lo, lo + batch)).ok());
  }
  if (shutdown_without_flush) {
    run.engine->Shutdown();  // must drain the transport, not just the deques
  } else {
    run.engine->Flush();
  }
  run.stats = run.engine->stats();
  return run;
}

TransportFactory FaultyFactory(TransportKind inner, uint64_t seed,
                               double duplicate_probability = 0.3) {
  return [inner, seed, duplicate_probability]() -> std::unique_ptr<Transport> {
    FaultyTransport::Options options;
    options.seed = seed;
    options.delay_probability = 0.5;
    options.duplicate_probability = duplicate_probability;
    options.max_delay_micros = 1500;
    options.flush_period_micros = 100;
    return std::make_unique<FaultyTransport>(MakeTransportFactory(inner)(),
                                             options);
  };
}

// ---- Clean transports reproduce the pipeline -------------------------------

TEST(TransportTest, InProcessTransportMatchesPipelineBitwise) {
  Fixture f;
  const auto reference = RunPipeline(f, 400, 50);
  const auto run =
      RunSharded(f, MakeTransportFactory(TransportKind::kInProcess), 400, 50);
  ExpectStitchedMailboxEqual(*run.engine, *reference, f.config.num_nodes);
  EXPECT_EQ(run.stats.duplicates_dropped, 0);
}

TEST(TransportTest, UnixSocketMatchesPipelineBitwiseOneHop) {
  if (!UnixSocketTransport::Available()) {
    GTEST_SKIP() << "AF_UNIX unavailable on this platform";
  }
  Fixture f;
  const auto reference = RunPipeline(f, 400, 50);
  const auto run =
      RunSharded(f, MakeTransportFactory(TransportKind::kUnixSocket), 400, 50);
  ExpectStitchedMailboxEqual(*run.engine, *reference, f.config.num_nodes);
  // A lossless FIFO lane delivers exactly once.
  EXPECT_EQ(run.stats.duplicates_dropped, 0);
  EXPECT_GT(run.stats.mails_cross_shard, 0);
}

TEST(TransportTest, UnixSocketMatchesPipelineBitwiseTwoHops) {
  if (!UnixSocketTransport::Available()) {
    GTEST_SKIP() << "AF_UNIX unavailable on this platform";
  }
  Fixture f;
  f.config.propagation_hops = 2;  // fan-out crossing every shard boundary
  const auto reference = RunPipeline(f, 300, 50);
  const auto run =
      RunSharded(f, MakeTransportFactory(TransportKind::kUnixSocket), 300, 50);
  ExpectStitchedMailboxEqual(*run.engine, *reference, f.config.num_nodes);
  EXPECT_GT(run.stats.mails_cross_shard, 0);
}

// ---- Fault-injection determinism soak --------------------------------------
// delay + reorder + duplicate under 10 RNG seeds per (transport, hops)
// combination — 20 seeds per hop count, 20 per transport. Every run must
// land bitwise on the single-worker mailbox.

void FaultySoak(int32_t hops, TransportKind inner, uint64_t seed_base,
                int num_shards = 4, bool locality_partition = false) {
  if (inner == TransportKind::kUnixSocket &&
      !UnixSocketTransport::Available()) {
    GTEST_SKIP() << "AF_UNIX unavailable on this platform";
  }
  Fixture f;
  f.config.propagation_hops = hops;
  const size_t events = 120, batch = 40;
  const auto reference = RunPipeline(f, events, batch);
  std::shared_ptr<const graph::NodePartition> partition;
  if (locality_partition) {
    partition = graph::NodePartition::BuildLocality(
        f.config.num_nodes, num_shards,
        std::span<const graph::Event>(f.dataset.events.data(), events));
  }
  int64_t duplicates_dropped = 0;
  for (uint64_t seed = seed_base; seed < seed_base + 10; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const auto run = RunSharded(f, FaultyFactory(inner, seed), events, batch,
                                /*shutdown_without_flush=*/false, num_shards,
                                partition);
    ExpectStitchedMailboxEqual(*run.engine, *reference, f.config.num_nodes);
    duplicates_dropped += run.stats.duplicates_dropped;
  }
  // With duplicate_probability 0.3 over hundreds of messages, the soak
  // has exercised the tag-drop path, not just clean orderings.
  EXPECT_GT(duplicates_dropped, 0);
}

TEST(TransportFaultSoakTest, OneHopInProcess) {
  FaultySoak(1, TransportKind::kInProcess, 0);
}

TEST(TransportFaultSoakTest, OneHopUnixSocket) {
  FaultySoak(1, TransportKind::kUnixSocket, 100);
}

TEST(TransportFaultSoakTest, TwoHopsInProcess) {
  FaultySoak(2, TransportKind::kInProcess, 200);
}

TEST(TransportFaultSoakTest, TwoHopsUnixSocket) {
  FaultySoak(2, TransportKind::kUnixSocket, 300);
}

TEST(TransportFaultSoakTest, EveryMessageDuplicatedIsDroppedByTag) {
  // duplicate_probability = 1: every message arrives at least twice.
  // Re-applying any of them would double mail counts or wedge the
  // sender-count barrier; the tags must drop them all.
  Fixture f;
  const auto reference = RunPipeline(f, 200, 50);
  const auto run = RunSharded(
      f, FaultyFactory(TransportKind::kInProcess, 99, /*duplicate=*/1.0),
      200, 50);
  ExpectStitchedMailboxEqual(*run.engine, *reference, f.config.num_nodes);
  EXPECT_GT(run.stats.duplicates_dropped, 0);
}

// ---- Partition independence ------------------------------------------------
// Determinism must not depend on WHERE nodes live: any disjoint ownership
// map yields the same stitched mailbox, because sequence-tag replay keys
// on (batch, sequence), never on shard ids. The suite re-runs bitwise
// equality and the fault soak under the locality-aware partitioner at
// 2, 4, and 8 shards over both real transports.

void LocalityMatchesPipeline(TransportKind kind) {
  if (kind == TransportKind::kUnixSocket &&
      !UnixSocketTransport::Available()) {
    GTEST_SKIP() << "AF_UNIX unavailable on this platform";
  }
  Fixture f;
  const size_t events = 400, batch = 50;
  const auto reference = RunPipeline(f, events, batch);
  for (const int num_shards : {2, 4, 8}) {
    SCOPED_TRACE(testing::Message() << num_shards << " shards");
    // Prior-epoch style: the partition is built from the exact stream it
    // will serve, the best case the greedy builder can see.
    const auto partition = graph::NodePartition::BuildLocality(
        f.config.num_nodes, num_shards,
        std::span<const graph::Event>(f.dataset.events.data(), events));
    const auto run = RunSharded(f, MakeTransportFactory(kind), events, batch,
                                /*shutdown_without_flush=*/false, num_shards,
                                partition);
    ExpectStitchedMailboxEqual(*run.engine, *reference, f.config.num_nodes);

    // And the point of the partitioner: co-location keeps propagation
    // local. The hash baseline at the same shard count must route
    // strictly more mail across shard boundaries.
    const auto hash_run =
        RunSharded(f, MakeTransportFactory(kind), events, batch,
                   /*shutdown_without_flush=*/false, num_shards);
    ExpectStitchedMailboxEqual(*hash_run.engine, *reference,
                               f.config.num_nodes);
    EXPECT_LT(run.stats.mails_cross_shard, hash_run.stats.mails_cross_shard);
  }
}

TEST(TransportPartitionTest, LocalityMatchesPipelineInProcess) {
  LocalityMatchesPipeline(TransportKind::kInProcess);
}

TEST(TransportPartitionTest, LocalityMatchesPipelineUnixSocket) {
  LocalityMatchesPipeline(TransportKind::kUnixSocket);
}

TEST(TransportPartitionFaultSoakTest, TwoShardsLocalityInProcess) {
  FaultySoak(1, TransportKind::kInProcess, 400, 2, /*locality=*/true);
}

TEST(TransportPartitionFaultSoakTest, TwoShardsLocalityUnixSocket) {
  FaultySoak(1, TransportKind::kUnixSocket, 500, 2, /*locality=*/true);
}

TEST(TransportPartitionFaultSoakTest, FourShardsLocalityInProcess) {
  FaultySoak(1, TransportKind::kInProcess, 600, 4, /*locality=*/true);
}

TEST(TransportPartitionFaultSoakTest, FourShardsLocalityUnixSocket) {
  FaultySoak(1, TransportKind::kUnixSocket, 700, 4, /*locality=*/true);
}

TEST(TransportPartitionFaultSoakTest, EightShardsLocalityInProcess) {
  FaultySoak(1, TransportKind::kInProcess, 800, 8, /*locality=*/true);
}

TEST(TransportPartitionFaultSoakTest, EightShardsLocalityUnixSocket) {
  FaultySoak(1, TransportKind::kUnixSocket, 900, 8, /*locality=*/true);
}

// ---- Shutdown under load ---------------------------------------------------

TEST(TransportShutdownTest, ShutdownUnderLoadDrainsUnixSocketLanes) {
  // Regression for the satellite fix: Shutdown during in-flight
  // cross-shard work must drain the socket lanes before joining workers —
  // a deque cannot lose frames, a socket (or delay buffer) can.
  if (!UnixSocketTransport::Available()) {
    GTEST_SKIP() << "AF_UNIX unavailable on this platform";
  }
  Fixture f;
  f.config.propagation_hops = 2;
  const auto reference = RunPipeline(f, 300, 50);
  const auto run =
      RunSharded(f, MakeTransportFactory(TransportKind::kUnixSocket), 300, 50,
                 /*shutdown_without_flush=*/true);
  ExpectStitchedMailboxEqual(*run.engine, *reference, f.config.num_nodes);
}

TEST(TransportShutdownTest, ShutdownUnderLoadFlushesHeldFaultFrames) {
  // Same regression against the fault decorator: frames sitting in the
  // delay buffer at Shutdown must be flushed (released to the inner
  // transport), never dropped.
  Fixture f;
  const auto reference = RunPipeline(f, 300, 50);
  for (const uint64_t seed : {7u, 8u, 9u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const auto run =
        RunSharded(f, FaultyFactory(TransportKind::kInProcess, seed), 300, 50,
                   /*shutdown_without_flush=*/true);
    ExpectStitchedMailboxEqual(*run.engine, *reference, f.config.num_nodes);
  }
}

// ---- Transport unit behavior -----------------------------------------------

TEST(TransportTest, SendBeforeStartFails) {
  InProcessTransport inproc;
  EXPECT_FALSE(inproc.Send(0, 0, ShardPartial{}).ok());
  UnixSocketTransport uds;
  EXPECT_FALSE(uds.Send(0, 0, ShardPartial{}).ok());
}

TEST(TransportTest, SendAfterStopFails) {
  InProcessTransport inproc;
  ASSERT_TRUE(inproc.Start(2, [](int, ShardPartial) {}).ok());
  inproc.Stop();
  EXPECT_FALSE(inproc.Send(0, 1, ShardPartial{}).ok());
}

TEST(TransportTest, UnixSocketDeliversAcrossLanes) {
  if (!UnixSocketTransport::Available()) {
    GTEST_SKIP() << "AF_UNIX unavailable on this platform";
  }
  UnixSocketTransport uds;
  std::mutex mu;
  std::vector<std::pair<int, int64_t>> received;  // (to_shard, batch)
  ASSERT_TRUE(uds.Start(3,
                        [&](int to, ShardPartial m) {
                          std::lock_guard<std::mutex> lock(mu);
                          received.emplace_back(to, m.batch);
                        })
                  .ok());
  for (int from = 0; from < 3; ++from) {
    for (int to = 0; to < 3; ++to) {
      ShardPartial partial;
      partial.batch = from * 3 + to;
      partial.from_shard = from;
      ASSERT_TRUE(uds.Send(from, to, std::move(partial)).ok());
    }
  }
  uds.Stop();  // drains every accepted frame before returning
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(received.size(), 9u);
  int64_t batch_sum = 0;
  for (const auto& [to, batch] : received) {
    EXPECT_EQ(batch % 3, to);  // delivered to the lane's receiver
    batch_sum += batch;
  }
  EXPECT_EQ(batch_sum, 36);  // 0 + 1 + ... + 8, each exactly once
}

TEST(TransportTest, ParseTransportKindNames) {
  EXPECT_EQ(*ParseTransportKind("inproc"), TransportKind::kInProcess);
  EXPECT_EQ(*ParseTransportKind("uds"), TransportKind::kUnixSocket);
  EXPECT_FALSE(ParseTransportKind("tcp").ok());
}

}  // namespace
}  // namespace serve
}  // namespace apan
