#include "serve/sharded_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <thread>

#include "data/synthetic.h"
#include "serve/async_pipeline.h"
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

// ---- ShardRouter -----------------------------------------------------------

TEST(ShardRouterTest, DeterministicAndInRange) {
  ShardRouter router(4, 1000);
  for (graph::NodeId v = 0; v < 1000; ++v) {
    const int s = router.ShardOf(v);
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 4);
    EXPECT_EQ(s, router.ShardOf(v));  // pure function of (node, shards)
  }
}

TEST(ShardRouterTest, SpreadsContiguousIdsAcrossShards) {
  ShardRouter router(4, 1024);
  const std::vector<int64_t> counts = router.OwnedNodeCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), int64_t{0}), 1024);
  for (const int64_t c : counts) {
    // A hashed partition of 1024 contiguous ids should not starve or
    // swamp any shard (256 expected; allow wide slack).
    EXPECT_GT(c, 128);
    EXPECT_LT(c, 384);
  }
}

TEST(ShardRouterTest, PartitionNodesIsStable) {
  ShardRouter router(3, 100);
  const std::vector<graph::NodeId> nodes = {7, 3, 99, 7, 42, 3};
  const auto parts = router.PartitionNodes(nodes);
  size_t total = 0;
  for (int s = 0; s < 3; ++s) {
    total += parts[static_cast<size_t>(s)].size();
    // Every node landed on its owner, input order preserved per shard.
    graph::NodeId prev_pos = -1;
    for (const graph::NodeId v : parts[static_cast<size_t>(s)]) {
      EXPECT_EQ(router.ShardOf(v), s);
      (void)prev_pos;
    }
  }
  EXPECT_EQ(total, nodes.size());
}

TEST(ShardRouterTest, SingleShardOwnsEverything) {
  ShardRouter router(1, 50);
  for (graph::NodeId v = 0; v < 50; ++v) EXPECT_EQ(router.ShardOf(v), 0);
}

TEST(ShardRouterTest, PartitionEventsByHomeShard) {
  ShardRouter router(2, 100);
  std::vector<graph::Event> events;
  for (int i = 0; i < 20; ++i) {
    events.push_back({i % 100, (i * 7 + 1) % 100, static_cast<double>(i), i});
  }
  const auto parts = router.PartitionEvents(events);
  size_t total = 0;
  for (int s = 0; s < 2; ++s) {
    for (const int64_t idx : parts[static_cast<size_t>(s)]) {
      EXPECT_EQ(router.HomeShardOf(events[static_cast<size_t>(idx)]), s);
    }
    total += parts[static_cast<size_t>(s)].size();
  }
  EXPECT_EQ(total, events.size());
}

// ---- ShardedEngine: functional ---------------------------------------------

TEST(ShardedEngineTest, ScoresEveryEvent) {
  Fixture f;
  core::ApanModel model(f.config, &f.dataset.features, 1);
  ShardedEngine::Options options;
  options.num_shards = 4;
  ShardedEngine engine(&model, options);
  auto result = engine.InferBatch(f.BatchEvents(0, 50));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->scores.size(), 50u);
  for (float s : result->scores) {
    EXPECT_GE(s, 0.0f);
    EXPECT_LE(s, 1.0f);
  }
  engine.Flush();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.batches_ingested, 1);
  EXPECT_EQ(stats.batches_propagated, 1);
  EXPECT_GT(stats.mails_routed, 0);
  EXPECT_EQ(stats.mails_dropped, 0);
}

// The tentpole determinism claim: cross-shard mail arrives out of order by
// construction, yet after Flush() the engine's per-shard stores, stitched
// by ownership, hold mailbox timestamps and counts bitwise-identical to
// the single-worker AsyncPipeline on the same stream (sequence-tagged
// replay restores per-node delivery order, and ρ is finalized over the
// whole batch after merging every shard's partials). The stitched helper
// lives in serve_state_util.h, shared with the transport + state tests.

TEST(ShardedEngineTest, MatchesAsyncPipelineMailboxBitwise) {
  Fixture f;
  core::ApanModel piped(f.config, &f.dataset.features, 7);
  core::ApanModel sharded(f.config, &f.dataset.features, 7);
  AsyncPipeline pipeline(&piped, {});
  ShardedEngine::Options options;
  options.num_shards = 4;
  ShardedEngine engine(&sharded, options);

  // Free-running: no flush between batches, so cross-shard interleavings
  // genuinely occur while the stream is in flight.
  for (size_t lo = 0; lo < 400; lo += 50) {
    auto events = f.BatchEvents(lo, lo + 50);
    ASSERT_TRUE(pipeline.InferBatch(events).ok());
    ASSERT_TRUE(engine.InferBatch(events).ok());
  }
  pipeline.Flush();
  engine.Flush();

  // The engine serves out of its own per-worker graph replicas AND state
  // stores; the model's monolithic graph stays empty and its lazily-
  // allocated default store was never even materialized (weights are
  // accessed const-only — the strongest form of "untouched").
  EXPECT_EQ(sharded.graph().num_events(), 0);
  EXPECT_EQ(piped.graph().num_events(), engine.replica(0).num_events());
  EXPECT_FALSE(sharded.state_store_allocated())
      << "engine materialized the model's state plane";
  ExpectModelStateUntouched(sharded, f.config.num_nodes);
  ExpectStitchedMailboxEqual(engine, piped, f.config.num_nodes,
                             /*min_nonempty=*/20);

  // After Flush every worker's replica has absorbed every accepted event,
  // and the replicas are identical copies.
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(engine.replica(s).num_events(), 400) << "shard " << s;
    EXPECT_EQ(engine.replica(s).MemoryBytes(),
              engine.replica(0).MemoryBytes()) << "shard " << s;
  }

  // The replica stores only {node, timestamp} per occurrence — no event
  // log, no edge ids — so one copy is under half the monolithic graph
  // and the N copies together cost N times that, not more.
  const double replica_bytes =
      static_cast<double>(engine.replica(0).MemoryBytes());
  const double mono_bytes = static_cast<double>(piped.graph().MemoryBytes());
  EXPECT_GT(replica_bytes, 0.3 * mono_bytes);
  EXPECT_LT(replica_bytes, 0.5 * mono_bytes);

  const auto stats = engine.stats();
  EXPECT_EQ(stats.batches_ingested, 8);
  EXPECT_EQ(stats.batches_propagated, 8);
  EXPECT_EQ(stats.batches_rejected, 0);
  EXPECT_GT(stats.mails_cross_shard, 0) << "4 shards must exchange mail";
  // Sampling is a local read: no frontier ever leaves its shard.
  EXPECT_EQ(stats.frontier_requests, 0);
  EXPECT_EQ(stats.frontier_nodes_forwarded, 0);
}

TEST(ShardedEngineTest, MatchesAsyncPipelineBitwiseTwoHops) {
  // Two-hop fan-out: hop-2 frontiers routinely land on nodes owned by a
  // third shard, and the home shard samples them all from its own replica
  // — which must still reproduce the single-worker mailbox bitwise.
  Fixture f;
  f.config.propagation_hops = 2;
  core::ApanModel piped(f.config, &f.dataset.features, 21);
  core::ApanModel sharded(f.config, &f.dataset.features, 21);
  AsyncPipeline pipeline(&piped, {});
  ShardedEngine::Options options;
  options.num_shards = 4;
  ShardedEngine engine(&sharded, options);

  for (size_t lo = 0; lo < 300; lo += 50) {
    auto events = f.BatchEvents(lo, lo + 50);
    ASSERT_TRUE(pipeline.InferBatch(events).ok());
    ASSERT_TRUE(engine.InferBatch(events).ok());
  }
  pipeline.Flush();
  engine.Flush();

  ExpectStitchedMailboxEqual(engine, piped, f.config.num_nodes,
                             /*min_nonempty=*/20);
}

TEST(ShardedEngineTest, SingleShardMatchesAsyncPipeline) {
  Fixture f;
  core::ApanModel piped(f.config, &f.dataset.features, 11);
  core::ApanModel sharded(f.config, &f.dataset.features, 11);
  AsyncPipeline pipeline(&piped, {});
  ShardedEngine::Options options;
  options.num_shards = 1;
  ShardedEngine engine(&sharded, options);
  for (size_t lo = 0; lo < 200; lo += 50) {
    auto events = f.BatchEvents(lo, lo + 50);
    ASSERT_TRUE(pipeline.InferBatch(events).ok());
    ASSERT_TRUE(engine.InferBatch(events).ok());
  }
  pipeline.Flush();
  engine.Flush();
  ExpectStitchedMailboxEqual(engine, piped, f.config.num_nodes,
                             /*min_nonempty=*/20);
  EXPECT_EQ(engine.stats().mails_cross_shard, 0);
}

TEST(ShardedEngineTest, FlushSteppedPayloadsAndScoresTrackPipeline) {
  // With a flush between batches both engines encode from fully-settled
  // state, so scores and mail payloads agree up to floating-point
  // summation order in the cross-shard ρ-merge.
  Fixture f;
  f.config.mailbox_slots = 8;
  core::ApanModel piped(f.config, &f.dataset.features, 3);
  core::ApanModel sharded(f.config, &f.dataset.features, 3);
  AsyncPipeline pipeline(&piped, {});
  ShardedEngine::Options options;
  options.num_shards = 4;
  ShardedEngine engine(&sharded, options);

  double score_gap = 0.0;
  size_t scored = 0;
  for (size_t lo = 0; lo < 300; lo += 50) {
    auto events = f.BatchEvents(lo, lo + 50);
    auto a = pipeline.InferBatch(events);
    auto b = engine.InferBatch(events);
    ASSERT_TRUE(a.ok() && b.ok());
    for (size_t i = 0; i < a->scores.size(); ++i) {
      score_gap += std::abs(a->scores[i] - b->scores[i]);
      ++scored;
    }
    pipeline.Flush();
    engine.Flush();
  }
  EXPECT_LT(score_gap / static_cast<double>(scored), 1e-3);

  for (graph::NodeId v = 0; v < f.config.num_nodes; ++v) {
    // Stitch: v's mail lives in its owner shard's store. The ring
    // sequence per node is identical to the monolithic mailbox, so even
    // the raw storage order matches slot for slot.
    const core::NodeStateStore& store =
        engine.state_store(engine.router().ShardOf(v));
    const int64_t count = piped.mailbox().ValidCount(v);
    ASSERT_EQ(count, store.ValidCount(v)) << "node " << v;
    for (int64_t slot = 0; slot < count; ++slot) {
      const auto a = piped.mailbox().RawSlot(v, slot);
      const auto b = store.RawSlot(v, slot);
      for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_NEAR(a[i], b[i], 1e-3f)
            << "node " << v << " slot " << slot << " dim " << i;
      }
    }
  }
}

TEST(ShardedEngineTest, RepeatedRunsAreDeterministic) {
  Fixture f;
  std::vector<float> first_scores;
  for (int run = 0; run < 2; ++run) {
    core::ApanModel model(f.config, &f.dataset.features, 5);
    ShardedEngine::Options options;
    options.num_shards = 4;
    ShardedEngine engine(&model, options);
    std::vector<float> scores;
    for (size_t lo = 0; lo < 200; lo += 50) {
      auto result = engine.InferBatch(f.BatchEvents(lo, lo + 50));
      ASSERT_TRUE(result.ok());
      scores.insert(scores.end(), result->scores.begin(),
                    result->scores.end());
      engine.Flush();  // settle state so scores are timing-independent
    }
    if (run == 0) {
      first_scores = std::move(scores);
    } else {
      ASSERT_EQ(first_scores.size(), scores.size());
      for (size_t i = 0; i < scores.size(); ++i) {
        EXPECT_EQ(first_scores[i], scores[i]) << "score " << i;
      }
    }
  }
}

// ---- ShardedEngine: lifecycle + overload -----------------------------------

TEST(ShardedEngineTest, ShutdownRejectsFurtherWork) {
  Fixture f;
  core::ApanModel model(f.config, &f.dataset.features, 6);
  ShardedEngine::Options options;
  options.num_shards = 2;
  ShardedEngine engine(&model, options);
  ASSERT_TRUE(engine.InferBatch(f.BatchEvents(0, 10)).ok());
  engine.Shutdown();
  auto r = engine.InferBatch(f.BatchEvents(10, 20));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  engine.Shutdown();  // idempotent
}

TEST(ShardedEngineTest, ShutdownDrainsAcceptedWork) {
  // Shutdown without a prior Flush must still apply every accepted
  // batch's mail (the engine drains before stopping the workers).
  Fixture f;
  core::ApanModel drained(f.config, &f.dataset.features, 9);
  core::ApanModel reference(f.config, &f.dataset.features, 9);
  {
    AsyncPipeline pipeline(&reference, {});
    for (size_t lo = 0; lo < 200; lo += 50) {
      ASSERT_TRUE(pipeline.InferBatch(f.BatchEvents(lo, lo + 50)).ok());
    }
    pipeline.Flush();
  }
  ShardedEngine::Options options;
  options.num_shards = 4;
  ShardedEngine engine(&drained, options);
  for (size_t lo = 0; lo < 200; lo += 50) {
    ASSERT_TRUE(engine.InferBatch(f.BatchEvents(lo, lo + 50)).ok());
  }
  engine.Shutdown();  // no Flush first
  // The stores outlive Shutdown (they die with the engine), so drained
  // state is still inspectable here.
  ExpectStitchedMailboxEqual(engine, reference, f.config.num_nodes,
                             /*min_nonempty=*/20);
}

TEST(ShardedEngineTest, DropPolicyAccountsEveryRecord) {
  Fixture f;
  core::ApanModel model(f.config, &f.dataset.features, 8);
  ShardedEngine::Options options;
  options.num_shards = 2;
  options.queue_capacity = 1;
  options.overflow = OverflowPolicy::kDropNewest;
  ShardedEngine engine(&model, options);
  const size_t batch = 25;
  size_t pushed = 0;
  for (size_t lo = 0; lo + batch <= 400; lo += batch) {
    ASSERT_TRUE(engine.InferBatch(f.BatchEvents(lo, lo + batch)).ok());
    pushed += batch;
  }
  engine.Flush();
  const auto stats = engine.stats();
  // Whether a given batch was dropped is timing-dependent, but every
  // record is accounted for exactly once: propagated or dropped.
  EXPECT_EQ(stats.batches_propagated * static_cast<int64_t>(batch) +
                stats.mails_dropped,
            static_cast<int64_t>(pushed));
  EXPECT_EQ(stats.batches_propagated, stats.batches_ingested);
  // Refused batches are visible, not silent: the rejection counter
  // reconciles attempts against ingested, and mails_dropped is exactly
  // the rejected batches' records.
  EXPECT_EQ(stats.batches_ingested + stats.batches_rejected,
            static_cast<int64_t>(pushed / batch));
  EXPECT_EQ(stats.mails_dropped,
            stats.batches_rejected * static_cast<int64_t>(batch));
}

TEST(ShardedEngineTest, ConcurrentFlushInferShutdownStress) {
  Fixture f;
  core::ApanModel model(f.config, &f.dataset.features, 13);
  ShardedEngine::Options options;
  options.num_shards = 4;
  options.queue_capacity = 2;  // exercise back-pressure
  ShardedEngine engine(&model, options);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> accepted{0};
  // One producer keeps the stream-order contract; flushers and shutdowns
  // interleave against it.
  std::thread producer([&] {
    for (size_t lo = 0; lo + 20 <= 400; lo += 20) {
      auto r = engine.InferBatch(f.BatchEvents(lo, lo + 20));
      if (!r.ok()) {
        EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
        break;
      }
      accepted.fetch_add(1);
    }
    stop.store(true);
  });
  std::vector<std::thread> flushers;
  for (int t = 0; t < 2; ++t) {
    flushers.emplace_back([&] {
      while (!stop.load()) engine.Flush();
      engine.Flush();
    });
  }
  producer.join();
  for (auto& th : flushers) th.join();
  // Two racing shutdowns: the second must wait for (not skip) the first.
  std::thread s1([&] { engine.Shutdown(); });
  std::thread s2([&] { engine.Shutdown(); });
  s1.join();
  s2.join();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.batches_ingested, accepted.load());
  EXPECT_EQ(stats.batches_propagated, accepted.load());
}

TEST(ShardedEngineTest, ZeroQueueCapacityIsClamped) {
  // capacity = 0 must behave like capacity = 1 (as BoundedQueue does),
  // not wedge kBlock back-pressure forever.
  Fixture f;
  core::ApanModel model(f.config, &f.dataset.features, 6);
  ShardedEngine::Options options;
  options.num_shards = 2;
  options.queue_capacity = 0;
  ShardedEngine engine(&model, options);
  ASSERT_TRUE(engine.InferBatch(f.BatchEvents(0, 20)).ok());
  ASSERT_TRUE(engine.InferBatch(f.BatchEvents(20, 40)).ok());
  engine.Flush();
  EXPECT_EQ(engine.stats().batches_propagated, 2);
}

TEST(ShardedEngineTest, MergeSkewStaysWithinQueueCapacity) {
  // Every event homed on shard 0: shard 1's jobs are empty and it races
  // ahead, parking its partials for batches shard 0 has not routed yet.
  // Back-pressure on the busy shard's inbox bounds that drift, and the
  // per-shard serve.merge_pending_highwater gauge reports it.
  Fixture f;
  f.config.propagation_hops = 2;
  core::ApanModel model(f.config, &f.dataset.features, 9);
  const std::vector<graph::Event> events = f.BatchEvents(0, 600);
  std::vector<char> is_src(static_cast<size_t>(f.config.num_nodes), 0);
  for (const graph::Event& e : events) {
    is_src[static_cast<size_t>(e.src)] = 1;
  }
  ShardedEngine::Options options;
  options.num_shards = 2;
  options.queue_capacity = 4;
  options.partition = graph::NodePartition::Build(
      f.config.num_nodes, 2, [&is_src](graph::NodeId v) {
        return is_src[static_cast<size_t>(v)] != 0 ? 0 : 1;
      });
  ShardedEngine engine(&model, options);
  for (size_t lo = 0; lo < events.size(); lo += 10) {
    ASSERT_TRUE(engine
                    .InferBatch(std::vector<graph::Event>(
                        events.begin() + static_cast<std::ptrdiff_t>(lo),
                        events.begin() + static_cast<std::ptrdiff_t>(lo + 10)))
                    .ok());
  }
  engine.Flush();
  const obs::Registry::Snapshot snap = engine.registry()->Scrape();
  const auto* homed = snap.FindCounter("serve.events_homed");
  ASSERT_NE(homed, nullptr);
  EXPECT_EQ(homed->cells[0], static_cast<int64_t>(events.size()));
  EXPECT_EQ(homed->cells[1], 0);
  const auto* parked = snap.FindGauge("serve.merge_pending_highwater");
  ASSERT_NE(parked, nullptr);
  ASSERT_EQ(parked->cells.size(), 2u);
  for (const int64_t cell : parked->cells) {
    // Every batch needs a partial from both shards, so the first of the
    // two to arrive parks it: each shard parks at least once. A parked
    // batch lacks a partial from a shard that has not finished its job
    // for it, and no shard holds more than queue_capacity jobs — with
    // synchronous in-process delivery that caps what can be parked.
    EXPECT_GE(cell, 1);
    EXPECT_LE(cell, static_cast<int64_t>(options.queue_capacity));
  }
  EXPECT_EQ(engine.stats().batches_propagated, 60);
}

TEST(ShardedEngineTest, EmptyBatchRejected) {
  Fixture f;
  core::ApanModel model(f.config, &f.dataset.features, 6);
  ShardedEngine engine(&model, {});
  EXPECT_TRUE(engine.InferBatch({}).status().IsInvalidArgument());
}

// ---- AsyncPipeline satellites ----------------------------------------------

TEST(AsyncPipelineShutdownTest, ShutdownDeliversHeldBackMail) {
  // With heavy out-of-order injection, Shutdown without a Flush must not
  // lose the held-back mail: final mail counts match a delay-free run.
  Fixture f;
  f.config.mailbox_slots = 64;  // no eviction in this stream
  core::ApanModel delayed(f.config, &f.dataset.features, 4);
  core::ApanModel ordered(f.config, &f.dataset.features, 4);
  {
    AsyncPipeline::Options options;
    options.delay_fraction = 0.9;
    AsyncPipeline pipeline(&delayed, options);
    for (size_t lo = 0; lo < 200; lo += 50) {
      ASSERT_TRUE(pipeline.InferBatch(f.BatchEvents(lo, lo + 50)).ok());
    }
    pipeline.Shutdown();  // no Flush: held-back mail must still land
  }
  {
    AsyncPipeline pipeline(&ordered, {});
    for (size_t lo = 0; lo < 200; lo += 50) {
      ASSERT_TRUE(pipeline.InferBatch(f.BatchEvents(lo, lo + 50)).ok());
    }
    pipeline.Flush();
  }
  for (graph::NodeId v = 0; v < f.config.num_nodes; ++v) {
    ASSERT_EQ(delayed.mailbox().ValidCount(v), ordered.mailbox().ValidCount(v))
        << "node " << v;
  }
}

TEST(AsyncPipelineDropTest, MailsDroppedAccountsEveryRecord) {
  for (const OverflowPolicy policy :
       {OverflowPolicy::kDropNewest, OverflowPolicy::kDropOldest}) {
    Fixture f;
    core::ApanModel model(f.config, &f.dataset.features, 2);
    AsyncPipeline::Options options;
    options.queue_capacity = 1;
    options.overflow = policy;
    AsyncPipeline pipeline(&model, options);
    const size_t batch = 25;
    int64_t pushed = 0;
    for (size_t lo = 0; lo + batch <= 400; lo += batch) {
      auto r = pipeline.InferBatch(f.BatchEvents(lo, lo + batch));
      ASSERT_TRUE(r.ok());
      pushed += static_cast<int64_t>(batch);
    }
    pipeline.Shutdown();  // drains whatever was not dropped
    // Whether a given batch is dropped is timing-dependent; the conserved
    // quantity is records propagated + records dropped == records pushed.
    EXPECT_EQ(pipeline.batches_propagated() * static_cast<int64_t>(batch) +
                  pipeline.mails_dropped(),
              pushed);
  }
}

TEST(AsyncPipelineStressTest, ConcurrentFlushInferShutdown) {
  Fixture f;
  core::ApanModel model(f.config, &f.dataset.features, 15);
  AsyncPipeline::Options options;
  options.queue_capacity = 2;
  AsyncPipeline pipeline(&model, options);

  std::atomic<bool> stop{false};
  std::thread producer([&] {
    for (size_t lo = 0; lo + 20 <= 400; lo += 20) {
      auto r = pipeline.InferBatch(f.BatchEvents(lo, lo + 20));
      if (!r.ok()) {
        EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
        break;
      }
    }
    stop.store(true);
  });
  std::vector<std::thread> flushers;
  for (int t = 0; t < 2; ++t) {
    flushers.emplace_back([&] {
      while (!stop.load()) pipeline.Flush();
      pipeline.Flush();
    });
  }
  producer.join();
  for (auto& th : flushers) th.join();
  std::thread s1([&] { pipeline.Shutdown(); });
  std::thread s2([&] { pipeline.Shutdown(); });
  s1.join();
  s2.join();
}

}  // namespace
}  // namespace serve
}  // namespace apan
