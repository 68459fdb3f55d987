#include "serve/sharded_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <thread>

#include "data/synthetic.h"
#include "graph/node_partition.h"
#include "serve_state_util.h"

namespace apan {
namespace serve {
namespace {

using testutil::ExpectModelStateUntouched;
using testutil::ExpectStitchedMailboxEqual;
using testutil::ExpectStitchedStateBitwise;
using testutil::RunSerial;
using testutil::SerialRun;

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
  const std::vector<int64_t>& counts = router.partition()->owned_count;
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), int64_t{0}), 1024);
  for (const int64_t c : counts) {
    // A hashed partition of 1024 contiguous ids should not starve or
    // swamp any shard (256 expected; allow wide slack).
    EXPECT_GT(c, 128);
    EXPECT_LT(c, 384);
  }
}

TEST(ShardRouterTest, SingleShardOwnsEverything) {
  ShardRouter router(1, 50);
  for (graph::NodeId v = 0; v < 50; ++v) EXPECT_EQ(router.ShardOf(v), 0);
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
// the serial ApanModel path on the same stream (sequence-tagged replay
// restores per-node delivery order, and ρ is finalized over the whole
// batch after merging every shard's partials). The serial oracle and the
// stitched helper live in serve_state_util.h, shared with the transport,
// recovery and state tests.

TEST(ShardedEngineTest, MatchesSerialMailboxBitwise) {
  Fixture f;
  const SerialRun serial = RunSerial(f.config, f.dataset, 7, 400, 50);
  const core::ApanModel& reference = *serial.model;
  core::ApanModel sharded(f.config, &f.dataset.features, 7);
  ShardedEngine::Options options;
  options.num_shards = 4;
  ShardedEngine engine(&sharded, options);

  // Free-running: no flush between batches, so cross-shard interleavings
  // genuinely occur while the stream is in flight.
  for (size_t lo = 0; lo < 400; lo += 50) {
    ASSERT_TRUE(engine.InferBatch(f.BatchEvents(lo, lo + 50)).ok());
  }
  engine.Flush();

  // The engine serves out of its own per-worker graph replicas AND state
  // stores; the model's monolithic graph stays empty and its lazily-
  // allocated default store was never even materialized (weights are
  // accessed const-only — the strongest form of "untouched").
  EXPECT_EQ(sharded.graph().num_events(), 0);
  EXPECT_EQ(reference.graph().num_events(), engine.replica(0).num_events());
  EXPECT_FALSE(sharded.state_store_allocated())
      << "engine materialized the model's state plane";
  ExpectModelStateUntouched(sharded, f.config.num_nodes);
  ExpectStitchedMailboxEqual(engine, reference, f.config.num_nodes,
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
  const double mono_bytes =
      static_cast<double>(reference.graph().MemoryBytes());
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

TEST(ShardedEngineTest, MatchesSerialBitwiseTwoHops) {
  // Two-hop fan-out: hop-2 frontiers routinely land on nodes owned by a
  // third shard, and the home shard samples them all from its own replica
  // — which must still reproduce the serial mailbox bitwise.
  Fixture f;
  f.config.propagation_hops = 2;
  const SerialRun serial = RunSerial(f.config, f.dataset, 21, 300, 50);
  core::ApanModel sharded(f.config, &f.dataset.features, 21);
  ShardedEngine::Options options;
  options.num_shards = 4;
  ShardedEngine engine(&sharded, options);

  for (size_t lo = 0; lo < 300; lo += 50) {
    ASSERT_TRUE(engine.InferBatch(f.BatchEvents(lo, lo + 50)).ok());
  }
  engine.Flush();

  ExpectStitchedMailboxEqual(engine, *serial.model, f.config.num_nodes,
                             /*min_nonempty=*/20);
}

TEST(ShardedEngineTest, SingleShardMatchesSerial) {
  // At 1 shard the engine's ρ order is the serial order, so with a flush
  // between batches (every encode sees settled state, as the serial path's
  // always does) scores, mail payloads and z(t−) rows are all bitwise the
  // oracle's — not merely close.
  Fixture f;
  const SerialRun serial = RunSerial(f.config, f.dataset, 11, 200, 50);
  core::ApanModel sharded(f.config, &f.dataset.features, 11);
  ShardedEngine::Options options;
  options.num_shards = 1;
  ShardedEngine engine(&sharded, options);
  std::vector<float> scores;
  for (size_t lo = 0; lo < 200; lo += 50) {
    auto result = engine.InferBatch(f.BatchEvents(lo, lo + 50));
    ASSERT_TRUE(result.ok()) << result.status();
    scores.insert(scores.end(), result->scores.begin(), result->scores.end());
    engine.Flush();
  }
  ASSERT_EQ(scores.size(), serial.scores.size());
  EXPECT_EQ(std::memcmp(scores.data(), serial.scores.data(),
                        scores.size() * sizeof(float)),
            0)
      << "InferBatch scores differ from the serial oracle's bitwise";
  ExpectStitchedStateBitwise(engine, *serial.model, f.config.num_nodes);
  EXPECT_EQ(engine.stats().mails_cross_shard, 0);
}

// Multi-shard payloads sum ρ partials in sender-shard order, which the
// serial oracle cannot reproduce; this pins them instead. Each config is
// served flush-stepped (so encodes see settled state and the digest is a
// pure function of the stream) with 2-hop fan-out across hash and
// locality partitions, and the digest of the stitched payloads and z(t−)
// rows must equal the value recorded before the flat mail-block rework.
// The values also fold in the encoder's libm calls (exp, cos), so a
// platform whose libm rounds differently has to record its own.
TEST(ShardedEngineTest, StitchedStateDigestIsPinned) {
  struct Config {
    int shards;
    bool locality;
    uint64_t digest;
  };
  const Config configs[] = {
      {2, false, 0xa85d5000233fb49eull},
      {2, true, 0x75c6788580d49d2eull},
      {4, false, 0xd179366c87f2ea30ull},
      {4, true, 0x97808955eb58e517ull},
  };
  Fixture f;
  f.config.propagation_hops = 2;
  const size_t events = 300, batch = 50;
  for (const Config& c : configs) {
    SCOPED_TRACE(testing::Message()
                 << "x" << c.shards << (c.locality ? " locality" : " hash"));
    core::ApanModel model(f.config, &f.dataset.features, 5);
    ShardedEngine::Options options;
    options.num_shards = c.shards;
    if (c.locality) {
      options.partition = graph::NodePartition::BuildLocality(
          f.config.num_nodes, c.shards,
          std::span<const graph::Event>(f.dataset.events.data(), events));
    }
    ShardedEngine engine(&model, options);
    for (size_t lo = 0; lo < events; lo += batch) {
      ASSERT_TRUE(engine.InferBatch(f.BatchEvents(lo, lo + batch)).ok());
      engine.Flush();
    }
    EXPECT_GT(engine.stats().mails_cross_shard, 0);
    const uint64_t digest =
        testutil::StitchedStateDigest(engine, f.config.num_nodes);
    EXPECT_EQ(digest, c.digest) << std::hex << "0x" << digest;
  }
}

TEST(ShardedEngineTest, FlushSteppedPayloadsAndScoresTrackSerial) {
  // With a flush between batches the engine encodes from fully-settled
  // state, as the serial path always does, so scores and mail payloads
  // agree up to floating-point summation order in the cross-shard
  // ρ-merge.
  Fixture f;
  f.config.mailbox_slots = 8;
  const SerialRun serial = RunSerial(f.config, f.dataset, 3, 300, 50);
  const core::ApanModel& reference = *serial.model;
  core::ApanModel sharded(f.config, &f.dataset.features, 3);
  ShardedEngine::Options options;
  options.num_shards = 4;
  ShardedEngine engine(&sharded, options);

  std::vector<float> scores;
  for (size_t lo = 0; lo < 300; lo += 50) {
    auto result = engine.InferBatch(f.BatchEvents(lo, lo + 50));
    ASSERT_TRUE(result.ok());
    scores.insert(scores.end(), result->scores.begin(), result->scores.end());
    engine.Flush();
  }
  ASSERT_EQ(scores.size(), serial.scores.size());
  double score_gap = 0.0;
  for (size_t i = 0; i < scores.size(); ++i) {
    score_gap += std::abs(serial.scores[i] - scores[i]);
  }
  EXPECT_LT(score_gap / static_cast<double>(scores.size()), 1e-3);

  for (graph::NodeId v = 0; v < f.config.num_nodes; ++v) {
    // Stitch: v's mail lives in its owner shard's store. The ring
    // sequence per node is identical to the monolithic mailbox, so even
    // the raw storage order matches slot for slot.
    const core::NodeStateStore& store =
        engine.state_store(engine.router().ShardOf(v));
    const int64_t count = reference.mailbox().ValidCount(v);
    ASSERT_EQ(count, store.ValidCount(v)) << "node " << v;
    for (int64_t slot = 0; slot < count; ++slot) {
      const auto a = reference.mailbox().RawSlot(v, slot);
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
  const SerialRun serial = RunSerial(f.config, f.dataset, 9, 200, 50);
  ShardedEngine::Options options;
  options.num_shards = 4;
  ShardedEngine engine(&drained, options);
  for (size_t lo = 0; lo < 200; lo += 50) {
    ASSERT_TRUE(engine.InferBatch(f.BatchEvents(lo, lo + 50)).ok());
  }
  engine.Shutdown();  // no Flush first
  // The stores outlive Shutdown (they die with the engine), so drained
  // state is still inspectable here.
  ExpectStitchedMailboxEqual(engine, *serial.model, f.config.num_nodes,
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
  // capacity = 0 must behave like capacity = 1, not wedge kBlock
  // back-pressure forever.
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

TEST(ShardedEngineTest, RejectsInvalidEventsWithoutSideEffects) {
  // Caller events are validated before the synchronous link runs: a batch
  // with an endpoint outside [0, num_nodes), an edge id without a feature
  // row, a NaN timestamp or a timestamp older than one already accepted is
  // refused whole, and the engine carries on as if it had never been sent.
  Fixture f;
  const SerialRun serial = RunSerial(f.config, f.dataset, 7, 150, 50);
  core::ApanModel model(f.config, &f.dataset.features, 7);
  ShardedEngine::Options options;
  options.num_shards = 4;
  ShardedEngine engine(&model, options);
  ASSERT_TRUE(engine.InferBatch(f.BatchEvents(0, 50)).ok());
  engine.Flush();
  const ShardedEngine::Stats before = engine.stats();
  const uint64_t sync_before = engine.sync_latency().count();

  for (const graph::NodeId bad : {graph::NodeId{-1}, f.config.num_nodes}) {
    std::vector<graph::Event> events = f.BatchEvents(50, 100);
    events[10].dst = bad;
    EXPECT_TRUE(engine.InferBatch(events).status().IsInvalidArgument())
        << "dst " << bad;
    events = f.BatchEvents(50, 100);
    events[0].src = bad;
    EXPECT_TRUE(engine.InferBatch(events).status().IsInvalidArgument())
        << "src " << bad;
  }
  // An edge id outside the feature rows would abort a worker's φ after
  // the scores had gone back.
  const graph::EdgeId num_edges = f.dataset.features.num_edges();
  for (const graph::EdgeId bad : {graph::EdgeId{-1}, num_edges,
                                  num_edges + 5}) {
    std::vector<graph::Event> events = f.BatchEvents(50, 100);
    events[25].edge_id = bad;
    EXPECT_TRUE(engine.InferBatch(events).status().IsInvalidArgument())
        << "edge id " << bad;
  }
  // A NaN timestamp compares false against everything; accepted, it would
  // switch the order check off for the rest of the stream.
  std::vector<graph::Event> nan_last = f.BatchEvents(50, 100);
  nan_last.back().timestamp = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(engine.InferBatch(nan_last).status().IsInvalidArgument());
  // Older than the last accepted event (batch 0's last).
  std::vector<graph::Event> stale = f.BatchEvents(50, 100);
  stale[0].timestamp = std::nextafter(f.dataset.events[49].timestamp,
                                      -std::numeric_limits<double>::infinity());
  EXPECT_EQ(engine.InferBatch(stale).status().code(),
            StatusCode::kFailedPrecondition);
  // Decreasing within the batch, though every event is newer than the
  // last accepted one.
  std::vector<graph::Event> unsorted = f.BatchEvents(50, 100);
  unsorted[40].timestamp = unsorted[41].timestamp + 1.0;
  ASSERT_GT(unsorted[41].timestamp, f.dataset.events[49].timestamp);
  EXPECT_EQ(engine.InferBatch(unsorted).status().code(),
            StatusCode::kFailedPrecondition);

  engine.Flush();
  const ShardedEngine::Stats after = engine.stats();
  EXPECT_EQ(after.batches_ingested, before.batches_ingested);
  EXPECT_EQ(after.batches_propagated, before.batches_propagated);
  EXPECT_EQ(after.batches_rejected, before.batches_rejected);
  EXPECT_EQ(after.mails_routed, before.mails_routed);
  EXPECT_EQ(after.mails_cross_shard, before.mails_cross_shard);
  EXPECT_EQ(after.mails_dropped, before.mails_dropped);
  EXPECT_EQ(after.duplicates_dropped, before.duplicates_dropped);
  EXPECT_EQ(after.events_shed, before.events_shed);
  EXPECT_EQ(after.sends_shed, before.sends_shed);
  EXPECT_EQ(engine.sync_latency().count(), sync_before);
  EXPECT_EQ(engine.replica(0).num_events(), 50);

  // The stream resumes where it stood and still lands on the oracle.
  ASSERT_TRUE(engine.InferBatch(f.BatchEvents(50, 100)).ok());
  ASSERT_TRUE(engine.InferBatch(f.BatchEvents(100, 150)).ok());
  engine.Flush();
  ExpectStitchedMailboxEqual(engine, *serial.model, f.config.num_nodes);
  EXPECT_EQ(engine.stats().batches_propagated, 3);
}

}  // namespace
}  // namespace serve
}  // namespace apan
