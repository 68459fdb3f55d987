#include "serve/sharded_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <limits>
#include <thread>

#include "data/synthetic.h"
#include "graph/node_partition.h"
#include "serve_state_util.h"

namespace apan {
namespace serve {
namespace {

using testutil::ExpectModelStateUntouched;
using testutil::ExpectScoresBitwise;
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
}

// The tentpole determinism claim: cross-shard mail arrives out of order by
// construction, yet after Flush() the engine's per-shard stores, stitched
// by ownership, hold mailbox timestamps and counts bitwise-identical to
// the serial ApanModel path on the same stream (each owner delivers its
// endpoints' hop-0 mail in event order, and runs ρ over the whole batch
// once every home shard's hop list is in). The serial oracle and the
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
  // With a flush between batches (every encode sees settled state, as the
  // serial path's always does) scores, mail payloads and z(t−) rows are
  // all bitwise the oracle's — here with no transport in the way at all.
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
  ExpectScoresBitwise(scores, serial.scores);
  ExpectStitchedStateBitwise(engine, *serial.model, f.config.num_nodes);
  EXPECT_EQ(engine.stats().mails_cross_shard, 0);
}

// The partition decides which shard sums ρ for a node, never the order
// of the sum: each owner runs the serial kernel over the batch's hop
// lists in event order. So a flush-stepped run (encodes see settled
// state) is bitwise the serial oracle — scores, mail payload bytes and
// z(t−) rows — at 1, 2 and 4 shards, under hash and locality partitions,
// at 1 and 2 hops (hop-2 frontiers land on third shards), over both real
// transports.
TEST(ShardedEngineTest, FlushSteppedStateIsBitwiseUnderEveryPartition) {
  const size_t events = 300, batch = 50;
  for (const int32_t hops : {1, 2}) {
    Fixture f;
    f.config.propagation_hops = hops;
    const SerialRun serial = RunSerial(f.config, f.dataset, 5, events, batch);
    for (const TransportKind kind :
         {TransportKind::kInProcess, TransportKind::kUnixSocket}) {
      if (kind == TransportKind::kUnixSocket &&
          !UnixSocketTransport::Available()) {
        continue;
      }
      for (const int shards : {1, 2, 4}) {
        for (const bool locality : {false, true}) {
          const bool uds = kind == TransportKind::kUnixSocket;
          SCOPED_TRACE(testing::Message()
                       << (uds ? "uds" : "inproc") << " x" << shards
                       << (locality ? " locality " : " hash ") << hops
                       << " hops");
          core::ApanModel model(f.config, &f.dataset.features, 5);
          ShardedEngine::Options options;
          options.num_shards = shards;
          options.transport = MakeTransportFactory(kind);
          if (locality) {
            options.partition = graph::NodePartition::BuildLocality(
                f.config.num_nodes, shards,
                std::span<const graph::Event>(f.dataset.events.data(),
                                              events));
          }
          ShardedEngine engine(&model, options);
          std::vector<float> scores;
          for (size_t lo = 0; lo < events; lo += batch) {
            auto result = engine.InferBatch(f.BatchEvents(lo, lo + batch));
            ASSERT_TRUE(result.ok()) << result.status();
            scores.insert(scores.end(), result->scores.begin(),
                          result->scores.end());
            engine.Flush();
          }
          if (shards > 1) EXPECT_GT(engine.stats().mails_cross_shard, 0);
          ExpectScoresBitwise(scores, serial.scores);
          ExpectStitchedStateBitwise(engine, *serial.model,
                                     f.config.num_nodes);
        }
      }
    }
  }
}

TEST(ShardedEngineTest, FlushSteppedPayloadsAndScoresTrackSerial) {
  // With a flush between batches the engine encodes from fully-settled
  // state, as the serial path always does, and sums ρ in the serial
  // order, so scores and every raw mailbox slot equal the oracle's
  // bitwise.
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
  ExpectScoresBitwise(scores, serial.scores);

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
      ASSERT_EQ(a.size(), b.size());
      ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
          << "node " << v << " slot " << slot;
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
  // row, a non-finite timestamp or a timestamp older than one already
  // accepted is refused whole, and the engine carries on as if it had
  // never been sent.
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
  // Accepted, a NaN timestamp (false against everything) would switch the
  // order check off for the rest of the stream, +∞ would refuse every
  // later batch, and −∞ would age mail by +∞.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), inf,
                           -inf}) {
    for (const size_t at : {size_t{0}, size_t{49}}) {
      std::vector<graph::Event> events = f.BatchEvents(50, 100);
      events[at].timestamp = bad;
      EXPECT_TRUE(engine.InferBatch(events).status().IsInvalidArgument())
          << "timestamp " << bad << " at " << at;
    }
  }
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

// ---- Thread budget -------------------------------------------------------

/// Threads of this process, or -1 where /proc/self/task is absent.
int64_t CountThreads() {
  std::error_code error;
  std::filesystem::directory_iterator it("/proc/self/task", error);
  if (error) return -1;
  int64_t count = 0;
  for (; it != std::filesystem::directory_iterator(); it.increment(error)) {
    if (error) return -1;
    ++count;
  }
  return count;
}

TEST(ShardedEngineTest, RunsTwoShardsMinusOneThreadsAndJoinsThemAll) {
  // N shard workers plus an encode pool of N − 1: the caller encodes one
  // slice itself, so one shard starts no pool thread. Destruction joins
  // every one.
  if (CountThreads() < 0) GTEST_SKIP() << "/proc/self/task is unavailable";
  Fixture f;
  core::ApanModel model(f.config, &f.dataset.features, 3);
  for (const int shards : {1, 2, 4}) {
    const int64_t before = CountThreads();
    {
      ShardedEngine::Options options;
      options.num_shards = shards;
      ShardedEngine engine(&model, options);
      ASSERT_TRUE(engine.InferBatch(f.BatchEvents(0, 50)).ok());
      engine.Flush();
      EXPECT_EQ(CountThreads() - before, 2 * shards - 1)
          << shards << " shards";
    }
    // A joined thread's task entry can outlive the join by a moment.
    for (int i = 0; i < 1000 && CountThreads() != before; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(CountThreads(), before) << shards << " shards";
  }
}

}  // namespace
}  // namespace serve
}  // namespace apan
