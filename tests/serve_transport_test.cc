// Determinism of the sharded engine over real transports and under
// injected faults: the final mailbox state must stay bitwise-equal to the
// serial ApanModel path when every cross-shard message crosses a
// Unix-domain socket, and when a FaultyTransport delays and reorders
// messages under a seeded RNG — per-batch reassembly absorbs reordering.
// The transport contract is exactly-once: a re-delivered message aborts
// the engine instead of being dropped.

#include "serve/transport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "data/synthetic.h"
#include "graph/node_partition.h"
#include "serve/sharded_engine.h"
#include "serve_state_util.h"

namespace apan {
namespace serve {
namespace {

using testutil::ExpectStitchedMailboxEqual;
using testutil::FaultyFactory;
using testutil::RunSerial;

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

struct ShardedRun {
  // Declaration order matters: the engine reads the model's weights and
  // holds the served state, so it must be destroyed first (it is — members
  // destruct in reverse order).
  std::unique_ptr<core::ApanModel> model;
  std::unique_ptr<ShardedEngine> engine;  ///< Kept alive: owns the stores.
  ShardedEngine::Stats stats;
};

/// The engine over `factory`'s transport, free-running (no flush between
/// batches, so reordering genuinely interleaves in flight).
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

// ---- Clean transports reproduce the serial path ----------------------------

TEST(TransportTest, InProcessTransportMatchesSerialBitwise) {
  Fixture f;
  const auto reference = RunSerial(f.config, f.dataset, 7, 400, 50).model;
  const auto run =
      RunSharded(f, MakeTransportFactory(TransportKind::kInProcess), 400, 50);
  ExpectStitchedMailboxEqual(*run.engine, *reference, f.config.num_nodes);
}

TEST(TransportTest, UnixSocketMatchesSerialBitwiseOneHop) {
  if (!UnixSocketTransport::Available()) {
    GTEST_SKIP() << "AF_UNIX unavailable on this platform";
  }
  Fixture f;
  const auto reference = RunSerial(f.config, f.dataset, 7, 400, 50).model;
  const auto run =
      RunSharded(f, MakeTransportFactory(TransportKind::kUnixSocket), 400, 50);
  ExpectStitchedMailboxEqual(*run.engine, *reference, f.config.num_nodes);
  EXPECT_GT(run.stats.mails_cross_shard, 0);
}

TEST(TransportTest, UnixSocketMatchesSerialBitwiseTwoHops) {
  if (!UnixSocketTransport::Available()) {
    GTEST_SKIP() << "AF_UNIX unavailable on this platform";
  }
  Fixture f;
  f.config.propagation_hops = 2;  // fan-out crossing every shard boundary
  const auto reference = RunSerial(f.config, f.dataset, 7, 300, 50).model;
  const auto run =
      RunSharded(f, MakeTransportFactory(TransportKind::kUnixSocket), 300, 50);
  ExpectStitchedMailboxEqual(*run.engine, *reference, f.config.num_nodes);
  EXPECT_GT(run.stats.mails_cross_shard, 0);
}

// ---- Fault-injection determinism soak --------------------------------------
// delay + reorder under 10 RNG seeds per (transport, hops)
// combination — 20 seeds per hop count, 20 per transport. Every run must
// land bitwise on the serial mailbox.

void FaultySoak(int32_t hops, TransportKind inner, uint64_t seed_base,
                int num_shards = 4, bool locality_partition = false) {
  if (inner == TransportKind::kUnixSocket &&
      !UnixSocketTransport::Available()) {
    GTEST_SKIP() << "AF_UNIX unavailable on this platform";
  }
  Fixture f;
  f.config.propagation_hops = hops;
  const size_t events = 120, batch = 40;
  const auto reference = RunSerial(f.config, f.dataset, 7, events, batch).model;
  std::shared_ptr<const graph::NodePartition> partition;
  if (locality_partition) {
    partition = graph::NodePartition::BuildLocality(
        f.config.num_nodes, num_shards,
        std::span<const graph::Event>(f.dataset.events.data(), events));
  }
  for (uint64_t seed = seed_base; seed < seed_base + 10; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const auto run = RunSharded(f, FaultyFactory(inner, seed), events, batch,
                                /*shutdown_without_flush=*/false, num_shards,
                                partition);
    ExpectStitchedMailboxEqual(*run.engine, *reference, f.config.num_nodes);
  }
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

// ---- Exactly-once contract -------------------------------------------------

// In-process delivery that hands the first partial it is given to the
// handler twice: a transport that breaks the exactly-once contract.
class DuplicatingTransport : public Transport {
 public:
  Status Start(int num_shards, Handler handler) override {
    return inner_.Start(num_shards, std::move(handler));
  }
  Status Send(int from_shard, int to_shard, ShardPartial message) override {
    if (!duplicated_.exchange(true)) {
      APAN_RETURN_NOT_OK(inner_.Send(from_shard, to_shard, message));
    }
    return inner_.Send(from_shard, to_shard, std::move(message));
  }
  void Stop() override { inner_.Stop(); }
  const char* name() const override { return "duplicating"; }

 private:
  InProcessTransport inner_;
  std::atomic<bool> duplicated_{false};
};

TEST(TransportContractDeathTest, ReDeliveredPartialAborts) {
  // Workers are threads: re-execute the binary for the death test
  // instead of forking a multi-threaded process.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Fixture f;
  EXPECT_DEATH(
      {
        static_cast<void>(RunSharded(
            f, [] { return std::make_unique<DuplicatingTransport>(); }, 200,
            50, /*shutdown_without_flush=*/false, /*num_shards=*/2));
      },
      "re-delivered a ShardPartial");
}

// ---- Partition independence ------------------------------------------------
// Determinism must not depend on WHERE nodes live: any disjoint ownership
// map yields the same stitched mailbox, because every owner walks each
// batch in event order, whoever owns which node. The suite re-runs bitwise
// equality and the fault soak under the locality-aware partitioner at
// 2, 4, and 8 shards over both real transports.

void LocalityMatchesSerial(TransportKind kind) {
  if (kind == TransportKind::kUnixSocket &&
      !UnixSocketTransport::Available()) {
    GTEST_SKIP() << "AF_UNIX unavailable on this platform";
  }
  Fixture f;
  const size_t events = 400, batch = 50;
  const auto reference = RunSerial(f.config, f.dataset, 7, events, batch).model;
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

TEST(TransportPartitionTest, LocalityMatchesSerialInProcess) {
  LocalityMatchesSerial(TransportKind::kInProcess);
}

TEST(TransportPartitionTest, LocalityMatchesSerialUnixSocket) {
  LocalityMatchesSerial(TransportKind::kUnixSocket);
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
  const auto reference = RunSerial(f.config, f.dataset, 7, 300, 50).model;
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
  const auto reference = RunSerial(f.config, f.dataset, 7, 300, 50).model;
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
  // 3 shards have 3 × 2 = 6 lanes: every ordered pair of distinct shards.
  // A self-send is refused, not delivered — there is no self-lane.
  for (int from = 0; from < 3; ++from) {
    for (int to = 0; to < 3; ++to) {
      ShardPartial partial;
      partial.batch = from * 3 + to;
      partial.from_shard = from;
      const Status sent = uds.Send(from, to, std::move(partial));
      if (from == to) {
        EXPECT_EQ(sent.code(), StatusCode::kInvalidArgument) << from;
      } else {
        ASSERT_TRUE(sent.ok()) << sent;
      }
    }
  }
  uds.Stop();  // drains every accepted frame before returning
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(received.size(), 6u);
  int64_t batch_sum = 0;
  for (const auto& [to, batch] : received) {
    EXPECT_EQ(batch % 3, to);  // delivered to the lane's receiver
    EXPECT_NE(batch / 3, to);  // never on a self-lane
    batch_sum += batch;
  }
  EXPECT_EQ(batch_sum, 36 - (0 + 4 + 8));  // the 6 cross lanes, once each
}

TEST(TransportTest, SelfSendRefusedByEveryTransport) {
  std::vector<std::unique_ptr<Transport>> transports;
  transports.push_back(std::make_unique<InProcessTransport>());
  transports.push_back(std::make_unique<FaultyTransport>(
      std::make_unique<InProcessTransport>(), FaultyTransport::Options{}));
  if (UnixSocketTransport::Available()) {
    transports.push_back(std::make_unique<UnixSocketTransport>());
  }
  for (auto& transport : transports) {
    SCOPED_TRACE(transport->name());
    std::atomic<int> delivered{0};
    ASSERT_TRUE(
        transport->Start(2, [&delivered](int, ShardPartial) { ++delivered; })
            .ok());
    EXPECT_EQ(transport->Send(1, 1, ShardPartial{}).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(transport->Send(0, 2, ShardPartial{}).code(),
              StatusCode::kInvalidArgument);
    ASSERT_TRUE(transport->Send(0, 1, ShardPartial{}).ok());
    transport->Stop();
    EXPECT_EQ(delivered, 1);
  }
}

TEST(TransportTest, ParseTransportKindNames) {
  EXPECT_EQ(*ParseTransportKind("inproc"), TransportKind::kInProcess);
  EXPECT_EQ(*ParseTransportKind("uds"), TransportKind::kUnixSocket);
  EXPECT_FALSE(ParseTransportKind("tcp").ok());
}

}  // namespace
}  // namespace serve
}  // namespace apan
