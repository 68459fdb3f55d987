// The recovery plane: an engine killed mid-stream and rejoined from its
// recovery point (one image per shard) replays the event tail and lands
// bitwise on the mailbox of a run that never crashed — under clean
// transports AND under FaultyTransport delay/reorder faults, into a fresh
// engine or into one that already ingested past the checkpoint. A
// recovery point is one point: a set that mixes images of two points, or
// a snapshot taken while a shard is down, is refused, and a snapshot that
// fails part-way keeps the previous point. A UDS lane whose peer dies
// marks the peer down for later batches instead of crashing the engine
// (the batches it already accepted still merge there), and a shard
// administratively marked down degrades gracefully: its traffic is shed
// and counted while healthy shards keep serving, until ResetState or
// Restore — which rebuild dead lanes — brings it back. A seeded
// differential fuzz draws the deployment
// and the snapshot point and checks the restored run against the serial
// oracle bitwise: scores, mail payloads and z(t−) rows.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "serve/sharded_engine.h"
#include "serve/snapshot.h"
#include "serve/transport.h"
#include "serve_state_util.h"
#include "util/status.h"

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

struct EngineRun {
  // Declaration order matters: the engine reads the model's weights and
  // holds the served state, so it must be destroyed first.
  std::unique_ptr<core::ApanModel> model;
  std::unique_ptr<ShardedEngine> engine;
};

EngineRun MakeEngine(
    const Fixture& f, TransportFactory factory, int num_shards = 4,
    std::shared_ptr<const graph::NodePartition> partition = nullptr) {
  EngineRun run;
  run.model = std::make_unique<core::ApanModel>(f.config,
                                                &f.dataset.features, 7);
  ShardedEngine::Options options;
  options.num_shards = num_shards;
  options.partition = std::move(partition);
  options.transport = std::move(factory);
  run.engine = std::make_unique<ShardedEngine>(run.model.get(), options);
  return run;
}

void Stream(const Fixture& f, ShardedEngine& engine, size_t lo, size_t hi,
            size_t batch) {
  for (size_t at = lo; at + batch <= hi; at += batch) {
    ASSERT_TRUE(engine.InferBatch(f.BatchEvents(at, at + batch)).ok());
  }
}

/// A fresh, empty snapshot directory per (tag, seed).
std::string SnapDir(const std::string& tag, uint64_t seed) {
  const std::string dir = testing::TempDir() + "/rejoin_" + tag + "_" +
                          std::to_string(seed);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Flushes on a helper thread and waits up to 30 s for it. A wedged Flush
/// never returns, and the engine's destructor would Flush again: on a
/// timeout the engine (and the model it reads) leak with the flusher
/// still blocked on it, so the caller fails instead of hanging the suite.
bool FlushReturns(EngineRun& run) {
  ShardedEngine* engine = run.engine.get();
  auto flushed = std::make_shared<std::promise<void>>();
  std::future<void> done = flushed->get_future();
  std::thread flusher([engine, flushed] {
    engine->Flush();
    flushed->set_value();
  });
  if (done.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
    static_cast<void>(run.engine.release());
    static_cast<void>(run.model.release());
    flusher.detach();
    return false;
  }
  flusher.join();
  return true;
}

// ---- Kill-and-rejoin soak --------------------------------------------------
// Engine A ingests the head of the stream under injected faults, is
// checkpointed at a flushed boundary, and dies (destroyed outright — the
// snapshot files are all that survive). A brand-new engine B, with its
// own faulty transport on a different seed, restores every shard and
// replays the tail. Its stitched mailbox must be bitwise identical to a
// serial run that saw the whole stream and never crashed.

void KillAndRejoinSoak(int32_t hops, TransportKind inner,
                       const std::string& tag, uint64_t seed_base) {
  if (inner == TransportKind::kUnixSocket &&
      !UnixSocketTransport::Available()) {
    GTEST_SKIP() << "AF_UNIX unavailable on this platform";
  }
  Fixture f;
  f.config.propagation_hops = hops;
  const size_t events = 160, cut = 80, batch = 40;
  const int num_shards = 4;
  const auto reference = RunSerial(f.config, f.dataset, 7, events, batch).model;
  for (uint64_t seed = seed_base; seed < seed_base + 10; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const std::string dir = SnapDir(tag, seed);
    {
      auto before = MakeEngine(f, FaultyFactory(inner, seed), num_shards);
      Stream(f, *before.engine, 0, cut, batch);
      before.engine->Flush();
      ASSERT_TRUE(before.engine->Snapshot(dir).ok());
      // The "crash": engine A is torn down; only the files remain.
    }
    auto after = MakeEngine(f, FaultyFactory(inner, seed + 5000), num_shards);
    ASSERT_TRUE(after.engine->Restore(dir).ok());
    Stream(f, *after.engine, cut, events, batch);
    after.engine->Flush();
    ExpectStitchedMailboxEqual(*after.engine, *reference, f.config.num_nodes);
  }
}

TEST(KillAndRejoinSoakTest, OneHopInProcess) {
  KillAndRejoinSoak(1, TransportKind::kInProcess, "ip1", 0);
}

TEST(KillAndRejoinSoakTest, OneHopUnixSocket) {
  KillAndRejoinSoak(1, TransportKind::kUnixSocket, "uds1", 100);
}

TEST(KillAndRejoinSoakTest, TwoHopsInProcess) {
  KillAndRejoinSoak(2, TransportKind::kInProcess, "ip2", 200);
}

TEST(KillAndRejoinSoakTest, TwoHopsUnixSocket) {
  KillAndRejoinSoak(2, TransportKind::kUnixSocket, "uds2", 300);
}

// ---- Differential fuzz -----------------------------------------------------
// Each seed draws a deployment — N in 1..4, the hash or locality partition,
// 1 or 2 hops, the batch size, the transport (inproc, uds, or faulty over
// either) — and one snapshot point. Engine A serves the head flush-stepped
// and is checkpointed there; a fresh engine B, on its own transport,
// restores every shard and serves the tail. Every score A and B returned,
// and B's stitched mail payload bytes and z(t−) rows, must equal the
// serial oracle's bitwise.

void StreamScored(const Fixture& f, ShardedEngine& engine, size_t lo,
                  size_t hi, size_t batch, std::vector<float>* scores) {
  for (size_t at = lo; at + batch <= hi; at += batch) {
    auto result = engine.InferBatch(f.BatchEvents(at, at + batch));
    ASSERT_TRUE(result.ok()) << result.status();
    scores->insert(scores->end(), result->scores.begin(),
                   result->scores.end());
    engine.Flush();
  }
}

TEST(DifferentialFuzzTest, RestoredTailMatchesSerialBitwise) {
  Fixture f;
  const bool uds = UnixSocketTransport::Available();
  for (uint64_t seed = 0; seed < 48; ++seed) {
    Rng rng(0xD1FF + seed);
    const int shards = 1 + static_cast<int>(rng.UniformInt(uint64_t{4}));
    const bool locality = rng.Bernoulli(0.5);
    f.config.propagation_hops = 1 + static_cast<int32_t>(rng.UniformInt(2));
    const size_t batch = 10 * (1 + rng.UniformInt(uint64_t{5}));
    const size_t batches = 3 + rng.UniformInt(uint64_t{5});
    const size_t events = batch * batches;
    const size_t cut = batch * (1 + rng.UniformInt(uint64_t{batches - 1}));
    const TransportKind inner = uds && rng.Bernoulli(0.5)
                                    ? TransportKind::kUnixSocket
                                    : TransportKind::kInProcess;
    const bool faulty = rng.Bernoulli(0.5);
    SCOPED_TRACE(testing::Message()
                 << "seed " << seed << ": x" << shards
                 << (locality ? " locality " : " hash ")
                 << f.config.propagation_hops << " hops, " << batches
                 << " batches of " << batch << ", snapshot after " << cut
                 << (faulty ? ", faulty " : ", ")
                 << (inner == TransportKind::kUnixSocket ? "uds" : "inproc"));
    const auto transport = [&](uint64_t salt) {
      return faulty ? FaultyFactory(inner, seed + salt)
                    : MakeTransportFactory(inner);
    };
    const auto partition =
        locality ? graph::NodePartition::BuildLocality(
                       f.config.num_nodes, shards,
                       std::span<const graph::Event>(f.dataset.events.data(),
                                                     events))
                 : nullptr;
    const testutil::SerialRun serial =
        RunSerial(f.config, f.dataset, 7, events, batch);
    std::vector<float> scores;
    const std::string dir = SnapDir("fuzz", seed);
    {
      auto before = MakeEngine(f, transport(0), shards, partition);
      StreamScored(f, *before.engine, 0, cut, batch, &scores);
      ASSERT_TRUE(before.engine->Snapshot(dir).ok());
    }
    auto after = MakeEngine(f, transport(5000), shards, partition);
    ASSERT_TRUE(after.engine->Restore(dir).ok());
    StreamScored(f, *after.engine, cut, events, batch, &scores);
    testutil::ExpectScoresBitwise(scores, serial.scores);
    testutil::ExpectStitchedStateBitwise(*after.engine, *serial.model,
                                         f.config.num_nodes);
  }
}

// ---- Restore guards --------------------------------------------------------

TEST(RestoreGuardTest, RestoreRejectsWrongShardAndMissingFile) {
  Fixture f;
  auto run = MakeEngine(f, MakeTransportFactory(TransportKind::kInProcess));
  Stream(f, *run.engine, 0, 80, 40);
  run.engine->Flush();
  const std::string dir = SnapDir("guard", 0);
  ASSERT_TRUE(run.engine->Snapshot(dir).ok());
  // Shard 0's image in shard 1's file: the set no longer holds each shard
  // exactly once, and the identity check must refuse before any state is
  // touched.
  std::filesystem::copy_file(snapshot::ShardPath(dir, 0),
                             snapshot::ShardPath(dir, 1),
                             std::filesystem::copy_options::overwrite_existing);
  const Status swapped = run.engine->Restore(dir);
  EXPECT_EQ(swapped.code(), StatusCode::kInvalidArgument) << swapped;
  // A set with a shard's file missing.
  std::filesystem::remove(snapshot::ShardPath(dir, 1));
  EXPECT_EQ(run.engine->Restore(dir).code(), StatusCode::kIoError);
  const Status missing =
      run.engine->Restore(testing::TempDir() + "/no_such_snapshot_dir");
  EXPECT_EQ(missing.code(), StatusCode::kIoError) << missing;
  // And the engine is still intact: the refused restores changed nothing.
  const auto reference = RunSerial(f.config, f.dataset, 7, 80, 40).model;
  ExpectStitchedMailboxEqual(*run.engine, *reference, f.config.num_nodes);
}

TEST(RestoreGuardTest, RestoreRejectsImageFromAnotherPartition) {
  // Two partitions that give each shard as many nodes, but not the same
  // nodes: nodes 0 and 1 trade shards. Rows restore by local position,
  // so an image set from one must not restore under the other.
  Fixture f;
  const int64_t n = f.config.num_nodes;
  const auto by_parity = graph::NodePartition::Build(
      n, 2, [](graph::NodeId v) { return static_cast<int>(v % 2); });
  const auto swapped = graph::NodePartition::Build(n, 2, [](graph::NodeId v) {
    return static_cast<int>(v < 2 ? (v + 1) % 2 : v % 2);
  });
  ASSERT_EQ(by_parity->owned_count, swapped->owned_count);
  const std::string dir = SnapDir("partition", 0);
  {
    auto before = MakeEngine(f, MakeTransportFactory(TransportKind::kInProcess),
                             2, by_parity);
    Stream(f, *before.engine, 0, 80, 40);
    before.engine->Flush();
    ASSERT_TRUE(before.engine->Snapshot(dir).ok());
  }
  auto run = MakeEngine(f, MakeTransportFactory(TransportKind::kInProcess), 2,
                        swapped);
  Stream(f, *run.engine, 0, 80, 40);
  run.engine->Flush();
  const Status restored = run.engine->Restore(dir);
  EXPECT_EQ(restored.code(), StatusCode::kInvalidArgument) << restored;
  // The refused restore changed nothing.
  const auto reference = RunSerial(f.config, f.dataset, 7, 80, 40).model;
  ExpectStitchedMailboxEqual(*run.engine, *reference, f.config.num_nodes);
}

TEST(RestoreGuardTest, SnapshotToUnwritablePathFailsCleanly) {
  Fixture f;
  auto run = MakeEngine(f, MakeTransportFactory(TransportKind::kInProcess));
  Stream(f, *run.engine, 0, 40, 40);
  run.engine->Flush();
  EXPECT_FALSE(run.engine->Snapshot("/nonexistent-dir-for-apan-test").ok());
  // The failed write must not wedge the flush barrier.
  run.engine->Flush();
  Stream(f, *run.engine, 40, 80, 40);
  run.engine->Flush();
}

// ---- One recovery point ----------------------------------------------------

TEST(RecoveryPointTest, SnapshotRefusesWhileAShardIsDown) {
  // A down shard missed batches, so the engine has no consistent point to
  // capture; the refusal comes before any file is written.
  Fixture f;
  auto run = MakeEngine(f, MakeTransportFactory(TransportKind::kInProcess));
  Stream(f, *run.engine, 0, 80, 40);
  run.engine->MarkShardDown(2);
  Stream(f, *run.engine, 80, 120, 40);
  const std::string dir = SnapDir("down", 0);
  const Status refused = run.engine->Snapshot(dir);
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition) << refused;
  EXPECT_FALSE(std::filesystem::exists(snapshot::ShardPath(dir, 0)));
  ASSERT_TRUE(FlushReturns(run));
  // A resync makes a point again.
  run.engine->ResetState();
  Stream(f, *run.engine, 0, 80, 40);
  EXPECT_TRUE(run.engine->Snapshot(dir).ok());
}

TEST(RecoveryPointTest, MixedPointSetIsRefusedAndChangesNothing) {
  // Shard 1's image from an earlier point, beside the other shards' images
  // of a later one: Restore must refuse the set whole, and the engine
  // must keep serving from where it stood.
  Fixture f;
  const size_t events = 200, batch = 40;
  const testutil::SerialRun serial =
      RunSerial(f.config, f.dataset, 7, events, batch);
  auto run = MakeEngine(f, MakeTransportFactory(TransportKind::kInProcess));
  std::vector<float> scores;
  StreamScored(f, *run.engine, 0, 80, batch, &scores);
  const std::string early = SnapDir("mixed_early", 0);
  ASSERT_TRUE(run.engine->Snapshot(early).ok());
  StreamScored(f, *run.engine, 80, 160, batch, &scores);
  const std::string mixed = SnapDir("mixed", 0);
  ASSERT_TRUE(run.engine->Snapshot(mixed).ok());
  std::filesystem::copy_file(snapshot::ShardPath(early, 1),
                             snapshot::ShardPath(mixed, 1),
                             std::filesystem::copy_options::overwrite_existing);
  const Status refused = run.engine->Restore(mixed);
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument) << refused;
  for (size_t at = 160; at + batch <= events; at += batch) {
    auto result = run.engine->InferBatch(f.BatchEvents(at, at + batch));
    ASSERT_TRUE(result.ok()) << result.status();
    scores.insert(scores.end(), result->scores.begin(), result->scores.end());
    ASSERT_TRUE(FlushReturns(run)) << "Flush did not return after batch "
                                   << at / batch;
  }
  testutil::ExpectScoresBitwise(scores, serial.scores);
  testutil::ExpectStitchedStateBitwise(*run.engine, *serial.model,
                                       f.config.num_nodes);
}

TEST(RecoveryPointTest, FailedSnapshotKeepsThePreviousPoint) {
  // Every image is staged and none renamed over its file until all N
  // writes succeeded, so a snapshot whose shard 2 write fails leaves the
  // directory's earlier point whole, and no staged file behind.
  Fixture f;
  const size_t events = 200, cut = 80, batch = 40;
  const int num_shards = 4;
  const testutil::SerialRun serial =
      RunSerial(f.config, f.dataset, 7, events, batch);
  auto run = MakeEngine(f, MakeTransportFactory(TransportKind::kInProcess),
                        num_shards);
  std::vector<float> scores;
  StreamScored(f, *run.engine, 0, cut, batch, &scores);
  const std::string dir = SnapDir("staged", 0);
  ASSERT_TRUE(run.engine->Snapshot(dir).ok());
  Stream(f, *run.engine, cut, cut + batch, batch);
  // A directory where shard 2's staged image is assembled fails its write.
  const auto staged = [&dir](int s) {
    return snapshot::ShardPath(dir, s) + ".staged";
  };
  ASSERT_TRUE(std::filesystem::create_directory(staged(2) + ".tmp"));
  const Status failed = run.engine->Snapshot(dir);
  EXPECT_EQ(failed.code(), StatusCode::kIoError) << failed;
  for (int s = 0; s < num_shards; ++s) {
    EXPECT_FALSE(std::filesystem::exists(staged(s))) << "shard " << s;
  }
  const Status restored = run.engine->Restore(dir);
  ASSERT_TRUE(restored.ok()) << restored;
  StreamScored(f, *run.engine, cut, events, batch, &scores);
  testutil::ExpectScoresBitwise(scores, serial.scores);
  testutil::ExpectStitchedStateBitwise(*run.engine, *serial.model,
                                       f.config.num_nodes);
}

// ---- Restore after ingest --------------------------------------------------
// An engine under injected faults serves the head flush-stepped, is
// checkpointed, and keeps serving past the checkpoint with frames in
// flight. Restoring every shard rewinds it in place; the replayed tail
// must land on the serial oracle bitwise: scores, mail payloads and
// z(t−) rows.

void RestoreAfterIngest(TransportKind inner, const std::string& tag,
                        uint64_t seed_base) {
  if (inner == TransportKind::kUnixSocket &&
      !UnixSocketTransport::Available()) {
    GTEST_SKIP() << "AF_UNIX unavailable on this platform";
  }
  Fixture f;
  const size_t events = 200, cut = 80, batch = 40;
  const int num_shards = 4;
  const testutil::SerialRun serial =
      RunSerial(f.config, f.dataset, 7, events, batch);
  for (uint64_t seed = seed_base; seed < seed_base + 5; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    auto run = MakeEngine(f, FaultyFactory(inner, seed), num_shards);
    std::vector<float> scores;
    StreamScored(f, *run.engine, 0, cut, batch, &scores);
    const std::string dir = SnapDir(tag, seed);
    ASSERT_TRUE(run.engine->Snapshot(dir).ok());
    Stream(f, *run.engine, cut, events, batch);  // rolled back below
    ASSERT_TRUE(run.engine->Restore(dir).ok());
    StreamScored(f, *run.engine, cut, events, batch, &scores);
    testutil::ExpectScoresBitwise(scores, serial.scores);
    testutil::ExpectStitchedStateBitwise(*run.engine, *serial.model,
                                         f.config.num_nodes);
  }
}

TEST(RestoreAfterIngestTest, FaultyInProcessLandsOnSerialBitwise) {
  RestoreAfterIngest(TransportKind::kInProcess, "reip", 0);
}

TEST(RestoreAfterIngestTest, FaultyUnixSocketLandsOnSerialBitwise) {
  RestoreAfterIngest(TransportKind::kUnixSocket, "reuds", 100);
}

// ---- Lane failure ----------------------------------------------------------

TEST(LaneRecoveryTest, KilledLanesMarkPeersDownAndFlushReturns) {
  // A dead lane is never rebuilt: the first write on it fails, the
  // engine marks the peer down and sheds, and Flush still returns.
  if (!UnixSocketTransport::Available()) {
    GTEST_SKIP() << "AF_UNIX unavailable on this platform";
  }
  Fixture f;
  UnixSocketTransport* raw = nullptr;
  TransportFactory factory = [&raw]() -> std::unique_ptr<Transport> {
    auto transport = std::make_unique<UnixSocketTransport>();
    raw = transport.get();
    return transport;
  };
  auto run = MakeEngine(f, std::move(factory));
  Stream(f, *run.engine, 0, 120, 40);
  run.engine->Flush();  // quiesce: no frame is mid-lane when the peer dies
  ASSERT_NE(raw, nullptr);
  ASSERT_TRUE(raw->KillLaneForTest(0, 1).ok());
  ASSERT_TRUE(raw->KillLaneForTest(2, 3).ok());
  Stream(f, *run.engine, 120, 240, 40);
  ShardedEngine* engine = run.engine.get();
  ASSERT_TRUE(FlushReturns(run))
      << "Flush did not return after two lanes died ("
      << engine->stats().batches_propagated << " of "
      << engine->stats().batches_ingested << " batches propagated)";
  const auto stats = engine->stats();
  EXPECT_EQ(stats.batches_ingested, 6);
  EXPECT_EQ(stats.batches_propagated, stats.batches_ingested);
  EXPECT_GT(stats.sends_shed, 0);
  // One failed write per dead lane: later partials to a down peer are
  // shed before they reach the transport.
  EXPECT_EQ(engine->registry()
                ->GetCounter("transport.send_failures", 4 * 4)
                ->Value(),
            2);
}

/// A uds factory that publishes each transport it builds, so a test can
/// kill a lane of the one the engine currently runs over.
TransportFactory ExposedUnixSocket(UnixSocketTransport** raw) {
  return [raw]() -> std::unique_ptr<Transport> {
    auto transport = std::make_unique<UnixSocketTransport>();
    *raw = transport.get();
    return transport;
  };
}

TEST(LaneRecoveryTest, BatchAcceptedBeforeLaneDeathMergesOnThePeer) {
  // Shard 1 was up when batch 3 was ingested, so it merges batch 3 even
  // though shard 0's list to it is lost: every z(t-) row batch 3 writes on
  // shard 1 is the serial oracle's.
  if (!UnixSocketTransport::Available()) {
    GTEST_SKIP() << "AF_UNIX unavailable on this platform";
  }
  Fixture f;
  const size_t batch = 40, events = 4 * batch;
  const testutil::SerialRun serial =
      RunSerial(f.config, f.dataset, 7, events, batch);
  UnixSocketTransport* raw = nullptr;
  auto run = MakeEngine(f, ExposedUnixSocket(&raw));
  std::vector<float> scores;
  StreamScored(f, *run.engine, 0, events - batch, batch, &scores);
  ASSERT_NE(raw, nullptr);
  ASSERT_TRUE(raw->KillLaneForTest(0, 1).ok());
  StreamScored(f, *run.engine, events - batch, events, batch, &scores);
  testutil::ExpectScoresBitwise(scores, serial.scores);
  EXPECT_EQ(run.engine->stats().batches_propagated, 4);
  EXPECT_GT(run.engine->stats().sends_shed, 0);
  const graph::NodePartition& router = run.engine->router();
  const core::NodeStateStore& store = run.engine->state_store(1);
  int64_t checked = 0;
  for (const graph::Event& e : f.BatchEvents(events - batch, events)) {
    for (const graph::NodeId v : {e.src, e.dst}) {
      if (router.ShardOf(v) != 1) continue;
      ++checked;
      const std::vector<float> z = store.LastEmbedding(v);
      const std::vector<float> want =
          serial.model->state_store().LastEmbedding(v);
      ASSERT_EQ(z.size(), want.size());
      ASSERT_EQ(std::memcmp(z.data(), want.data(), z.size() * sizeof(float)),
                0)
          << "z(t-) row of node " << v << " differs from the serial oracle's";
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(LaneRecoveryTest, ResyncAfterLaneDeathBringsEveryShardBack) {
  // A resync after a lane died rebuilds the lanes: the replay sheds
  // nothing more, a snapshot is possible again, and the replayed run is
  // the serial oracle's bitwise.
  if (!UnixSocketTransport::Available()) {
    GTEST_SKIP() << "AF_UNIX unavailable on this platform";
  }
  Fixture f;
  const size_t batch = 40, events = 240;
  const testutil::SerialRun serial =
      RunSerial(f.config, f.dataset, 7, events, batch);
  UnixSocketTransport* raw = nullptr;
  auto run = MakeEngine(f, ExposedUnixSocket(&raw));
  Stream(f, *run.engine, 0, 120, batch);
  run.engine->Flush();
  ASSERT_NE(raw, nullptr);
  ASSERT_TRUE(raw->KillLaneForTest(0, 1).ok());
  Stream(f, *run.engine, 120, events, batch);
  ASSERT_TRUE(FlushReturns(run));
  const int64_t shed = run.engine->stats().sends_shed;
  EXPECT_GT(shed, 0);
  run.engine->ResetState();
  std::vector<float> scores;
  StreamScored(f, *run.engine, 0, events, batch, &scores);
  EXPECT_EQ(run.engine->stats().sends_shed, shed);
  const std::string dir = SnapDir("resync", 0);
  const Status snapped = run.engine->Snapshot(dir);
  EXPECT_TRUE(snapped.ok()) << snapped;
  testutil::ExpectScoresBitwise(scores, serial.scores);
  testutil::ExpectStitchedStateBitwise(*run.engine, *serial.model,
                                       f.config.num_nodes);
}

// In-process delivery with one lane that dies at runtime: from its 4th
// send on, the 1 -> 0 lane returns IoError, as a socket lane does once its
// peer has died. Shard 0's sends to shard 1 are held until
// that lane has died, so shard 0 is still routing batches it accepted
// while up when the engine marks it down.
class DyingLaneTransport : public Transport {
 public:
  Status Start(int num_shards, Handler handler) override {
    return inner_.Start(num_shards, std::move(handler));
  }
  Status Send(int from_shard, int to_shard, ShardPartial message) override {
    if (from_shard == 1 && to_shard == 0) {
      // Only shard 1's worker sends on this lane: no lock for the count.
      if (++dying_lane_sends_ >= 4) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          lane_dead_ = true;
        }
        cv_.notify_all();
        return Status::IoError("lane 1 -> 0 is dead");
      }
    } else if (from_shard == 0 && to_shard == 1) {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return lane_dead_; });
    }
    return inner_.Send(from_shard, to_shard, std::move(message));
  }
  void Stop() override { inner_.Stop(); }
  const char* name() const override { return "dying-lane"; }
  void SetMetrics(const TransportMetrics& metrics) override {
    inner_.SetMetrics(metrics);
  }

 private:
  InProcessTransport inner_;
  int dying_lane_sends_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  bool lane_dead_ = false;
};

TEST(LaneRecoveryTest, RuntimeLaneFailureDoesNotWedgeFlush) {
  // The failed send marks shard 0 down while it still has jobs queued.
  // Its partials to the healthy shard must still be delivered: shard 1
  // counted shard 0 as a sender of every batch ingested before the
  // failure, and its in-order merge cursor waits for each of them.
  Fixture f;
  auto run = MakeEngine(
      f, [] { return std::make_unique<DyingLaneTransport>(); },
      /*num_shards=*/2);
  Stream(f, *run.engine, 0, 18 * 40, 40);
  ShardedEngine* engine = run.engine.get();
  ASSERT_TRUE(FlushReturns(run))
      << "Flush did not return after a runtime lane failure ("
      << engine->stats().batches_propagated << " of "
      << engine->stats().batches_ingested << " batches propagated)";
  const auto stats = engine->stats();
  EXPECT_EQ(stats.batches_ingested, 18);
  EXPECT_EQ(stats.batches_propagated, stats.batches_ingested);
  EXPECT_GT(stats.sends_shed, 0);
}

// ---- Graceful degradation --------------------------------------------------

TEST(DegradationTest, DownShardShedsWithoutBlockingThenRecoversByReset) {
  Fixture f;
  const size_t events = 200, batch = 40;
  const auto reference = RunSerial(f.config, f.dataset, 7, events, batch).model;
  auto run = MakeEngine(f, MakeTransportFactory(TransportKind::kInProcess));
  Stream(f, *run.engine, 0, 80, batch);
  run.engine->Flush();
  run.engine->MarkShardDown(3);
  // Healthy shards must keep accepting and flushing while shard 3's
  // traffic is shed.
  Stream(f, *run.engine, 80, events, batch);
  ASSERT_TRUE(FlushReturns(run));
  const auto degraded = run.engine->stats();
  EXPECT_GT(degraded.events_shed, 0);
  EXPECT_GT(degraded.sends_shed, 0);
  // Rejoin after a down requires a state resync (the shard missed real
  // traffic); reset + full replay is one, brings the shard back up, and
  // must land bitwise on the never-degraded reference.
  run.engine->ResetState();
  Stream(f, *run.engine, 0, events, batch);
  ASSERT_TRUE(FlushReturns(run));
  EXPECT_EQ(run.engine->stats().events_shed, degraded.events_shed);
  ExpectStitchedMailboxEqual(*run.engine, *reference, f.config.num_nodes);
}

TEST(DegradationTest, DownShardRecoversByRestore) {
  // The other resync: restore the recovery point taken before the shard
  // went down and replay the tail it missed. Nothing is shed after the
  // restore, and the replayed state lands on the serial oracle bitwise.
  Fixture f;
  const size_t events = 200, cut = 80, batch = 40;
  const testutil::SerialRun serial =
      RunSerial(f.config, f.dataset, 7, events, batch);
  auto run = MakeEngine(f, MakeTransportFactory(TransportKind::kInProcess));
  std::vector<float> scores;
  StreamScored(f, *run.engine, 0, cut, batch, &scores);
  const std::string dir = SnapDir("down_restore", 0);
  ASSERT_TRUE(run.engine->Snapshot(dir).ok());
  run.engine->MarkShardDown(1);
  Stream(f, *run.engine, cut, events, batch);  // shard 1 misses these
  ASSERT_TRUE(FlushReturns(run));
  const int64_t shed = run.engine->stats().events_shed;
  EXPECT_GT(shed, 0);
  ASSERT_TRUE(run.engine->Restore(dir).ok());
  for (size_t at = cut; at + batch <= events; at += batch) {
    auto result = run.engine->InferBatch(f.BatchEvents(at, at + batch));
    ASSERT_TRUE(result.ok()) << result.status();
    scores.insert(scores.end(), result->scores.begin(), result->scores.end());
    ASSERT_TRUE(FlushReturns(run)) << "Flush did not return after batch "
                                   << at / batch << " of the replay";
  }
  EXPECT_EQ(run.engine->stats().events_shed, shed);
  testutil::ExpectScoresBitwise(scores, serial.scores);
  testutil::ExpectStitchedStateBitwise(*run.engine, *serial.model,
                                       f.config.num_nodes);
}

TEST(DegradationTest, ShedEventsLeaveNoRowsOrMailOnHealthyShards) {
  // Every event gets its own timestamp, so a mailbox slot names the event
  // behind it: hop-0 mail carries its event's time and a ρ row its newest
  // contribution's. With shard 3 down from the start, its home events are
  // shed: no healthy shard may hold a slot from one, nor a z(t−) row for
  // a node that only shed events touched. Every other event is homed on
  // shard 3 and points at one of 8 healthy nodes no kept event touches.
  Fixture f;
  auto run = MakeEngine(f, MakeTransportFactory(TransportKind::kInProcess));
  constexpr int kDown = 3;
  const graph::NodePartition& router = run.engine->router();
  std::vector<graph::NodeId> down_nodes, healthy_nodes;
  for (graph::NodeId v = 0; v < f.config.num_nodes; ++v) {
    (router.ShardOf(v) == kDown ? down_nodes : healthy_nodes).push_back(v);
  }
  constexpr size_t kShedOnly = 8;
  ASSERT_GT(healthy_nodes.size(), 2 * kShedOnly);
  const size_t kept_pool = healthy_nodes.size() - kShedOnly;
  std::vector<graph::Event> stream;
  for (size_t i = 0; i < 200; ++i) {
    graph::Event e;
    if (i % 2 == 0) {  // homed on the down shard: shed
      e.src = down_nodes[(i / 2) % down_nodes.size()];
      e.dst = healthy_nodes[(i / 2) % kShedOnly];
    } else {  // homed on a healthy shard; may point at a down-owned node
      e.src = healthy_nodes[kShedOnly + (7 * i) % kept_pool];
      e.dst = i % 3 == 0 ? down_nodes[i % down_nodes.size()]
                         : healthy_nodes[kShedOnly + (13 * i) % kept_pool];
    }
    e.timestamp = static_cast<double>(i + 1);
    e.edge_id = static_cast<graph::EdgeId>(i);
    stream.push_back(e);
  }
  run.engine->MarkShardDown(kDown);
  for (size_t lo = 0; lo < stream.size(); lo += 40) {
    ASSERT_TRUE(run.engine
                    ->InferBatch(std::vector<graph::Event>(
                        stream.begin() + static_cast<ptrdiff_t>(lo),
                        stream.begin() + static_cast<ptrdiff_t>(lo + 40)))
                    .ok());
  }
  run.engine->Flush();

  std::set<double> kept_times;
  std::set<graph::NodeId> kept_endpoints, shed_endpoints;
  for (const graph::Event& e : stream) {
    const bool shed = router.HomeShardOf(e) == kDown;
    if (!shed) kept_times.insert(e.timestamp);
    auto& endpoints = shed ? shed_endpoints : kept_endpoints;
    endpoints.insert(e.src);
    endpoints.insert(e.dst);
  }
  int64_t shed_only = 0, slots = 0;
  for (graph::NodeId v = 0; v < f.config.num_nodes; ++v) {
    const int owner = router.ShardOf(v);
    if (owner == kDown) continue;
    const core::NodeStateStore& store = run.engine->state_store(owner);
    const auto read = store.ReadBatch({v});
    for (int64_t i = 0; i < read.counts[0]; ++i) {
      ++slots;
      EXPECT_EQ(kept_times.count(read.timestamps[static_cast<size_t>(i)]), 1u)
          << "node " << v << " holds mail from a shed event";
    }
    if (shed_endpoints.count(v) != 0 && kept_endpoints.count(v) == 0) {
      ++shed_only;
      for (const float x : store.LastEmbedding(v)) {
        ASSERT_EQ(x, 0.0f) << "node " << v << " has a shed event's z(t-)";
      }
    }
  }
  EXPECT_EQ(shed_only, static_cast<int64_t>(kShedOnly));
  EXPECT_GT(slots, 0);
  EXPECT_GT(run.engine->stats().events_shed, 0);
}

TEST(DegradationTest, DownShardShedsOverUnixSocket) {
  if (!UnixSocketTransport::Available()) {
    GTEST_SKIP() << "AF_UNIX unavailable on this platform";
  }
  Fixture f;
  auto run = MakeEngine(f, MakeTransportFactory(TransportKind::kUnixSocket));
  Stream(f, *run.engine, 0, 40, 40);
  run.engine->Flush();
  run.engine->MarkShardDown(1);
  Stream(f, *run.engine, 40, 160, 40);
  run.engine->Flush();
  const auto stats = run.engine->stats();
  EXPECT_GT(stats.events_shed, 0);
  EXPECT_GT(stats.sends_shed, 0);
}

}  // namespace
}  // namespace serve
}  // namespace apan
