// graph::AdjacencyReplica — the per-worker graph copy serve::ShardedEngine
// samples from. The oracle is graph::KHopMostRecent on the serial
// TemporalGraph, driven in the serial model's order (sample a batch, then
// append it); the replica must reproduce it hop for hop in (node,
// timestamp, hop) under every shard count and partition, because the
// engine's mailbox equals the serial one only if its hop lists do.

#include "graph/adjacency_replica.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "graph/node_partition.h"
#include "graph/sampling.h"
#include "graph/temporal_graph.h"
#include "util/random.h"

namespace apan {
namespace graph {
namespace {

using Batches = std::vector<std::vector<Event>>;

/// A seeded stream that starts at a negative time, repeats timestamps
/// often enough that runs of equal times straddle batch boundaries, and
/// contains self-loops.
Batches MakeStream(int64_t num_nodes, int num_events, size_t batch_size,
                   uint64_t seed) {
  Rng rng(seed);
  std::vector<Event> events;
  double t = -7.0;
  for (int i = 0; i < num_events; ++i) {
    if (rng.Bernoulli(0.4)) t += 1.0;  // else: tie with the previous event
    const auto a = static_cast<NodeId>(rng.UniformInt(uint64_t(num_nodes)));
    const auto b = rng.Bernoulli(0.1)
                       ? a
                       : static_cast<NodeId>(
                             rng.UniformInt(uint64_t(num_nodes)));
    events.push_back({a, b, t, -1});
  }
  Batches batches;
  for (size_t lo = 0; lo < events.size(); lo += batch_size) {
    const size_t hi = std::min(lo + batch_size, events.size());
    batches.emplace_back(events.begin() + lo, events.begin() + hi);
  }
  return batches;
}

void ExpectSameHops(const std::vector<HopEntry>& actual,
                    const std::vector<HopEntry>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].node, expected[i].node) << "entry " << i;
    EXPECT_EQ(actual[i].timestamp, expected[i].timestamp) << "entry " << i;
    EXPECT_EQ(actual[i].hop, expected[i].hop) << "entry " << i;
  }
}

std::vector<HopEntry> Sample(const AdjacencyReplica& replica, const Event& e,
                             int32_t hops, int64_t fanout) {
  const NodeId seeds[] = {e.src, e.dst};
  std::vector<HopEntry> out;
  replica.SampleKHop(seeds, e.timestamp, hops, fanout, &out);
  return out;
}

bool SameContents(const AdjacencyReplica& a, const AdjacencyReplica& b) {
  const AdjacencyReplica::Checkpoint x = a.Export();
  const AdjacencyReplica::Checkpoint y = b.Export();
  if (x.num_events != y.num_events ||
      x.latest_timestamp != y.latest_timestamp ||
      x.rows.size() != y.rows.size()) {
    return false;
  }
  for (size_t r = 0; r < x.rows.size(); ++r) {
    if (x.rows[r].size() != y.rows[r].size()) return false;
    for (size_t i = 0; i < x.rows[r].size(); ++i) {
      if (x.rows[r][i].node != y.rows[r][i].node ||
          x.rows[r][i].timestamp != y.rows[r][i].timestamp) {
        return false;
      }
    }
  }
  return true;
}

// Property: N workers, each with its own replica, sample their home
// events (homed on the source endpoint's owner, as the engine does)
// before appending the batch, and reproduce the serial oracle exactly.
TEST(AdjacencyReplicaProperty, MatchesSerialKHopUnderEveryPartition) {
  const int64_t nodes = 20;
  const int64_t fanout = 3;
  const Batches batches = MakeStream(nodes, 600, 7, 4242);
  std::vector<Event> all;
  int straddles = 0;
  int self_loops = 0;
  for (size_t b = 0; b < batches.size(); ++b) {
    if (b > 0 && batches[b].front().timestamp ==
                     batches[b - 1].back().timestamp) {
      ++straddles;
    }
    for (const Event& e : batches[b]) {
      self_loops += e.src == e.dst ? 1 : 0;
      all.push_back(e);
    }
  }
  // The stream must actually exercise the corner cases it claims to.
  ASSERT_GT(straddles, 10);
  ASSERT_GT(self_loops, 10);
  ASSERT_LT(all.front().timestamp, 0.0);

  for (const int32_t hops : {1, 2, 3}) {
    for (const int shards : {1, 2, 4}) {
      for (const bool locality : {false, true}) {
        SCOPED_TRACE(testing::Message() << hops << " hops, " << shards
                                        << " shards, "
                                        << (locality ? "locality" : "hash"));
        const std::shared_ptr<const NodePartition> partition =
            locality ? NodePartition::BuildLocality(nodes, shards, all)
                     : NodePartition::BuildDefault(nodes, shards);
        TemporalGraph serial(nodes);
        std::vector<std::unique_ptr<AdjacencyReplica>> replicas;
        for (int s = 0; s < shards; ++s) {
          replicas.push_back(std::make_unique<AdjacencyReplica>(nodes));
        }
        int64_t sampled_entries = 0;
        for (const std::vector<Event>& batch : batches) {
          for (const Event& e : batch) {
            const int home =
                partition->owner_of[static_cast<size_t>(e.src)];
            const auto expected =
                KHopMostRecent(serial, {e.src, e.dst}, e.timestamp, hops,
                               fanout);
            const auto actual =
                Sample(*replicas[static_cast<size_t>(home)], e, hops,
                       fanout);
            ExpectSameHops(actual, expected);
            if (HasFatalFailure()) return;
            sampled_entries += static_cast<int64_t>(actual.size());
          }
          for (const Event& e : batch) ASSERT_TRUE(serial.AddEvent(e).ok());
          for (auto& replica : replicas) {
            ASSERT_TRUE(replica->AppendBatch(batch).ok());
          }
        }
        EXPECT_GT(sampled_entries, static_cast<int64_t>(all.size()));
        for (const auto& replica : replicas) {
          EXPECT_TRUE(SameContents(*replica, *replicas.front()));
          EXPECT_EQ(replica->num_events(), serial.num_events());
        }
      }
    }
  }
}

// Property (cross-shard no-future-leakage): a 2-hop expansion whose hop-2
// frontier nodes are owned by a *foreign* shard still sees only events
// strictly before before_time — on the home shard's replica exactly as on
// the monolithic graph.
TEST(AdjacencyReplicaProperty, CrossShardTwoHopNoFutureLeakage) {
  const int64_t nodes = 30;
  const int shards = 4;
  const int64_t fanout = 4;
  const auto partition = NodePartition::BuildDefault(nodes, shards);
  TemporalGraph mono(nodes);
  AdjacencyReplica replica(nodes);
  std::vector<Event> events;
  for (const auto& batch : MakeStream(nodes, 500, 40, 31)) {
    ASSERT_TRUE(replica.AppendBatch(batch).ok());
    for (const Event& e : batch) {
      ASSERT_TRUE(mono.AddEvent(e).ok());
      events.push_back(e);
    }
  }

  Rng rng(31);
  int64_t foreign_hop2_frontiers = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const Event& e = events[static_cast<size_t>(
        rng.UniformInt(static_cast<uint64_t>(events.size())))];
    const int home = partition->owner_of[static_cast<size_t>(e.src)];
    const auto expected = KHopMostRecent(mono, {e.src, e.dst}, e.timestamp,
                                         2, fanout);
    const auto actual = Sample(replica, e, 2, fanout);
    for (const HopEntry& h : actual) {
      // The leakage invariant, at every hop, whoever owns the node.
      ASSERT_LT(h.timestamp, e.timestamp) << "hop " << h.hop;
      if (h.hop == 1 &&
          partition->owner_of[static_cast<size_t>(h.node)] != home) {
        ++foreign_hop2_frontiers;
      }
    }
    ExpectSameHops(actual, expected);
  }
  // The property must actually have exercised foreign-owned hop-2
  // frontiers, or the test proves nothing about shard boundaries.
  EXPECT_GT(foreign_hop2_frontiers, 100);
}

TEST(AdjacencyReplicaTest, OneHopMatchesMostRecentAtArbitraryCutoffs) {
  const int64_t nodes = 24;
  TemporalGraph mono(nodes);
  AdjacencyReplica replica(nodes);
  for (const auto& batch : MakeStream(nodes, 400, 32, 77)) {
    ASSERT_TRUE(replica.AppendBatch(batch).ok());
    for (const Event& e : batch) ASSERT_TRUE(mono.AddEvent(e).ok());
  }
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const auto v = static_cast<NodeId>(rng.UniformInt(uint64_t(nodes)));
    const double cutoff = rng.Uniform(-10.0, 300.0);
    const auto fanout = static_cast<int64_t>(rng.UniformInt(uint64_t{8}));
    const NodeId seed[] = {v};
    std::vector<HopEntry> actual;
    replica.SampleKHop(seed, cutoff, 1, fanout, &actual);
    const auto expected = mono.MostRecentNeighbors(v, cutoff, fanout);
    ASSERT_EQ(actual.size(), expected.size()) << "node " << v;
    for (size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i].node, expected[i].node);
      EXPECT_EQ(actual[i].timestamp, expected[i].timestamp);
      EXPECT_EQ(actual[i].hop, 1);
    }
  }
}

TEST(AdjacencyReplicaTest, SampleAppendsAfterExistingEntries) {
  AdjacencyReplica replica(3);
  const std::vector<Event> batch = {{0, 1, 1.0, -1}, {1, 2, 2.0, -1}};
  ASSERT_TRUE(replica.AppendBatch(batch).ok());
  std::vector<HopEntry> out = {{9, 9, 9.0, 9}};
  const NodeId seed[] = {0};
  replica.SampleKHop(seed, 5.0, 2, 4, &out);
  // The caller's entry is untouched; hop 2 expands only hop 1's entries.
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].node, 9);
  EXPECT_EQ(out[1].node, 1);
  EXPECT_EQ(out[1].hop, 1);
  EXPECT_EQ(out[2].node, 0);
  EXPECT_EQ(out[3].node, 2);
  EXPECT_EQ(out[3].hop, 2);
}

TEST(AdjacencyReplicaTest, AcceptsNegativeFirstTimestamp) {
  // TemporalGraph::AddEvent accepts any first timestamp (times measured
  // relative to a reference point can start negative); the replica must
  // agree or the engine aborts on streams the serial path serves.
  AdjacencyReplica replica(4);
  const std::vector<Event> batch = {{0, 1, -100.0, -1}, {2, 3, -50.0, -1}};
  ASSERT_TRUE(replica.AppendBatch(batch).ok());
  EXPECT_EQ(replica.num_events(), 2);
  // Still-older timestamps in the next batch are rejected as usual.
  const std::vector<Event> stale = {{0, 1, -200.0, -1}};
  EXPECT_TRUE(replica.AppendBatch(stale).IsFailedPrecondition());
}

TEST(AdjacencyReplicaTest, RejectedAppendLeavesReplicaUnchanged) {
  // A mid-batch validation failure must not mutate the replica: the
  // valid prefix's entries would otherwise be appended twice when the
  // fixed batch is re-sent.
  AdjacencyReplica replica(10);
  AdjacencyReplica reference(10);
  const std::vector<Event> first = {{0, 1, 1.0, -1}, {2, 3, 2.0, -1}};
  ASSERT_TRUE(replica.AppendBatch(first).ok());
  ASSERT_TRUE(reference.AppendBatch(first).ok());

  const std::vector<Event> bad_node = {{4, 5, 3.0, -1}, {2, 99, 3.0, -1}};
  EXPECT_TRUE(replica.AppendBatch(bad_node).IsInvalidArgument());
  const std::vector<Event> negative = {{4, 5, 3.0, -1}, {-1, 5, 3.0, -1}};
  EXPECT_TRUE(replica.AppendBatch(negative).IsInvalidArgument());
  const std::vector<Event> older = {{4, 5, 3.0, -1}, {6, 7, 1.5, -1}};
  EXPECT_TRUE(replica.AppendBatch(older).IsFailedPrecondition());
  const std::vector<Event> older_than_stored = {{4, 5, 0.5, -1}};
  EXPECT_TRUE(replica.AppendBatch(older_than_stored).IsFailedPrecondition());
  EXPECT_TRUE(SameContents(replica, reference));
  EXPECT_EQ(replica.num_events(), 2);

  const std::vector<Event> fixed = {{4, 5, 3.0, -1}, {2, 9, 3.0, -1}};
  ASSERT_TRUE(replica.AppendBatch(fixed).ok());
  EXPECT_EQ(replica.num_events(), 4);
  const NodeId seed[] = {4};
  std::vector<HopEntry> out;
  replica.SampleKHop(seed, 10.0, 1, 5, &out);
  ASSERT_EQ(out.size(), 1u);  // exactly once, no duplicate from `bad_node`
  EXPECT_EQ(out[0].node, 5);
}

TEST(AdjacencyReplicaTest, RejectsNonFiniteTimestamp) {
  // Accepted, NaN (false against everything) would become the newest
  // timestamp and let every later out-of-order batch through, and +∞
  // would refuse every later batch.
  AdjacencyReplica replica(10);
  AdjacencyReplica reference(10);
  const std::vector<Event> first = {{0, 1, 1.0, -1}, {2, 3, 2.0, -1}};
  ASSERT_TRUE(replica.AppendBatch(first).ok());
  ASSERT_TRUE(reference.AppendBatch(first).ok());
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), inf,
                           -inf}) {
    const std::vector<Event> bad_last = {{4, 5, 3.0, -1}, {6, 7, bad, -1}};
    EXPECT_TRUE(replica.AppendBatch(bad_last).IsInvalidArgument()) << bad;
    const std::vector<Event> bad_first = {{4, 5, bad, -1}, {6, 7, 3.0, -1}};
    EXPECT_TRUE(replica.AppendBatch(bad_first).IsInvalidArgument()) << bad;
  }
  const std::vector<Event> older = {{4, 5, 1.5, -1}};
  EXPECT_TRUE(replica.AppendBatch(older).IsFailedPrecondition());
  EXPECT_TRUE(SameContents(replica, reference));
}

TEST(AdjacencyReplicaTest, StoresEachOccurrenceInSixteenBytes) {
  const int64_t nodes = 24;
  TemporalGraph mono(nodes);
  AdjacencyReplica replica(nodes);
  int64_t occurrences = 0;
  for (const auto& batch : MakeStream(nodes, 300, 25, 13)) {
    ASSERT_TRUE(replica.AppendBatch(batch).ok());
    for (const Event& e : batch) {
      ASSERT_TRUE(mono.AddEvent(e).ok());
      occurrences += e.src == e.dst ? 1 : 2;  // a self-loop is stored once
    }
  }
  EXPECT_EQ(replica.MemoryBytes(), 16 * occurrences);
  // No event log, no edge ids: well under the monolithic graph.
  EXPECT_LT(replica.MemoryBytes(), mono.MemoryBytes() / 2);
}

TEST(AdjacencyReplicaTest, ResetAndRestore) {
  const int64_t nodes = 12;
  AdjacencyReplica replica(nodes);
  for (const auto& batch : MakeStream(nodes, 100, 10, 3)) {
    ASSERT_TRUE(replica.AppendBatch(batch).ok());
  }
  const AdjacencyReplica::Checkpoint image = replica.Export();
  replica.Reset();
  EXPECT_EQ(replica.num_events(), 0);
  EXPECT_EQ(replica.MemoryBytes(), 0);
  // After a reset any first timestamp is accepted again.
  const std::vector<Event> early = {{0, 1, -1000.0, -1}};
  ASSERT_TRUE(replica.AppendBatch(early).ok());

  ASSERT_TRUE(replica.Restore(image).ok());
  AdjacencyReplica rebuilt(nodes);
  for (const auto& batch : MakeStream(nodes, 100, 10, 3)) {
    ASSERT_TRUE(rebuilt.AppendBatch(batch).ok());
  }
  EXPECT_TRUE(SameContents(replica, rebuilt));

  // Invalid images are refused whole.
  AdjacencyReplica::Checkpoint wrong_rows = image;
  wrong_rows.rows.pop_back();
  EXPECT_TRUE(replica.Restore(wrong_rows).IsInvalidArgument());
  AdjacencyReplica::Checkpoint bad_node = image;
  bad_node.rows[0].push_back({nodes, 1e9});
  EXPECT_TRUE(replica.Restore(bad_node).IsInvalidArgument());
  AdjacencyReplica::Checkpoint unsorted = image;
  auto row = std::find_if(unsorted.rows.begin(), unsorted.rows.end(),
                          [](const auto& r) { return !r.empty(); });
  ASSERT_NE(row, unsorted.rows.end());
  row->push_back({0, -1e9});
  EXPECT_TRUE(replica.Restore(unsorted).IsInvalidArgument());
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), inf,
                           -inf}) {
    // A one-entry row is sorted, so only the finiteness check refuses it.
    AdjacencyReplica::Checkpoint bad_entry = image;
    bad_entry.rows[0] = {{1, bad}};
    EXPECT_TRUE(replica.Restore(bad_entry).IsInvalidArgument()) << bad;
  }
  // −∞ is the empty replica's latest timestamp, tested below.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), inf}) {
    AdjacencyReplica::Checkpoint bad_latest = image;
    bad_latest.latest_timestamp = bad;
    EXPECT_TRUE(replica.Restore(bad_latest).IsInvalidArgument()) << bad;
  }
  EXPECT_TRUE(SameContents(replica, rebuilt));
  // The refusals left the order check in force.
  const std::vector<Event> older = {{0, 1, image.latest_timestamp - 1.0, -1}};
  EXPECT_TRUE(replica.AppendBatch(older).IsFailedPrecondition());
  // An empty image, whose latest timestamp is −∞, restores.
  ASSERT_TRUE(replica.Restore(AdjacencyReplica(nodes).Export()).ok());
  EXPECT_EQ(replica.num_events(), 0);
}

}  // namespace
}  // namespace graph
}  // namespace apan
