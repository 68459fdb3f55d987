#include "graph/node_partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>


namespace apan {
namespace graph {
namespace {

Event E(NodeId src, NodeId dst, double t) {
  Event e;
  e.src = src;
  e.dst = dst;
  e.timestamp = t;
  return e;
}

// Every partition, whichever builder made it, must be a disjoint cover
// with dense ascending local rows — the layout both planes assume.
void ExpectWellFormed(const NodePartition& p, int64_t num_nodes,
                      int num_shards) {
  ASSERT_EQ(p.num_nodes(), num_nodes);
  ASSERT_EQ(p.num_shards, num_shards);
  std::vector<int64_t> next_row(static_cast<size_t>(num_shards), 0);
  int64_t total = 0;
  for (NodeId v = 0; v < num_nodes; ++v) {
    const int owner = p.owner_of[static_cast<size_t>(v)];
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, num_shards);
    EXPECT_EQ(p.local_row[static_cast<size_t>(v)],
              next_row[static_cast<size_t>(owner)]++);
  }
  for (int s = 0; s < num_shards; ++s) {
    EXPECT_EQ(p.owned_count[static_cast<size_t>(s)],
              next_row[static_cast<size_t>(s)]);
    total += p.owned_count[static_cast<size_t>(s)];
  }
  EXPECT_EQ(total, num_nodes);
}

TEST(NodePartitionTest, BuildDefaultMatchesHash) {
  auto p = NodePartition::BuildDefault(100, 4);
  ExpectWellFormed(*p, 100, 4);
  for (NodeId v = 0; v < 100; ++v) {
    EXPECT_EQ(p->owner_of[static_cast<size_t>(v)], NodeShardOf(v, 4));
  }
}

TEST(NodePartitionTest, LocalityCoLocatesInteractionClusters) {
  // Two disjoint interaction cliques over 16 nodes. Locality must put
  // each clique on one shard, making every observed edge shard-local —
  // the hash splits them ~uniformly.
  std::vector<Event> events;
  double t = 0.0;
  for (int round = 0; round < 3; ++round) {
    for (NodeId a = 0; a < 8; ++a) {
      for (NodeId b = a + 1; b < 8; ++b) {
        events.push_back(E(a, b, t));
        t += 1.0;
        events.push_back(E(a + 8, b + 8, t));
        t += 1.0;
      }
    }
  }
  auto p = NodePartition::BuildLocality(16, 2, events);
  ExpectWellFormed(*p, 16, 2);
  int64_t cross = 0;
  for (const auto& e : events) {
    if (p->owner_of[static_cast<size_t>(e.src)] !=
        p->owner_of[static_cast<size_t>(e.dst)]) {
      ++cross;
    }
  }
  EXPECT_EQ(cross, 0);
  // And the two cliques landed on different shards (balance cap at 1.2
  // of 8 forbids piling all 16 onto one).
  EXPECT_NE(p->owner_of[0], p->owner_of[8]);
}

TEST(NodePartitionTest, LocalityRespectsBalanceCap) {
  // A hub stream (every event touches node 0) would pull every node onto
  // the hub's shard; the cap must stop that.
  std::vector<Event> events;
  for (NodeId v = 1; v < 40; ++v) {
    events.push_back(E(0, v, static_cast<double>(v)));
  }
  NodePartition::LocalityOptions opts;
  opts.balance_factor = 1.2;
  auto p = NodePartition::BuildLocality(40, 4, events, opts);
  ExpectWellFormed(*p, 40, 4);
  const int64_t cap = 12;  // floor(1.2 * 40 / 4)
  for (int s = 0; s < 4; ++s) {
    EXPECT_LE(p->owned_count[static_cast<size_t>(s)], cap);
  }
}

TEST(NodePartitionTest, LocalityPerfectBalanceAtFactorOne) {
  std::vector<Event> events;
  for (NodeId v = 1; v < 32; ++v) {
    events.push_back(E(0, v, static_cast<double>(v)));
  }
  NodePartition::LocalityOptions opts;
  opts.balance_factor = 1.0;
  auto p = NodePartition::BuildLocality(32, 4, events, opts);
  ExpectWellFormed(*p, 32, 4);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(p->owned_count[static_cast<size_t>(s)], 8);
  }
}

TEST(NodePartitionTest, LocalityIsDeterministic) {
  std::vector<Event> events;
  for (int i = 0; i < 200; ++i) {
    events.push_back(E((i * 13) % 50, (i * 7 + 3) % 50,
                       static_cast<double>(i)));
  }
  auto a = NodePartition::BuildLocality(50, 4, events);
  auto b = NodePartition::BuildLocality(50, 4, events);
  EXPECT_EQ(a->owner_of, b->owner_of);
  EXPECT_EQ(a->local_row, b->local_row);
  EXPECT_EQ(a->owned_count, b->owned_count);
}

TEST(NodePartitionTest, LocalityFillsUnseenNodesForBalance) {
  // Only 4 of 64 nodes appear in the warmup; the rest must still be
  // assigned, and the overall partition stays balanced.
  std::vector<Event> events = {E(0, 1, 0.0), E(2, 3, 1.0)};
  auto p = NodePartition::BuildLocality(64, 4, events);
  ExpectWellFormed(*p, 64, 4);
  for (int s = 0; s < 4; ++s) {
    EXPECT_GE(p->owned_count[static_cast<size_t>(s)], 14);
  }
}

TEST(NodePartitionTest, LocalitySingleShardOwnsEverything) {
  std::vector<Event> events = {E(0, 1, 0.0)};
  auto p = NodePartition::BuildLocality(8, 1, events);
  ExpectWellFormed(*p, 8, 1);
  for (NodeId v = 0; v < 8; ++v) {
    EXPECT_EQ(p->owner_of[static_cast<size_t>(v)], 0);
  }
}

}  // namespace
}  // namespace graph
}  // namespace apan
