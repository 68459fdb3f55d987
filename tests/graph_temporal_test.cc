#include "graph/temporal_graph.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <utility>

namespace apan {
namespace graph {
namespace {

TemporalGraph MakeLine() {
  // 0-1 @1, 1-2 @2, 2-3 @3, 1-3 @4.
  TemporalGraph g(4);
  EXPECT_TRUE(g.AddEvent({0, 1, 1.0, -1}).ok());
  EXPECT_TRUE(g.AddEvent({1, 2, 2.0, -1}).ok());
  EXPECT_TRUE(g.AddEvent({2, 3, 3.0, -1}).ok());
  EXPECT_TRUE(g.AddEvent({1, 3, 4.0, -1}).ok());
  return g;
}

TEST(TemporalGraphTest, AddEventValidatesEndpoints) {
  TemporalGraph g(3);
  EXPECT_TRUE(g.AddEvent({0, 2, 1.0, -1}).ok());
  EXPECT_TRUE(g.AddEvent({0, 3, 2.0, -1}).IsInvalidArgument());
  EXPECT_TRUE(g.AddEvent({-1, 0, 2.0, -1}).IsInvalidArgument());
}

TEST(TemporalGraphTest, RejectsOutOfOrderAppend) {
  TemporalGraph g(3);
  EXPECT_TRUE(g.AddEvent({0, 1, 5.0, -1}).ok());
  EXPECT_TRUE(g.AddEvent({1, 2, 4.0, -1}).IsFailedPrecondition());
  // Equal timestamps are fine (batch arrivals).
  EXPECT_TRUE(g.AddEvent({1, 2, 5.0, -1}).ok());
}

TEST(TemporalGraphTest, RejectsNonFiniteTimestamp) {
  // Accepted, NaN (false against everything) would become the newest
  // timestamp and let every later out-of-order event through, and +∞
  // would refuse every later event.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), inf,
                           -inf}) {
    TemporalGraph g(3);
    EXPECT_TRUE(g.AddEvent({0, 1, 5.0, -1}).ok());
    EXPECT_TRUE(g.AddEvent({1, 2, bad, -1}).IsInvalidArgument()) << bad;
    EXPECT_EQ(g.num_events(), 1);
    EXPECT_TRUE(g.AddEvent({1, 2, 4.0, -1}).IsFailedPrecondition());
    EXPECT_TRUE(g.AddEvent({1, 2, 6.0, -1}).ok());
    // Also as the very first event.
    TemporalGraph empty(3);
    EXPECT_TRUE(empty.AddEvent({0, 1, bad, -1}).IsInvalidArgument()) << bad;
    EXPECT_EQ(empty.num_events(), 0);
  }
}

TEST(TemporalGraphTest, EdgeIdsAutoAssignedDense) {
  TemporalGraph g(3);
  ASSERT_TRUE(g.AddEvent({0, 1, 1.0, -1}).ok());
  ASSERT_TRUE(g.AddEvent({1, 2, 2.0, -1}).ok());
  EXPECT_EQ(g.event(0).edge_id, 0);
  EXPECT_EQ(g.event(1).edge_id, 1);
  EXPECT_EQ(g.num_events(), 2);
  EXPECT_EQ(g.latest_timestamp(), 2.0);
}

TEST(TemporalGraphTest, NeighborsBeforeExcludesFuture) {
  TemporalGraph g = MakeLine();
  // Node 1 interacted at t=1 (with 0), t=2 (with 2), t=4 (with 3).
  auto n = g.NeighborsBefore(1, 3.0);
  ASSERT_EQ(n.size(), 2u);
  EXPECT_EQ(n[0].node, 0);
  EXPECT_EQ(n[1].node, 2);
  for (const auto& x : n) EXPECT_LT(x.timestamp, 3.0);
  // Strict: events at exactly before_time excluded.
  EXPECT_EQ(g.NeighborsBefore(1, 2.0).size(), 1u);
}

TEST(TemporalGraphTest, MostRecentKeepsLatest) {
  TemporalGraph g = MakeLine();
  auto n = g.MostRecentNeighbors(1, 5.0, 2);
  ASSERT_EQ(n.size(), 2u);
  EXPECT_EQ(n[0].node, 2);  // t=2
  EXPECT_EQ(n[1].node, 3);  // t=4, ascending order
}

TEST(TemporalGraphTest, MostRecentHandlesSmallHistory) {
  TemporalGraph g = MakeLine();
  EXPECT_EQ(g.MostRecentNeighbors(0, 10.0, 5).size(), 1u);
  EXPECT_TRUE(g.MostRecentNeighbors(0, 0.5, 5).empty());
  EXPECT_TRUE(g.MostRecentNeighbors(0, 10.0, 0).empty());
  EXPECT_TRUE(g.MostRecentNeighbors(99, 10.0, 5).empty());
}

TEST(TemporalGraphTest, UniformSampleValidSubset) {
  TemporalGraph g(2);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(g.AddEvent({0, 1, static_cast<double>(i + 1), -1}).ok());
  }
  Rng rng(9);
  auto n = g.UniformNeighbors(0, 30.0, 10, &rng);
  EXPECT_EQ(n.size(), 10u);
  for (const auto& x : n) {
    EXPECT_EQ(x.node, 1);
    EXPECT_LT(x.timestamp, 30.0);
  }
}

TEST(TemporalGraphTest, BothEndpointsGainAdjacency) {
  TemporalGraph g(3);
  ASSERT_TRUE(g.AddEvent({0, 1, 1.0, -1}).ok());
  EXPECT_EQ(g.Degree(0), 1);
  EXPECT_EQ(g.Degree(1), 1);
  EXPECT_EQ(g.Degree(2), 0);
}

TEST(TemporalGraphTest, SelfLoopCountedOnce) {
  TemporalGraph g(2);
  ASSERT_TRUE(g.AddEvent({0, 0, 1.0, -1}).ok());
  EXPECT_EQ(g.Degree(0), 1);
}

TEST(TemporalGraphTest, QueryCounterTracksReads) {
  TemporalGraph g = MakeLine();
  g.ResetQueryCount();
  g.NeighborsBefore(1, 2.0);
  g.MostRecentNeighbors(1, 2.0, 3);
  Rng rng(1);
  g.UniformNeighbors(1, 2.0, 3, &rng);
  EXPECT_EQ(g.query_count(), 3);
}

TEST(TemporalGraphTest, ResetKeepsNodeCount) {
  TemporalGraph g = MakeLine();
  g.Reset();
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_EQ(g.num_events(), 0);
  EXPECT_EQ(g.Degree(1), 0);
  EXPECT_TRUE(g.AddEvent({0, 1, 0.5, -1}).ok());  // time restarts
}

// Regression: a moved-from graph used to keep its num_nodes_ and
// latest_timestamp_ while its adjacency was emptied, so a later AddEvent
// passed validation and indexed an empty vector (UB). The moved-from
// object must be inert: every mutation and query fails validation.
TEST(TemporalGraphTest, MovedFromGraphIsInert) {
  TemporalGraph g = MakeLine();
  TemporalGraph taken = std::move(g);
  EXPECT_EQ(taken.num_nodes(), 4);
  EXPECT_EQ(taken.num_events(), 4);
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(g.num_events(), 0);
  EXPECT_EQ(g.latest_timestamp(), 0.0);
  EXPECT_TRUE(g.AddEvent({0, 1, 9.0, -1}).IsInvalidArgument());
  EXPECT_TRUE(g.NeighborsBefore(0, 10.0).empty());
  EXPECT_EQ(g.Degree(0), 0);

  TemporalGraph assigned(2);
  assigned = std::move(taken);
  EXPECT_EQ(assigned.num_nodes(), 4);
  EXPECT_EQ(assigned.num_events(), 4);
  EXPECT_EQ(taken.num_nodes(), 0);
  EXPECT_TRUE(taken.AddEvent({0, 1, 9.0, -1}).IsInvalidArgument());
  // The move target keeps working.
  EXPECT_TRUE(assigned.AddEvent({0, 1, 9.0, -1}).ok());
  EXPECT_EQ(assigned.num_events(), 5);
}

// Property: adjacency is time-sorted and queries never leak the future,
// for a random stream.
TEST(TemporalGraphProperty, NoFutureLeakage) {
  Rng rng(123);
  TemporalGraph g(20);
  double t = 0.0;
  for (int i = 0; i < 500; ++i) {
    t += rng.Exponential(1.0);
    const auto a = static_cast<NodeId>(rng.UniformInt(20));
    const auto b = static_cast<NodeId>(rng.UniformInt(20));
    ASSERT_TRUE(g.AddEvent({a, b, t, -1}).ok());
  }
  for (int trial = 0; trial < 100; ++trial) {
    const auto v = static_cast<NodeId>(rng.UniformInt(20));
    const double cutoff = rng.Uniform(0.0, t);
    const auto recent = g.MostRecentNeighbors(v, cutoff, 7);
    double prev = -1.0;
    for (const auto& n : recent) {
      EXPECT_LT(n.timestamp, cutoff);
      EXPECT_GE(n.timestamp, prev);  // ascending
      prev = n.timestamp;
    }
    // The k most-recent really are the latest valid ones.
    const auto all = g.NeighborsBefore(v, cutoff);
    if (all.size() > recent.size()) {
      const double oldest_kept = recent.front().timestamp;
      const auto skipped = all.size() - recent.size();
      for (size_t i = 0; i < skipped; ++i) {
        EXPECT_LE(all[i].timestamp, oldest_kept);
      }
    }
  }
}

}  // namespace
}  // namespace graph
}  // namespace apan
