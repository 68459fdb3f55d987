#include "core/propagator.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>

namespace apan {
namespace core {
namespace {

constexpr int64_t kDim = 4;

ApanConfig Config(int32_t hops) {
  ApanConfig c;
  c.num_nodes = 6;
  c.embedding_dim = kDim;
  c.mailbox_slots = 4;
  c.sampled_neighbors = 2;
  c.propagation_hops = hops;
  return c;
}

InteractionRecord Record(graph::NodeId src, graph::NodeId dst, double t,
                         graph::EdgeId edge, float zs, float zd) {
  InteractionRecord r;
  r.event = {src, dst, t, edge};
  r.z_src.assign(kDim, zs);
  r.z_dst.assign(kDim, zd);
  return r;
}

struct Fixture {
  Fixture() : graph(6), features(kDim) {
    // Pre-existing history: 0-1 @1, 1-2 @2, 2-3 @3.
    for (int i = 0; i < 3; ++i) {
      features.Append(std::vector<float>(kDim, 0.0f));
      APAN_CHECK(graph.AddEvent({i, i + 1, static_cast<double>(i + 1),
                                 static_cast<graph::EdgeId>(i)})
                     .ok());
    }
  }
  graph::TemporalGraph graph;
  graph::EdgeFeatureStore features;
};

TEST(MailPropagatorTest, MakeMailIsSum) {
  Fixture f;
  MailPropagator prop(Config(1), &f.graph, &f.features);
  graph::EdgeId e = f.features.Append({1, 2, 3, 4});
  auto mail = prop.MakeMail(Record(0, 1, 10.0, e, 0.5f, 0.25f));
  // mail = z_src + e + z_dst.
  EXPECT_FLOAT_EQ(mail[0], 0.5f + 1.0f + 0.25f);
  EXPECT_FLOAT_EQ(mail[3], 0.5f + 4.0f + 0.25f);
}

TEST(MailPropagatorTest, EndpointsAlwaysReceiveUnreduced) {
  Fixture f;
  MailPropagator prop(Config(0), &f.graph, &f.features);
  graph::EdgeId e1 = f.features.Append(std::vector<float>(kDim, 0.0f));
  graph::EdgeId e2 = f.features.Append(std::vector<float>(kDim, 0.0f));
  // Node 0 involved in two events: gets two separate deliveries.
  auto deliveries = prop.ComputeDeliveries(
      {Record(0, 4, 10.0, e1, 1.0f, 0.0f), Record(0, 5, 11.0, e2, 2.0f, 0.0f)});
  int node0 = 0;
  for (const auto& d : deliveries) {
    if (d.recipient == 0) {
      ++node0;
      EXPECT_EQ(d.contributions, 1);
    }
  }
  EXPECT_EQ(node0, 2);
  EXPECT_EQ(deliveries.size(), 4u);  // 2 events x 2 endpoints, no hops
}

TEST(MailPropagatorTest, PropagatedMailsAreMeanReduced) {
  Fixture f;
  // Node 2 is a 1-hop neighbor of both 1 and 3; two events touching 1 and
  // 3 both reach node 2, reduced to one delivery.
  MailPropagator prop(Config(1), &f.graph, &f.features);
  graph::EdgeId e1 = f.features.Append(std::vector<float>(kDim, 0.0f));
  graph::EdgeId e2 = f.features.Append(std::vector<float>(kDim, 0.0f));
  auto deliveries = prop.ComputeDeliveries(
      {Record(1, 4, 10.0, e1, 1.0f, 0.0f),
       Record(3, 5, 11.0, e2, 3.0f, 0.0f)});
  const MailDelivery* to2 = nullptr;
  for (const auto& d : deliveries) {
    if (d.recipient == 2) {
      EXPECT_EQ(to2, nullptr) << "node 2 must get exactly one delivery";
      to2 = &d;
    }
  }
  ASSERT_NE(to2, nullptr);
  EXPECT_EQ(to2->contributions, 2);
  // Mean of mails (1.0) and (3.0) elementwise = 2.0.
  EXPECT_FLOAT_EQ(to2->mail[0], 2.0f);
  EXPECT_EQ(to2->timestamp, 11.0);  // newest contribution
}

TEST(MailPropagatorTest, ZeroHopsReachesOnlyEndpoints) {
  Fixture f;
  MailPropagator prop(Config(0), &f.graph, &f.features);
  graph::EdgeId e = f.features.Append(std::vector<float>(kDim, 0.0f));
  auto deliveries =
      prop.ComputeDeliveries({Record(1, 4, 10.0, e, 0.0f, 0.0f)});
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0].recipient, 1);
  EXPECT_EQ(deliveries[1].recipient, 4);
}

TEST(MailPropagatorTest, TwoHopReachesNeighborsOfNeighbors) {
  Fixture f;
  MailPropagator prop(Config(2), &f.graph, &f.features);
  graph::EdgeId e = f.features.Append(std::vector<float>(kDim, 0.0f));
  // Event at node 3: hop1 = {2}, hop2 = neighbors of 2 = {1, 3}; 3 is an
  // endpoint so only 1 appears in the reduced section.
  auto deliveries =
      prop.ComputeDeliveries({Record(3, 5, 10.0, e, 0.0f, 0.0f)});
  std::map<graph::NodeId, int64_t> got;
  for (const auto& d : deliveries) got[d.recipient] += 1;
  EXPECT_TRUE(got.count(3));  // endpoint
  EXPECT_TRUE(got.count(5));  // endpoint
  EXPECT_TRUE(got.count(2));  // 1-hop
  EXPECT_TRUE(got.count(1));  // 2-hop via 2
}

TEST(MailPropagatorTest, SamplingNeverUsesTheFuture) {
  Fixture f;
  MailPropagator prop(Config(1), &f.graph, &f.features);
  graph::EdgeId e = f.features.Append(std::vector<float>(kDim, 0.0f));
  // At t=1.5, node 1's only past neighbor is 0 (edge @1); edge to 2 (@2)
  // is in the future.
  auto deliveries =
      prop.ComputeDeliveries({Record(1, 5, 1.5, e, 0.0f, 0.0f)});
  for (const auto& d : deliveries) {
    EXPECT_NE(d.recipient, 2) << "future edge leaked into propagation";
  }
}

TEST(MailPropagatorTest, PropagateWritesMailboxes) {
  Fixture f;
  ApanConfig cfg = Config(1);
  MailPropagator prop(cfg, &f.graph, &f.features);
  Mailbox box(cfg.num_nodes, cfg.mailbox_slots, cfg.embedding_dim);
  graph::EdgeId e = f.features.Append(std::vector<float>(kDim, 0.0f));
  const int64_t delivered =
      prop.Propagate({Record(1, 4, 10.0, e, 1.0f, 1.0f)}, &box);
  EXPECT_GT(delivered, 2);
  EXPECT_EQ(box.ValidCount(1), 1);
  EXPECT_EQ(box.ValidCount(4), 1);
  EXPECT_FLOAT_EQ(box.RawSlot(1, 0)[0], 2.0f);  // 1 + 0 + 1
}

TEST(MailPropagatorTest, SelfLoopSingleEndpointDelivery) {
  Fixture f;
  MailPropagator prop(Config(0), &f.graph, &f.features);
  graph::EdgeId e = f.features.Append(std::vector<float>(kDim, 0.0f));
  auto deliveries =
      prop.ComputeDeliveries({Record(2, 2, 10.0, e, 1.0f, 1.0f)});
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].recipient, 2);
}

TEST(MailPropagatorTest, PropagateRowsMatchesPerElementForm) {
  // The flat kernel reads endpoint embeddings as rows of one shared
  // matrix (an endpoint in several events is one row); the per-element
  // form lays each record out on its own. Both must yield the same rows,
  // bit for bit, with sequence tags from the global event index.
  Fixture f;
  MailPropagator prop(Config(1), &f.graph, &f.features);
  const graph::EdgeId e = f.features.Append({0.5f, -1.0f, 2.0f, 0.125f});
  const std::vector<float> z = {0.1f, 0.2f, 0.3f, 0.4f,    // node 0
                                -1.5f, 2.5f, 0.0f, 7.0f,   // node 1
                                3.0f, -0.25f, 1.0f, 0.5f};  // node 2
  const std::vector<graph::Event> events = {
      {0, 1, 10.0, e}, {1, 2, 11.0, e}, {2, 2, 12.0, e}};
  const std::vector<int64_t> src_row = {0, 1, 2}, dst_row = {1, 2, 2};
  const std::vector<int64_t> event_index = {4, 5, 6};
  // Repeated recipients (4, 5) across events and endpoints to skip.
  const std::vector<std::vector<graph::HopEntry>> hops = {
      {{4}, {1}, {5}}, {{4}, {0}, {4}}, {{2}, {5}}};

  RowBlock hop0, partial;
  prop.PropagateRows({events, event_index, z, src_row, dst_row}, hops,
                     &hop0, &partial);

  std::vector<InteractionRecord> records;
  for (size_t r = 0; r < events.size(); ++r) {
    InteractionRecord rec;
    rec.event = events[r];
    rec.z_src.assign(z.begin() + src_row[r] * kDim,
                     z.begin() + (src_row[r] + 1) * kDim);
    rec.z_dst.assign(z.begin() + dst_row[r] * kDim,
                     z.begin() + (dst_row[r] + 1) * kDim);
    records.push_back(rec);
  }
  const PartialPropagation expected =
      prop.ComputePartialFromHops(records, event_index, hops);

  EXPECT_EQ(hop0.sequence, (std::vector<int64_t>{8, 9, 10, 11, 12}));
  ASSERT_EQ(hop0.size(), expected.hop0.size());
  for (size_t i = 0; i < hop0.size(); ++i) {
    const auto& want = expected.hop0[i];
    EXPECT_EQ(hop0.sequence[i], want.sequence);
    EXPECT_EQ(hop0.node[i], want.delivery.recipient);
    EXPECT_EQ(hop0.timestamp[i], want.delivery.timestamp);
    EXPECT_EQ(hop0.count[i], 1);
    EXPECT_EQ(std::memcmp(hop0.row(i), want.delivery.mail.data(),
                          kDim * sizeof(float)),
              0);
  }
  EXPECT_EQ(partial.node, (std::vector<graph::NodeId>{0, 4, 5}));
  EXPECT_EQ(partial.count, (std::vector<int64_t>{1, 3, 2}));
  EXPECT_TRUE(partial.sequence.empty());
  ASSERT_EQ(partial.size(), expected.partial.size());
  for (size_t i = 0; i < partial.size(); ++i) {
    const auto& want = expected.partial[i];
    EXPECT_EQ(partial.node[i], want.recipient);
    EXPECT_EQ(partial.timestamp[i], want.newest);
    EXPECT_EQ(partial.count[i], want.count);
    EXPECT_EQ(std::memcmp(partial.row(i), want.sum.data(),
                          kDim * sizeof(float)),
              0);
  }
}

TEST(MailPropagatorTest, DimensionMismatchRejectedAtConstruction) {
  graph::TemporalGraph g(3);
  graph::EdgeFeatureStore wrong(kDim + 1);
  ApanConfig cfg = Config(1);
  cfg.num_nodes = 3;
  EXPECT_DEATH(MailPropagator(cfg, &g, &wrong), "mail dim");
}

}  // namespace
}  // namespace core
}  // namespace apan
