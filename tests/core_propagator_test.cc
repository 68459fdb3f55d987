#include "core/propagator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>

#include "graph/sampling.h"
#include "graph/temporal_graph.h"
#include "util/random.h"

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

/// A batch in the kernel's flat form. Add() gives each event its own two
/// embedding rows, filled with constants.
struct FlatBatch {
  std::vector<graph::Event> events;
  std::vector<int64_t> event_index;
  std::vector<float> z;
  std::vector<int64_t> src_row, dst_row;

  void Add(graph::NodeId src, graph::NodeId dst, double t, graph::EdgeId edge,
           float zs, float zd) {
    event_index.push_back(static_cast<int64_t>(events.size()));
    events.push_back({src, dst, t, edge});
    src_row.push_back(static_cast<int64_t>(z.size()) / kDim);
    z.insert(z.end(), kDim, zs);
    dst_row.push_back(static_cast<int64_t>(z.size()) / kDim);
    z.insert(z.end(), kDim, zd);
  }
  InteractionRows rows() const {
    return {events, event_index, z, src_row, dst_row};
  }
};

struct Output {
  RowBlock hop0;
  RowBlock partial;
};

/// N on `graph` the way the serial path samples it (most-recent, strictly
/// before each event), then the kernel.
Output Propagate(const MailPropagator& prop, const ApanConfig& config,
                 const graph::TemporalGraph& graph, const FlatBatch& batch) {
  std::vector<std::vector<graph::HopEntry>> hops(batch.events.size());
  for (size_t r = 0; r < hops.size(); ++r) {
    const graph::Event& e = batch.events[r];
    hops[r] = graph::KHopMostRecent(graph, {e.src, e.dst}, e.timestamp,
                                    config.propagation_hops,
                                    config.sampled_neighbors);
  }
  Output out;
  prop.PropagateRows(batch.rows(), hops, &out.hop0, &out.partial);
  return out;
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
  graph::EdgeId ZeroEdge() {
    return features.Append(std::vector<float>(kDim, 0.0f));
  }
  graph::TemporalGraph graph;
  graph::EdgeFeatureStore features;
};

// ---- Independent oracle -----------------------------------------------------
// A naive reference written straight from the paper's equations (§3.5),
// sharing no code with the kernel: per event, φ gives
// mail = z_src + e + z_dst; both endpoints receive it unreduced (a
// self-loop once); every sampled occurrence of a non-endpoint node v adds
// it to v's ρ sum, records its time, and counts one contribution. Sums run
// in event order, then hop-entry order, as the kernel documents.

struct ReferenceHop0 {
  int64_t sequence;
  graph::NodeId node;
  double timestamp;
  std::vector<float> mail;
};
struct ReferenceSum {
  std::vector<float> sum;
  double newest = 0.0;
  int64_t count = 0;
};

void NaiveReference(const InteractionRows& batch,
                    const graph::EdgeFeatureStore& features,
                    const std::vector<std::vector<graph::HopEntry>>& hops,
                    std::vector<ReferenceHop0>* hop0,
                    std::map<graph::NodeId, ReferenceSum>* sums) {
  for (size_t r = 0; r < batch.events.size(); ++r) {
    const graph::Event& ev = batch.events[r];
    const float* e = features.Row(ev.edge_id);
    std::vector<float> mail(kDim);
    for (int64_t i = 0; i < kDim; ++i) {
      const float zi = batch.z[static_cast<size_t>(batch.src_row[r] * kDim + i)];
      const float zj = batch.z[static_cast<size_t>(batch.dst_row[r] * kDim + i)];
      mail[static_cast<size_t>(i)] = zi + e[i] + zj;
    }
    hop0->push_back({2 * batch.event_index[r], ev.src, ev.timestamp, mail});
    if (ev.dst != ev.src) {
      hop0->push_back(
          {2 * batch.event_index[r] + 1, ev.dst, ev.timestamp, mail});
    }
    for (const graph::HopEntry& entry : hops[r]) {
      if (entry.node == ev.src || entry.node == ev.dst) continue;
      ReferenceSum& acc = (*sums)[entry.node];
      if (acc.sum.empty()) acc.sum.assign(kDim, 0.0f);
      for (int64_t i = 0; i < kDim; ++i) {
        acc.sum[static_cast<size_t>(i)] += mail[static_cast<size_t>(i)];
      }
      acc.newest = std::max(acc.newest, ev.timestamp);
      ++acc.count;
    }
  }
}

bool SameFloats(const float* a, const std::vector<float>& b) {
  return std::memcmp(a, b.data(), b.size() * sizeof(float)) == 0;
}

TEST(MailPropagatorTest, PropagateRowsMatchesNaiveReferenceBitwise) {
  // Random history, random embeddings in one shared matrix (an endpoint
  // reused across events is one row), random edge features, a self-loop,
  // a non-zero event_index base, 2-hop most-recent neighbourhoods, plus
  // hand-added hop entries naming endpoints and repeated recipients.
  for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const int64_t nodes = 20;
    ApanConfig config = Config(2);
    config.num_nodes = nodes;
    config.sampled_neighbors = 3;
    graph::TemporalGraph graph(nodes);
    graph::EdgeFeatureStore features(kDim);
    const auto random_row = [&rng] {
      std::vector<float> row(kDim);
      for (float& x : row) x = static_cast<float>(rng.Normal());
      return row;
    };
    double t = 0.0;
    for (int i = 0; i < 60; ++i) {
      t += 1.0;
      const auto src = static_cast<graph::NodeId>(rng.UniformInt(nodes));
      const auto dst = static_cast<graph::NodeId>(rng.UniformInt(nodes));
      ASSERT_TRUE(graph.AddEvent({src, dst, t, features.Append(random_row())})
                      .ok());
    }
    MailPropagator prop(config, &features);

    const int64_t base = 7;
    std::vector<graph::Event> events;
    std::vector<int64_t> event_index, src_row, dst_row;
    std::vector<graph::NodeId> row_node;  // node of each z row
    std::vector<float> z;
    const auto row_of = [&](graph::NodeId v) {
      const auto it = std::find(row_node.begin(), row_node.end(), v);
      if (it != row_node.end()) return static_cast<int64_t>(it - row_node.begin());
      row_node.push_back(v);
      const std::vector<float> row = random_row();
      z.insert(z.end(), row.begin(), row.end());
      return static_cast<int64_t>(row_node.size()) - 1;
    };
    std::vector<std::vector<graph::HopEntry>> hops;
    for (int r = 0; r < 15; ++r) {
      t += 0.5;
      const auto src = static_cast<graph::NodeId>(rng.UniformInt(nodes));
      const auto dst = r == 4 ? src  // a self-loop
                              : static_cast<graph::NodeId>(rng.UniformInt(nodes));
      events.push_back({src, dst, t, features.Append(random_row())});
      event_index.push_back(base + r);
      src_row.push_back(row_of(src));
      dst_row.push_back(row_of(dst));
      hops.push_back(graph::KHopMostRecent(graph, {src, dst}, t,
                                           config.propagation_hops,
                                           config.sampled_neighbors));
      if (r % 3 == 0) {
        hops.back().push_back({src});
        hops.back().push_back({dst});
        hops.back().push_back({static_cast<graph::NodeId>(r % nodes)});
        hops.back().push_back({static_cast<graph::NodeId>(r % nodes)});
      }
    }
    const InteractionRows batch{events, event_index, z, src_row, dst_row};

    RowBlock hop0, partial;
    prop.PropagateRows(batch, hops, &hop0, &partial);
    std::vector<ReferenceHop0> want_hop0;
    std::map<graph::NodeId, ReferenceSum> want_sums;
    NaiveReference(batch, features, hops, &want_hop0, &want_sums);

    EXPECT_EQ(hop0.width, kDim);
    ASSERT_EQ(hop0.size(), want_hop0.size());
    ASSERT_EQ(hop0.rows.size(), hop0.size() * kDim);
    for (size_t i = 0; i < hop0.size(); ++i) {
      EXPECT_EQ(hop0.sequence[i], want_hop0[i].sequence) << i;
      EXPECT_EQ(hop0.node[i], want_hop0[i].node) << i;
      EXPECT_EQ(hop0.timestamp[i], want_hop0[i].timestamp) << i;
      EXPECT_EQ(hop0.count[i], 1) << i;
      EXPECT_TRUE(SameFloats(hop0.row(i), want_hop0[i].mail)) << i;
    }
    EXPECT_EQ(partial.width, kDim);
    EXPECT_TRUE(partial.sequence.empty());
    ASSERT_EQ(partial.size(), want_sums.size());
    ASSERT_GT(partial.size(), 3u);
    size_t i = 0;
    for (const auto& [node, want] : want_sums) {
      EXPECT_EQ(partial.node[i], node) << i;
      EXPECT_EQ(partial.timestamp[i], want.newest) << i;
      EXPECT_EQ(partial.count[i], want.count) << i;
      EXPECT_TRUE(SameFloats(partial.row(i), want.sum)) << i;
      ++i;
    }
  }
}

TEST(MailPropagatorTest, PhiIsSum) {
  Fixture f;
  MailPropagator prop(Config(0), &f.features);
  FlatBatch b;
  b.Add(0, 1, 10.0, f.features.Append({1, 2, 3, 4}), 0.5f, 0.25f);
  const Output out = Propagate(prop, Config(0), f.graph, b);
  ASSERT_EQ(out.hop0.size(), 2u);
  // mail = z_src + e + z_dst, to both endpoints.
  EXPECT_FLOAT_EQ(out.hop0.row(0)[0], 0.5f + 1.0f + 0.25f);
  EXPECT_FLOAT_EQ(out.hop0.row(0)[3], 0.5f + 4.0f + 0.25f);
  EXPECT_FLOAT_EQ(out.hop0.row(1)[3], 0.5f + 4.0f + 0.25f);
}

TEST(MailPropagatorTest, EndpointsAlwaysReceiveUnreduced) {
  Fixture f;
  MailPropagator prop(Config(0), &f.features);
  // Node 0 involved in two events: gets two separate rows.
  FlatBatch b;
  b.Add(0, 4, 10.0, f.ZeroEdge(), 1.0f, 0.0f);
  b.Add(0, 5, 11.0, f.ZeroEdge(), 2.0f, 0.0f);
  const Output out = Propagate(prop, Config(0), f.graph, b);
  EXPECT_EQ(out.hop0.node, (std::vector<graph::NodeId>{0, 4, 0, 5}));
  EXPECT_EQ(out.hop0.count, (std::vector<int64_t>{1, 1, 1, 1}));
  EXPECT_EQ(out.hop0.sequence, (std::vector<int64_t>{0, 1, 2, 3}));
  EXPECT_FLOAT_EQ(out.hop0.row(0)[0], 1.0f);
  EXPECT_FLOAT_EQ(out.hop0.row(2)[0], 2.0f);
  EXPECT_TRUE(out.partial.empty());  // no hops
}

TEST(MailPropagatorTest, PropagatedMailsAreMeanReduced) {
  Fixture f;
  // Node 2 is a 1-hop neighbor of both 1 and 3; two events touching 1 and
  // 3 both reach node 2, reduced to one row.
  MailPropagator prop(Config(1), &f.features);
  FlatBatch b;
  b.Add(1, 4, 10.0, f.ZeroEdge(), 1.0f, 0.0f);
  b.Add(3, 5, 11.0, f.ZeroEdge(), 3.0f, 0.0f);
  Output out = Propagate(prop, Config(1), f.graph, b);
  const auto it = std::find(out.partial.node.begin(), out.partial.node.end(), 2);
  ASSERT_NE(it, out.partial.node.end());
  EXPECT_EQ(std::count(out.partial.node.begin(), out.partial.node.end(), 2), 1)
      << "node 2 must get exactly one reduced row";
  const auto i = static_cast<size_t>(it - out.partial.node.begin());
  EXPECT_EQ(out.partial.count[i], 2);
  EXPECT_EQ(out.partial.timestamp[i], 11.0);  // newest contribution
  EXPECT_FLOAT_EQ(out.partial.row(i)[0], 4.0f);  // unfinalized: 1 + 3
  // ρ: mean of mails (1.0) and (3.0) elementwise = 2.0.
  MailPropagator::FinalizeRow(out.partial.row(i), kDim, out.partial.count[i]);
  for (int64_t k = 0; k < kDim; ++k) {
    EXPECT_FLOAT_EQ(out.partial.row(i)[k], 2.0f);
  }
  EXPECT_TRUE(std::is_sorted(out.partial.node.begin(), out.partial.node.end()));
}

TEST(MailPropagatorTest, ZeroHopsReachesOnlyEndpoints) {
  Fixture f;
  MailPropagator prop(Config(0), &f.features);
  FlatBatch b;
  b.Add(1, 4, 10.0, f.ZeroEdge(), 0.0f, 0.0f);
  const Output out = Propagate(prop, Config(0), f.graph, b);
  EXPECT_EQ(out.hop0.node, (std::vector<graph::NodeId>{1, 4}));
  EXPECT_TRUE(out.partial.empty());
}

TEST(MailPropagatorTest, TwoHopReachesNeighborsOfNeighbors) {
  Fixture f;
  MailPropagator prop(Config(2), &f.features);
  // Event at node 3: hop1 = {2}, hop2 = neighbors of 2 = {1, 3}; 3 is an
  // endpoint so only 1 and 2 appear in the reduced section.
  FlatBatch b;
  b.Add(3, 5, 10.0, f.ZeroEdge(), 0.0f, 0.0f);
  const Output out = Propagate(prop, Config(2), f.graph, b);
  EXPECT_EQ(out.hop0.node, (std::vector<graph::NodeId>{3, 5}));
  EXPECT_EQ(out.partial.node, (std::vector<graph::NodeId>{1, 2}));
}

TEST(MailPropagatorTest, SamplingNeverUsesTheFuture) {
  Fixture f;
  MailPropagator prop(Config(1), &f.features);
  // At t=1.5, node 1's only past neighbor is 0 (edge @1); edge to 2 (@2)
  // is in the future.
  FlatBatch b;
  b.Add(1, 5, 1.5, f.ZeroEdge(), 0.0f, 0.0f);
  const Output out = Propagate(prop, Config(1), f.graph, b);
  EXPECT_EQ(out.partial.node, (std::vector<graph::NodeId>{0}));
  for (const graph::NodeId v : out.hop0.node) {
    EXPECT_NE(v, 2) << "future edge leaked into propagation";
  }
}

TEST(MailPropagatorTest, SelfLoopSingleEndpointDelivery) {
  Fixture f;
  MailPropagator prop(Config(0), &f.features);
  FlatBatch b;
  b.Add(2, 2, 10.0, f.ZeroEdge(), 1.0f, 1.0f);
  const Output out = Propagate(prop, Config(0), f.graph, b);
  EXPECT_EQ(out.hop0.node, (std::vector<graph::NodeId>{2}));
  EXPECT_EQ(out.hop0.sequence, (std::vector<int64_t>{0}));
  EXPECT_TRUE(out.partial.empty());
}

TEST(MailPropagatorTest, DimensionMismatchRejectedAtConstruction) {
  graph::EdgeFeatureStore wrong(kDim + 1);
  ApanConfig cfg = Config(1);
  cfg.num_nodes = 3;
  EXPECT_DEATH(MailPropagator(cfg, &wrong), "mail dim");
}

}  // namespace
}  // namespace core
}  // namespace apan
