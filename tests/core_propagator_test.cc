#include "core/propagator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
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
  std::vector<float> z;
  std::vector<int64_t> src_row, dst_row;

  void Add(graph::NodeId src, graph::NodeId dst, double t, graph::EdgeId edge,
           float zs, float zd) {
    events.push_back({src, dst, t, edge});
    src_row.push_back(static_cast<int64_t>(z.size()) / kDim);
    z.insert(z.end(), kDim, zs);
    dst_row.push_back(static_cast<int64_t>(z.size()) / kDim);
    z.insert(z.end(), kDim, zd);
  }
  InteractionRows rows() const { return {events, z, src_row, dst_row}; }
  /// Event r's mail, through MailPropagator::MailRow.
  std::vector<float> Mail(const MailPropagator& prop, size_t r) const {
    std::vector<float> mail(kDim);
    prop.MailRow(events[r], z.data() + src_row[r] * kDim,
                 z.data() + dst_row[r] * kDim, mail.data());
    return mail;
  }
};

/// N on `graph` the way the serial path samples it (most-recent, strictly
/// before each event), then the kernel's ρ partial sums.
RowBlock Propagate(const MailPropagator& prop, const ApanConfig& config,
                   const graph::TemporalGraph& graph, const FlatBatch& batch) {
  std::vector<std::vector<graph::HopEntry>> hops(batch.events.size());
  for (size_t r = 0; r < hops.size(); ++r) {
    const graph::Event& e = batch.events[r];
    hops[r] = graph::KHopMostRecent(graph, {e.src, e.dst}, e.timestamp,
                                    config.propagation_hops,
                                    config.sampled_neighbors);
  }
  RowBlock partial;
  prop.PropagateRows(batch.rows(), HopList::FromEntries(hops), &partial);
  return partial;
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
// mail = z_src + e + z_dst; every sampled occurrence of a non-endpoint
// node v adds it to v's ρ sum, records its time, and counts one
// contribution. Sums run in event order, then hop-entry order, as the
// kernel documents.

struct ReferenceSum {
  std::vector<float> sum;
  double newest = -std::numeric_limits<double>::infinity();
  int64_t count = 0;
};

void NaiveReference(const InteractionRows& batch,
                    const graph::EdgeFeatureStore& features,
                    const std::vector<std::vector<graph::HopEntry>>& hops,
                    std::vector<std::vector<float>>* mails,
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
    mails->push_back(mail);
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
  // 2-hop most-recent neighbourhoods, plus hand-added hop entries naming
  // endpoints and repeated recipients.
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

    std::vector<graph::Event> events;
    std::vector<int64_t> src_row, dst_row;
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
    const InteractionRows batch{events, z, src_row, dst_row};

    RowBlock partial;
    prop.PropagateRows(batch, HopList::FromEntries(hops), &partial);
    std::vector<std::vector<float>> want_mails;
    std::map<graph::NodeId, ReferenceSum> want_sums;
    NaiveReference(batch, features, hops, &want_mails, &want_sums);

    std::vector<float> mail(kDim);
    for (size_t r = 0; r < events.size(); ++r) {
      prop.MailRow(events[r], z.data() + src_row[r] * kDim,
                   z.data() + dst_row[r] * kDim, mail.data());
      EXPECT_TRUE(SameFloats(mail.data(), want_mails[r])) << r;
    }
    EXPECT_EQ(partial.width, kDim);
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

    // Restricting every record's hops to one owner's nodes — the list a
    // sharded owner runs the kernel over — yields exactly that owner's
    // rows of the full result, bit for bit.
    for (graph::NodeId owner = 0; owner < 3; ++owner) {
      std::vector<std::vector<graph::HopEntry>> owned(hops.size());
      for (size_t r = 0; r < hops.size(); ++r) {
        for (const graph::HopEntry& entry : hops[r]) {
          if (entry.node % 3 == owner) owned[r].push_back(entry);
        }
      }
      RowBlock part;
      prop.PropagateRows(batch, HopList::FromEntries(owned), &part);
      size_t j = 0;
      for (size_t k = 0; k < partial.size(); ++k) {
        if (partial.node[k] % 3 != owner) continue;
        ASSERT_LT(j, part.size());
        EXPECT_EQ(part.node[j], partial.node[k]);
        EXPECT_EQ(part.timestamp[j], partial.timestamp[k]);
        EXPECT_EQ(part.count[j], partial.count[k]);
        EXPECT_EQ(std::memcmp(part.row(j), partial.row(k),
                              kDim * sizeof(float)),
                  0);
        ++j;
      }
      EXPECT_EQ(j, part.size()) << "owner " << owner;
    }
  }
}

TEST(HopListTest, FromEntriesIsCsrOverTheRecords) {
  const std::vector<std::vector<graph::HopEntry>> entries = {
      {{4}, {5}}, {}, {{7}}};
  const HopList list = HopList::FromEntries(entries);
  EXPECT_EQ(list.offset, (std::vector<uint32_t>{0, 2, 2, 3}));
  EXPECT_EQ(list.node, (std::vector<graph::NodeId>{4, 5, 7}));
  EXPECT_EQ(list.num_events(), 3u);
  EXPECT_TRUE(list.hops(1).empty());
  EXPECT_EQ(list.hops(2)[0], 7);
  EXPECT_TRUE(list.WellFormed());
  EXPECT_TRUE(HopList{}.WellFormed());
}

TEST(HopListTest, WellFormedRejectsBadOffsets) {
  HopList list;
  list.node = {1, 2};
  list.offset = {0, 2, 1, 2};  // decreasing
  EXPECT_FALSE(list.WellFormed());
  list.offset = {1, 2};  // does not start at 0
  EXPECT_FALSE(list.WellFormed());
  list.offset = {0, 1};  // ends short of the nodes
  EXPECT_FALSE(list.WellFormed());
  list.offset = {};  // no records, yet nodes
  EXPECT_FALSE(list.WellFormed());
}

TEST(MailPropagatorTest, PhiIsSum) {
  Fixture f;
  MailPropagator prop(Config(0), &f.features);
  FlatBatch b;
  b.Add(0, 1, 10.0, f.features.Append({1, 2, 3, 4}), 0.5f, 0.25f);
  const std::vector<float> mail = b.Mail(prop, 0);
  // mail = z_src + e + z_dst.
  EXPECT_FLOAT_EQ(mail[0], 0.5f + 1.0f + 0.25f);
  EXPECT_FLOAT_EQ(mail[3], 0.5f + 4.0f + 0.25f);
}

TEST(MailPropagatorTest, DeliverHop0GivesEachEndpointTheMailOnce) {
  Fixture f;
  MailPropagator prop(Config(0), &f.features);
  FlatBatch b;
  b.Add(0, 1, 10.0, f.features.Append({1, 2, 3, 4}), 0.5f, 0.25f);
  b.Add(2, 2, 11.0, f.ZeroEdge(), 1.0f, 2.0f);  // self-loop
  struct Call {
    graph::NodeId node;
    const float* z;
    std::vector<float> mail;
  };
  std::vector<float> scratch(kDim);
  for (size_t r = 0; r < b.events.size(); ++r) {
    std::vector<Call> calls;
    const float* z_src = b.z.data() + b.src_row[r] * kDim;
    const float* z_dst = b.z.data() + b.dst_row[r] * kDim;
    prop.DeliverHop0(b.events[r], z_src, z_dst, scratch,
                     [&calls](graph::NodeId node, const float* z,
                              std::span<const float> mail) {
                       calls.push_back(
                           {node, z, std::vector<float>(mail.begin(),
                                                        mail.end())});
                     });
    const std::vector<float> mail = b.Mail(prop, r);
    if (r == 0) {  // source first, then destination, each with its own z
      ASSERT_EQ(calls.size(), 2u);
      EXPECT_EQ(calls[0].node, 0);
      EXPECT_EQ(calls[0].z, z_src);
      EXPECT_EQ(calls[1].node, 1);
      EXPECT_EQ(calls[1].z, z_dst);
    } else {  // a self-loop's one delivery carries z_dst
      ASSERT_EQ(calls.size(), 1u);
      EXPECT_EQ(calls[0].node, 2);
      EXPECT_EQ(calls[0].z, z_dst);
    }
    for (const Call& call : calls) EXPECT_EQ(call.mail, mail);
  }
}

TEST(MailPropagatorTest, EndpointsNeverReceiveThePropagatedCopy) {
  Fixture f;
  MailPropagator prop(Config(1), &f.features);
  // 1-hop neighbours of 1 are {0, 2} and of 2 are {1, 3}: endpoints 1 and
  // 2 sample each other, but only 0 and 3 get ρ rows.
  FlatBatch b;
  b.Add(1, 2, 10.0, f.ZeroEdge(), 1.0f, 0.0f);
  const RowBlock partial = Propagate(prop, Config(1), f.graph, b);
  EXPECT_EQ(partial.node, (std::vector<graph::NodeId>{0, 3}));
  EXPECT_EQ(partial.count, (std::vector<int64_t>{1, 1}));
}

TEST(MailPropagatorTest, PropagatedMailsAreMeanReduced) {
  Fixture f;
  // Node 2 is a 1-hop neighbor of both 1 and 3; two events touching 1 and
  // 3 both reach node 2, reduced to one row.
  MailPropagator prop(Config(1), &f.features);
  FlatBatch b;
  b.Add(1, 4, 10.0, f.ZeroEdge(), 1.0f, 0.0f);
  b.Add(3, 5, 11.0, f.ZeroEdge(), 3.0f, 0.0f);
  RowBlock partial = Propagate(prop, Config(1), f.graph, b);
  const auto it = std::find(partial.node.begin(), partial.node.end(), 2);
  ASSERT_NE(it, partial.node.end());
  EXPECT_EQ(std::count(partial.node.begin(), partial.node.end(), 2), 1)
      << "node 2 must get exactly one reduced row";
  const auto i = static_cast<size_t>(it - partial.node.begin());
  EXPECT_EQ(partial.count[i], 2);
  EXPECT_EQ(partial.timestamp[i], 11.0);  // newest contribution
  EXPECT_FLOAT_EQ(partial.row(i)[0], 4.0f);  // unfinalized: 1 + 3
  // ρ: mean of mails (1.0) and (3.0) elementwise = 2.0.
  MailPropagator::FinalizeRow(partial.row(i), kDim, partial.count[i]);
  for (int64_t k = 0; k < kDim; ++k) {
    EXPECT_FLOAT_EQ(partial.row(i)[k], 2.0f);
  }
  EXPECT_TRUE(std::is_sorted(partial.node.begin(), partial.node.end()));
}

TEST(MailPropagatorTest, ZeroHopsPropagatesNothing) {
  Fixture f;
  MailPropagator prop(Config(0), &f.features);
  FlatBatch b;
  b.Add(1, 4, 10.0, f.ZeroEdge(), 0.0f, 0.0f);
  EXPECT_TRUE(Propagate(prop, Config(0), f.graph, b).empty());
}

TEST(MailPropagatorTest, TwoHopReachesNeighborsOfNeighbors) {
  Fixture f;
  MailPropagator prop(Config(2), &f.features);
  // Event at node 3: hop1 = {2}, hop2 = neighbors of 2 = {1, 3}; 3 is an
  // endpoint so only 1 and 2 appear in the reduced section.
  FlatBatch b;
  b.Add(3, 5, 10.0, f.ZeroEdge(), 0.0f, 0.0f);
  const RowBlock partial = Propagate(prop, Config(2), f.graph, b);
  EXPECT_EQ(partial.node, (std::vector<graph::NodeId>{1, 2}));
}

TEST(MailPropagatorTest, SamplingNeverUsesTheFuture) {
  Fixture f;
  MailPropagator prop(Config(1), &f.features);
  // At t=1.5, node 1's only past neighbor is 0 (edge @1); edge to 2 (@2)
  // is in the future.
  FlatBatch b;
  b.Add(1, 5, 1.5, f.ZeroEdge(), 0.0f, 0.0f);
  const RowBlock partial = Propagate(prop, Config(1), f.graph, b);
  EXPECT_EQ(partial.node, (std::vector<graph::NodeId>{0}))
      << "a future edge leaked into propagation";
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
