#include "core/apan_model.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "data/synthetic.h"
#include "tensor/arena.h"

namespace apan {
namespace core {
namespace {

constexpr int64_t kDim = 8;

ApanConfig Config() {
  ApanConfig c;
  c.num_nodes = 12;
  c.embedding_dim = kDim;
  c.num_heads = 2;
  c.mailbox_slots = 4;
  c.sampled_neighbors = 3;
  c.propagation_hops = 1;
  c.mlp_hidden = 16;
  c.dropout = 0.0f;
  return c;
}

/// A batch in ProcessBatchPostInference's flat form. Add() gives each
/// event its own two embedding rows, filled with constants.
struct FlatBatch {
  std::vector<graph::Event> events;
  std::vector<float> z;
  std::vector<int64_t> src_row, dst_row;

  FlatBatch& Add(graph::NodeId s, graph::NodeId d, double t, graph::EdgeId e,
                 float zs = 1.0f, float zd = 2.0f) {
    events.push_back({s, d, t, e});
    src_row.push_back(static_cast<int64_t>(z.size()) / kDim);
    z.insert(z.end(), kDim, zs);
    dst_row.push_back(static_cast<int64_t>(z.size()) / kDim);
    z.insert(z.end(), kDim, zd);
    return *this;
  }
};

struct Fixture {
  Fixture() : features(kDim), model(Config(), &features, 99) {
    for (int i = 0; i < 8; ++i) {
      features.Append(std::vector<float>(kDim, 0.1f * (i + 1)));
    }
  }
  Status Process(const FlatBatch& b) {
    return model.ProcessBatchPostInference(b.events, b.z, b.src_row,
                                           b.dst_row);
  }
  graph::EdgeFeatureStore features;
  ApanModel model;
};

TEST(ApanModelTest, SynchronousPathNeverQueriesGraph) {
  Fixture f;
  // Populate some history through the async path.
  ASSERT_TRUE(f.Process(FlatBatch().Add(0, 1, 1.0, 0).Add(1, 2, 2.0, 1)).ok());
  f.model.graph().ResetQueryCount();
  // Inference link: encode + decode only.
  tensor::NoGradGuard no_grad;
  auto out = f.model.EncodeNodes({0, 1, 2, 5});
  (void)f.model.link_decoder().Forward(
      tensor::GatherRows(out.embeddings, {0, 1}),
      tensor::GatherRows(out.embeddings, {2, 3}));
  EXPECT_EQ(f.model.graph().query_count(), 0)
      << "APAN's synchronous link must not touch the graph store";
}

TEST(ApanModelTest, AsynchronousPathDoesQueryGraph) {
  Fixture f;
  ASSERT_TRUE(f.Process(FlatBatch().Add(0, 1, 1.0, 0)).ok());
  f.model.graph().ResetQueryCount();
  ASSERT_TRUE(f.Process(FlatBatch().Add(1, 2, 2.0, 1)).ok());
  EXPECT_GT(f.model.graph().query_count(), 0);
}

TEST(ApanModelTest, ProcessBatchUpdatesStateMailboxGraph) {
  Fixture f;
  ASSERT_TRUE(f.Process(FlatBatch().Add(3, 4, 1.0, 2)).ok());
  // State: z(t−) overwritten with the record embeddings.
  EXPECT_FLOAT_EQ(f.model.LastEmbedding(3)[0], 1.0f);
  EXPECT_FLOAT_EQ(f.model.LastEmbedding(4)[0], 2.0f);
  EXPECT_FLOAT_EQ(f.model.LastEmbedding(5)[0], 0.0f);
  // Mailbox: both endpoints received the mail = 1 + e + 2.
  EXPECT_EQ(f.model.mailbox().ValidCount(3), 1);
  EXPECT_FLOAT_EQ(f.model.mailbox().RawSlot(3, 0)[0],
                  1.0f + 0.1f * 3 + 2.0f);
  // Graph: event appended.
  EXPECT_EQ(f.model.graph().num_events(), 1);
}

TEST(ApanModelTest, LaterRecordWinsStateOnDuplicates) {
  Fixture f;
  ASSERT_TRUE(f.Process(FlatBatch()
                            .Add(0, 1, 1.0, 0)
                            .Add(0, 2, 2.0, 1, /*zs=*/9.0f))
                  .ok());
  EXPECT_FLOAT_EQ(f.model.LastEmbedding(0)[0], 9.0f);
}

TEST(ApanModelTest, GatherAndUpdateRoundTrip) {
  Fixture f;
  tensor::Tensor vals = tensor::Tensor::Full({2, kDim}, 3.5f);
  f.model.UpdateLastEmbeddings({7, 9}, vals);
  tensor::Tensor back = f.model.GatherLastEmbeddings({9, 7, 0});
  EXPECT_FLOAT_EQ(back.at(0, 0), 3.5f);
  EXPECT_FLOAT_EQ(back.at(1, 0), 3.5f);
  EXPECT_FLOAT_EQ(back.at(2, 0), 0.0f);
}

TEST(ApanModelTest, ResetStateClearsEverything) {
  Fixture f;
  ASSERT_TRUE(f.Process(FlatBatch().Add(0, 1, 1.0, 0)).ok());
  f.model.ResetState();
  EXPECT_FLOAT_EQ(f.model.LastEmbedding(0)[0], 0.0f);
  EXPECT_EQ(f.model.mailbox().ValidCount(0), 0);
  EXPECT_EQ(f.model.graph().num_events(), 0);
  // Weights survive the reset.
  EXPECT_GT(f.model.ParameterCount(), 0);
}

TEST(ApanModelTest, EncodeNodesUsesMailboxContent) {
  Fixture f;
  f.model.SetTraining(false);
  tensor::NoGradGuard no_grad;
  auto before = f.model.EncodeNodes({5});
  ASSERT_TRUE(f.Process(FlatBatch().Add(5, 6, 1.0, 0)).ok());
  // Zero out state so only the mailbox differs from the cold start.
  f.model.UpdateLastEmbeddings({5},
                               tensor::Tensor::Zeros({1, kDim}));
  auto after = f.model.EncodeNodes({5});
  float diff = 0.0f;
  for (int64_t i = 0; i < kDim; ++i) {
    diff += std::abs(after.embeddings.item(i) - before.embeddings.item(i));
  }
  EXPECT_GT(diff, 1e-4f);
}

TEST(ApanModelTest, ParameterInventoryIncludesAllHeads) {
  Fixture f;
  // Encoder + link + edge + node decoders all contribute.
  const auto params = f.model.Parameters();
  EXPECT_GT(params.size(), 15u);
}

TEST(ApanModelDeathTest, EmbeddingRowOutOfRangeAborts) {
  Fixture f;
  FlatBatch b;
  b.Add(0, 1, 1.0, 0);
  b.dst_row[0] = 2;  // the matrix holds rows 0 and 1
  EXPECT_DEATH(static_cast<void>(f.Process(b)), "row out of range");
  b.dst_row[0] = -1;
  EXPECT_DEATH(static_cast<void>(f.Process(b)), "row out of range");
}

// ---- Serial-path digests -----------------------------------------------------
// The serial path is the oracle every sharded determinism suite compares
// against, so its output is pinned here bit for bit: the z(t−) rows and
// the mailbox (payloads, timestamps, ring and order planes) after serving
// a synthetic stream twice with ResetState in between. The second pass
// pins that ResetState leaves the kUniform sampling stream running. The
// values were recorded from the record-form serial path this flat path
// replaced (per-record mail vectors delivered by Mailbox::DeliverBatch).

uint64_t Fnv1a(uint64_t h, const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

template <typename T>
uint64_t Fnv1a(uint64_t h, std::span<const T> values) {
  return Fnv1a(h, values.data(), values.size_bytes());
}

struct SerialDigest {
  uint64_t z = 0;
  uint64_t mail = 0;
};

/// Encodes one batch's unique nodes once and completes it on the serial
/// path.
void ServeBatch(ApanModel* model, std::span<const graph::Event> slice) {
  tensor::NoGradGuard no_grad;
  tensor::ArenaScope arena;
  std::vector<graph::NodeId> unique;
  std::unordered_map<graph::NodeId, int64_t> row_of;
  const auto intern = [&](graph::NodeId v) {
    const auto [it, inserted] =
        row_of.try_emplace(v, static_cast<int64_t>(unique.size()));
    if (inserted) unique.push_back(v);
    return it->second;
  };
  std::vector<int64_t> src_rows, dst_rows;
  for (const graph::Event& e : slice) {
    src_rows.push_back(intern(e.src));
    dst_rows.push_back(intern(e.dst));
  }
  const ApanEncoder::Output enc = model->EncodeNodes(unique);
  const std::span<const float> z(enc.embeddings.data(),
                                 static_cast<size_t>(enc.embeddings.numel()));
  ASSERT_TRUE(
      model->ProcessBatchPostInference(slice, z, src_rows, dst_rows).ok());
}

SerialDigest ServeAndDigest(PropagationSampling sampling, int32_t hops) {
  const data::Dataset ds = *data::GenerateSynthetic(
      data::SyntheticConfig::WikipediaLike().Scaled(0.05));
  ApanConfig config;
  config.num_nodes = ds.num_nodes;
  config.embedding_dim = ds.feature_dim();
  config.mailbox_slots = 5;
  config.sampled_neighbors = 5;
  config.propagation_hops = hops;
  config.dropout = 0.0f;
  config.sampling = sampling;
  ApanModel model(config, &ds.features, 11);
  model.SetTraining(false);
  const std::span<const graph::Event> events(ds.events.data(), 600);
  for (int pass = 0; pass < 2; ++pass) {
    model.ResetState();
    for (size_t lo = 0; lo < events.size(); lo += 100) {
      ServeBatch(&model, events.subspan(lo, 100));
    }
  }
  const Mailbox& box = model.mailbox();
  EXPECT_GT(box.ValidCount(ds.events[599].src), 0);
  constexpr uint64_t kBasis = 14695981039346656037ULL;
  SerialDigest digest;
  digest.z = Fnv1a(kBasis, model.state_store().raw_state());
  uint64_t h = Fnv1a(kBasis, box.raw_data());
  h = Fnv1a(h, box.raw_timestamps());
  h = Fnv1a(h, box.raw_head());
  h = Fnv1a(h, box.raw_count());
  digest.mail = Fnv1a(h, box.raw_order());
  return digest;
}

TEST(ApanModelTest, SerialDigestIsPinnedMostRecentTwoHop) {
  const SerialDigest d = ServeAndDigest(PropagationSampling::kMostRecent, 2);
  EXPECT_EQ(d.z, 0xfc018b91cef9cae8ULL);
  EXPECT_EQ(d.mail, 0xc202189d75aebee7ULL);
}

TEST(ApanModelTest, SerialDigestIsPinnedUniformTwoHop) {
  const SerialDigest d = ServeAndDigest(PropagationSampling::kUniform, 2);
  EXPECT_EQ(d.z, 0xfd4f5e4281385ebcULL);
  EXPECT_EQ(d.mail, 0xaf5200b765b9f29fULL);
}

}  // namespace
}  // namespace core
}  // namespace apan
