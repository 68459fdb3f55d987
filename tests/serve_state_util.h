// Shared test helpers for the serving suites: the serial oracle every
// determinism test compares against, and stitched-mailbox equality
// between a ShardedEngine's per-shard NodeStateStores and that oracle's
// monolithic mailbox.
//
// The oracle (RunSerial) serves the stream through core::ApanModel alone,
// one batch at a time with nothing in flight: encode the batch's unique
// nodes once, score with the link decoder, then complete the batch with
// ProcessBatchPostInference before the next one is encoded.
//
// The engine's served state lives in N disjoint per-shard stores, not in
// the model. Determinism is asserted by *stitching*: for every node, read
// the owner shard's store and compare against the oracle — counts and
// timestamps must match bitwise (no tolerance). Used by
// serve_sharded_test, serve_transport_test, serve_recovery_test and
// serve_state_test.

#ifndef APAN_TESTS_SERVE_STATE_UTIL_H_
#define APAN_TESTS_SERVE_STATE_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/apan_model.h"
#include "data/dataset.h"
#include "serve/sharded_engine.h"
#include "tensor/arena.h"
#include "tensor/ops.h"

namespace apan {
namespace serve {
namespace testutil {

/// What the serial oracle served: the model holding the final state, and
/// P(edge) per served event in stream order.
struct SerialRun {
  std::unique_ptr<core::ApanModel> model;
  std::vector<float> scores;
};

/// \brief The serial oracle: a fresh ApanModel(config, seed) in eval
/// mode serves the first `num_events` of `dataset` in consecutive batches
/// of `batch` (a trailing partial batch is not served), each batch fully
/// completed before the next is encoded.
inline SerialRun RunSerial(const core::ApanConfig& config,
                           const data::Dataset& dataset, uint64_t seed,
                           size_t num_events, size_t batch) {
  SerialRun run;
  run.model =
      std::make_unique<core::ApanModel>(config, &dataset.features, seed);
  const std::span<const graph::Event> events(dataset.events.data(),
                                             num_events);
  core::ApanModel& model = *run.model;
  model.SetTraining(false);
  for (size_t lo = 0; lo + batch <= events.size(); lo += batch) {
    tensor::NoGradGuard no_grad;
    tensor::ArenaScope arena;
    const std::span<const graph::Event> slice = events.subspan(lo, batch);
    // Each node is encoded once per batch (paper §3.2).
    std::vector<graph::NodeId> unique_nodes;
    std::unordered_map<graph::NodeId, int64_t> index_of;
    const auto intern = [&](graph::NodeId v) {
      const auto [it, inserted] = index_of.try_emplace(
          v, static_cast<int64_t>(unique_nodes.size()));
      if (inserted) unique_nodes.push_back(v);
      return it->second;
    };
    std::vector<int64_t> src_rows, dst_rows;
    for (const graph::Event& e : slice) {
      src_rows.push_back(intern(e.src));
      dst_rows.push_back(intern(e.dst));
    }
    const core::ApanEncoder::Output enc = model.EncodeNodes(unique_nodes);
    const tensor::Tensor probs = tensor::Sigmoid(model.ScoreLinkLogits(
        tensor::GatherRows(enc.embeddings, src_rows),
        tensor::GatherRows(enc.embeddings, dst_rows)));
    run.scores.insert(run.scores.end(), probs.data(),
                      probs.data() + probs.numel());
    const std::span<const float> z(enc.embeddings.data(),
                                   static_cast<size_t>(enc.embeddings.numel()));
    EXPECT_TRUE(
        model.ProcessBatchPostInference(slice, z, src_rows, dst_rows).ok());
  }
  return run;
}

/// Asserts the engine's stitched per-shard mailbox state is bitwise-equal
/// (valid counts + time-sorted timestamps) to `reference`'s monolithic
/// mailbox, and that at least `min_nonempty` nodes actually hold mail (a
/// trivially-empty comparison must not pass). Call after Flush/Shutdown
/// while the engine is still alive (the stores live in the engine).
inline void ExpectStitchedMailboxEqual(const ShardedEngine& engine,
                                       const core::ApanModel& reference,
                                       int64_t num_nodes,
                                       int64_t min_nonempty = 10) {
  int64_t nonempty = 0;
  for (graph::NodeId v = 0; v < num_nodes; ++v) {
    const core::NodeStateStore& store =
        engine.state_store(engine.router().ShardOf(v));
    ASSERT_TRUE(store.Owns(v)) << "router/store ownership disagree, node " << v;
    ASSERT_EQ(store.ValidCount(v), reference.mailbox().ValidCount(v))
        << "node " << v;
    if (store.ValidCount(v) == 0) continue;
    ++nonempty;
    const auto ra = store.ReadBatch({v});
    const auto rb = reference.mailbox().ReadBatch({v});
    ASSERT_EQ(ra.counts[0], rb.counts[0]) << "node " << v;
    for (size_t i = 0; i < ra.timestamps.size(); ++i) {
      ASSERT_EQ(ra.timestamps[i], rb.timestamps[i])
          << "node " << v << " slot " << i;  // bitwise: no tolerance
    }
  }
  EXPECT_GT(nonempty, min_nonempty);
}

/// Asserts the engine's stitched state is bitwise the serial oracle's in
/// full: every node's valid mail rows (payload bytes, read-out order), their
/// timestamps, and its z(t−) row. Holds whenever the ρ reduction order
/// matches the serial one — always at 1 shard. Call after Flush.
inline void ExpectStitchedStateBitwise(const ShardedEngine& engine,
                                       const core::ApanModel& reference,
                                       int64_t num_nodes) {
  ExpectStitchedMailboxEqual(engine, reference, num_nodes);
  for (graph::NodeId v = 0; v < num_nodes; ++v) {
    const core::NodeStateStore& store =
        engine.state_store(engine.router().ShardOf(v));
    const auto ra = store.ReadBatch({v});
    const auto rb = reference.mailbox().ReadBatch({v});
    const size_t floats =
        static_cast<size_t>(ra.counts[0] * ra.mails.shape()[2]);
    ASSERT_EQ(std::memcmp(ra.mails.data(), rb.mails.data(),
                          floats * sizeof(float)),
              0)
        << "mail payload bytes differ, node " << v;
    const std::vector<float> za = store.LastEmbedding(v);
    const std::vector<float> zb = reference.state_store().LastEmbedding(v);
    ASSERT_EQ(za.size(), zb.size());
    ASSERT_EQ(std::memcmp(za.data(), zb.data(), za.size() * sizeof(float)), 0)
        << "z(t-) row bytes differ, node " << v;
  }
}

/// FNV-1a (64-bit) over the engine's stitched state, node by node: valid
/// mail count, the valid mail rows' bytes and timestamps in read-out
/// order, then the z(t−) row bytes. A pinned value proves a rework changed
/// no arithmetic anywhere in the propagate → route → merge path, including
/// the multi-shard ρ order the serial oracle cannot check.
inline uint64_t StitchedStateDigest(const ShardedEngine& engine,
                                    int64_t num_nodes) {
  uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](const void* data, size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  for (graph::NodeId v = 0; v < num_nodes; ++v) {
    const core::NodeStateStore& store =
        engine.state_store(engine.router().ShardOf(v));
    const auto read = store.ReadBatch({v});
    const int64_t count = read.counts[0];
    mix(&count, sizeof(count));
    mix(read.mails.data(),
        static_cast<size_t>(count * read.mails.shape()[2]) * sizeof(float));
    mix(read.timestamps.data(), static_cast<size_t>(count) * sizeof(double));
    const std::vector<float> z = store.LastEmbedding(v);
    mix(z.data(), z.size() * sizeof(float));
  }
  return h;
}

/// Asserts the engine left the model's own mutable state untouched. The
/// strongest form holds when nothing else used the model monolithically:
/// the lazily-allocated default store was never even materialized. When
/// another actor did materialize it (e.g. offline training before
/// deployment), fall back to checking it holds no mail.
inline void ExpectModelStateUntouched(const core::ApanModel& model,
                                      int64_t num_nodes) {
  if (!model.state_store_allocated()) return;  // never materialized
  for (graph::NodeId v = 0; v < num_nodes; ++v) {
    ASSERT_EQ(model.mailbox().ValidCount(v), 0)
        << "engine wrote the model's mailbox, node " << v;
  }
}

}  // namespace testutil
}  // namespace serve
}  // namespace apan

#endif  // APAN_TESTS_SERVE_STATE_UTIL_H_
