// The node-state plane — APAN's mutable per-node serve-time state for an
// arbitrary node subset: a Mailbox slice plus the z(t−) embedding rows,
// with dense local indexing so a store covering one shard of a hash
// partition costs memory proportional to the nodes it owns, not the whole
// graph (TGAT / TAP-GNN make the same split: the node-state table is what
// must be partitioned to scale temporal-graph inference; the weights are
// small and trivially replicable).
//
// Addressing is by *global* node id: the store translates to its dense
// local rows internally and CHECK-fails on a node it does not own, so a
// misrouted write can never land in a foreign shard's memory. A store
// constructed without an ownership list covers every node with the
// identity mapping — that is ApanModel's default store, through which
// training and the serial serving path keep exactly their monolithic
// behavior. serve::ShardedEngine constructs one disjoint store
// per shard instead, so each shard's mutable state lives in genuinely
// private memory (no false sharing on the synchronous encode path).

#ifndef APAN_CORE_NODE_STATE_STORE_H_
#define APAN_CORE_NODE_STATE_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/mailbox.h"
#include "graph/node_partition.h"
#include "graph/temporal_graph.h"
#include "tensor/tensor.h"

namespace apan {
namespace core {

/// \brief Mutable per-node state (mailbox slice + z(t−) rows) for a node
/// subset, addressed by global node id.
class NodeStateStore {
 public:
  /// \brief Dense index over a disjoint N-way partition of the node
  /// space, built once and shared (shared_ptr) by every store of the
  /// partition AND by serve::ShardRouter (one engine stores the index
  /// exactly once). Without sharing, per-store index memory would scale
  /// O(num_shards * num_nodes) and sink the "partitioned stores sum to
  /// ~1x monolithic" invariant at high shard counts.
  using Partition = graph::NodePartition;

  /// Store covering all of `[0, num_nodes)` with the identity mapping
  /// (local row == node id). This is the monolithic / default layout.
  NodeStateStore(int64_t num_nodes, int64_t slots, int64_t dim);

  /// One shard's store of a shared partition — the serve-time layout
  /// (serve::ShardedEngine builds one Partition and N of these). An
  /// arbitrary subset is the 1-shard-of-2 special case: put the subset
  /// on one shard of the partition and the rest on the other.
  NodeStateStore(std::shared_ptr<const Partition> partition, int shard,
                 int64_t slots, int64_t dim);

  NodeStateStore(const NodeStateStore&) = delete;
  NodeStateStore& operator=(const NodeStateStore&) = delete;

  /// Size of the *global* id space this store addresses into.
  int64_t num_nodes() const { return num_nodes_; }
  /// Nodes this store actually holds state for.
  int64_t owned_count() const { return mailbox_.num_nodes(); }
  int64_t slots() const { return mailbox_.slots(); }
  int64_t dim() const { return dim_; }
  bool Owns(graph::NodeId node) const;

  // ---- z(t−) plane ---------------------------------------------------------

  /// Stored embeddings of `nodes` as a constant {batch, dim} tensor.
  /// CHECK-fails on a node outside this store's ownership.
  tensor::Tensor GatherLastEmbeddings(
      const std::vector<graph::NodeId>& nodes) const;

  /// Writes `embeddings` ({batch, dim}) row i as `nodes[i]`'s new z(t−).
  void UpdateLastEmbeddings(const std::vector<graph::NodeId>& nodes,
                            const tensor::Tensor& embeddings);

  /// Raw read of one node's stored embedding.
  std::vector<float> LastEmbedding(graph::NodeId node) const;

  /// Raw write of one node's stored embedding. Bounds-checked: `node`
  /// must be owned and `z.size()` must equal dim() — a violation aborts
  /// instead of silently indexing out of range.
  void SetLastEmbedding(graph::NodeId node, std::span<const float> z);

  // ---- Mailbox plane -------------------------------------------------------

  /// Batched, time-sorted mailbox read-out for the encoder (global ids).
  Mailbox::ReadResult ReadBatch(const std::vector<graph::NodeId>& nodes) const;

  /// Stores one mail (dim() floats) for owned `node` — Mailbox::Deliver
  /// by global id, the one mailbox write path: the serial
  /// ApanModel::ProcessBatchPostInference and the sharded merge both
  /// apply flat mail rows through this, in delivery order.
  void Deliver(graph::NodeId node, std::span<const float> mail,
               double timestamp);

  int64_t ValidCount(graph::NodeId node) const;
  double NewestTimestamp(graph::NodeId node) const;
  std::span<const float> RawSlot(graph::NodeId node, int64_t slot) const;

  /// The underlying mailbox, addressed by *local row*. Local rows equal
  /// global ids only for an all-nodes store (ApanModel::mailbox() exposes
  /// exactly that); subset stores should go through the global-id API.
  Mailbox& mailbox() { return mailbox_; }
  const Mailbox& mailbox() const { return mailbox_; }

  // ---- Checkpoint hooks (serve/snapshot.cc) --------------------------------

  /// All z(t−) rows in local-row order (owned_count * dim floats).
  std::span<const float> raw_state() const { return state_; }

  /// \brief Replaces every z(t−) row from a decoded snapshot. Rejects a
  /// size mismatch with Status (the store is left unchanged) — restoring
  /// into a store with different ownership must fail loudly, not write
  /// rows into the wrong nodes.
  Status RestoreRawState(std::span<const float> z);

  // ---- Lifecycle -----------------------------------------------------------

  /// Zeroes every z(t−) row and drops all mail (between epochs), exactly
  /// as ApanModel::ResetState does for the default store.
  void Reset();

  /// Bytes of mutable state: mailbox payload (mail + timestamps, as
  /// Mailbox::MemoryBytes counts it) + z(t−) rows + this store's
  /// amortized 1/num_shards share of the shared Partition index (the
  /// all-nodes store needs no index). Disjoint stores over a partition
  /// therefore sum to ~1x the monolithic store at ANY shard count: each
  /// node's rows live in exactly one store, and the partition index is
  /// counted once total — provided the caller instantiates the whole
  /// partition, which is what the accounting is for.
  int64_t MemoryBytes() const;

 private:
  /// Dense row of `node`; CHECK-fails when the store does not own it.
  int64_t LocalRow(graph::NodeId node) const;

  int64_t num_nodes_;
  int64_t dim_;
  /// Identity fast path for the all-nodes store (no index needed);
  /// otherwise the shared partition_ + shard_ form is the index.
  bool dense_all_ = false;
  std::shared_ptr<const Partition> partition_;
  int shard_ = -1;
  Mailbox mailbox_;           // owned_count rows
  std::vector<float> state_;  // owned_count * dim, z(t−) per row
};

}  // namespace core
}  // namespace apan

#endif  // APAN_CORE_NODE_STATE_STORE_H_
