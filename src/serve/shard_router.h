// Deterministic partition of the node id space into shards.
//
// APAN's mailbox is partitionable by node: every write (ψ mail append,
// z(t−) update) and every synchronous read (mailbox read-out + last
// embedding) touches per-node rows only, so giving each shard exclusive
// ownership of a node subset makes shard-local state access lock-free
// with respect to other shards. The paper's §3.6 tolerance for
// out-of-order mail is what makes the cross-shard routing correct: a
// recipient's FIFO mailbox reads out time-sorted, so mail arriving from
// many shards in arbitrary interleavings converges to the same read-out.
//
// The router is a thin view over a shared graph::NodePartition — the
// SAME index instance the graph slices and per-shard state stores
// consume, so all three planes agree on every node's owner by
// construction, whichever builder produced the index (the canonical hash
// or the locality-aware greedy assignment).

#ifndef APAN_SERVE_SHARD_ROUTER_H_
#define APAN_SERVE_SHARD_ROUTER_H_

#include <cstdint>
#include <memory>

#include "graph/node_partition.h"
#include "graph/temporal_graph.h"
#include "util/status.h"

namespace apan {
namespace serve {

/// \brief Maps node ids (and events, via their source endpoint) to shards
/// through a shared ownership index.
///
/// With the default (hash) index the mapping is a pure function of
/// (node, num_shards) — stable across runs and processes, so a
/// distributed deployment can compute it on every tier without
/// coordination. A locality index is a pure function of the warmup
/// stream it was built from, so tiers sharing that stream still agree.
class ShardRouter {
 public:
  /// Builds the canonical hash index (NodePartition::BuildDefault) — for
  /// standalone use and tests.
  ShardRouter(int num_shards, int64_t num_nodes);

  /// Shares a caller-owned ownership index (hash or locality built).
  explicit ShardRouter(std::shared_ptr<const graph::NodePartition> partition);

  int num_shards() const { return partition_->num_shards; }
  int64_t num_nodes() const { return partition_->num_nodes(); }
  const std::shared_ptr<const graph::NodePartition>& partition() const {
    return partition_;
  }

  /// Owner shard of `node`'s state-store rows (mailbox slice + z(t−)).
  int ShardOf(graph::NodeId node) const;

  /// Home shard of an event: the shard that samples its k-hop
  /// neighbourhood (N) and sums its propagated mail there (ρ), namely the
  /// source endpoint's owner.
  int HomeShardOf(const graph::Event& event) const {
    return ShardOf(event.src);
  }

 private:
  std::shared_ptr<const graph::NodePartition> partition_;
};

}  // namespace serve
}  // namespace apan

#endif  // APAN_SERVE_SHARD_ROUTER_H_
