#include "serve/shard_router.h"

#include <utility>

namespace apan {
namespace serve {

ShardRouter::ShardRouter(int num_shards, int64_t num_nodes)
    : partition_(graph::NodePartition::BuildDefault(num_nodes, num_shards)) {
  APAN_CHECK_MSG(num_shards > 0, "ShardRouter needs at least one shard");
  APAN_CHECK_MSG(num_nodes > 0, "ShardRouter needs a positive node count");
}

ShardRouter::ShardRouter(
    std::shared_ptr<const graph::NodePartition> partition)
    : partition_(std::move(partition)) {
  APAN_CHECK_MSG(partition_ != nullptr, "ShardRouter needs a partition");
  APAN_CHECK_MSG(partition_->num_shards > 0 && partition_->num_nodes() > 0,
                 "ShardRouter needs a non-empty partition");
}

int ShardRouter::ShardOf(graph::NodeId node) const {
  APAN_CHECK_MSG(node >= 0 && node < partition_->num_nodes(),
                 "node id out of range in ShardOf");
  // Reads the shared ownership index so routing and the per-shard
  // mailbox/memory stores agree on every node's owner.
  return partition_->owner_of[static_cast<size_t>(node)];
}

std::vector<std::vector<graph::NodeId>> ShardRouter::PartitionNodes(
    std::span<const graph::NodeId> nodes) const {
  std::vector<std::vector<graph::NodeId>> out(
      static_cast<size_t>(num_shards()));
  for (const graph::NodeId node : nodes) {
    out[static_cast<size_t>(ShardOf(node))].push_back(node);
  }
  return out;
}

std::vector<std::vector<int64_t>> ShardRouter::PartitionEvents(
    std::span<const graph::Event> events) const {
  std::vector<std::vector<int64_t>> out(static_cast<size_t>(num_shards()));
  for (size_t i = 0; i < events.size(); ++i) {
    out[static_cast<size_t>(HomeShardOf(events[i]))].push_back(
        static_cast<int64_t>(i));
  }
  return out;
}

std::vector<int64_t> ShardRouter::OwnedNodeCounts() const {
  return partition_->owned_count;
}

}  // namespace serve
}  // namespace apan
