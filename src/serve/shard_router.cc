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

}  // namespace serve
}  // namespace apan
