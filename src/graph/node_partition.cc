#include "graph/node_partition.h"

#include <algorithm>

namespace apan {
namespace graph {

std::shared_ptr<const NodePartition> NodePartition::Build(
    int64_t num_nodes, int num_shards,
    const std::function<int(NodeId)>& owner_fn) {
  APAN_CHECK_MSG(num_nodes > 0 && num_shards > 0,
                 "NodePartition needs positive node and shard counts");
  auto partition = std::make_shared<NodePartition>();
  partition->num_shards = num_shards;
  partition->owner_of.resize(static_cast<size_t>(num_nodes));
  partition->local_row.resize(static_cast<size_t>(num_nodes));
  partition->owned_count.assign(static_cast<size_t>(num_shards), 0);
  for (NodeId v = 0; v < num_nodes; ++v) {
    const int owner = owner_fn(v);
    APAN_CHECK_MSG(owner >= 0 && owner < num_shards,
                   "ownership function returned an out-of-range shard");
    partition->owner_of[static_cast<size_t>(v)] =
        static_cast<int32_t>(owner);
    partition->local_row[static_cast<size_t>(v)] = static_cast<int32_t>(
        partition->owned_count[static_cast<size_t>(owner)]++);
  }
  return partition;
}

std::shared_ptr<const NodePartition> NodePartition::BuildDefault(
    int64_t num_nodes, int num_shards) {
  return Build(num_nodes, num_shards,
               [num_shards](NodeId v) { return NodeShardOf(v, num_shards); });
}

std::shared_ptr<const NodePartition> NodePartition::BuildLocality(
    int64_t num_nodes, int num_shards, std::span<const Event> events) {
  return BuildLocality(num_nodes, num_shards, events, LocalityOptions());
}

std::shared_ptr<const NodePartition> NodePartition::BuildLocality(
    int64_t num_nodes, int num_shards, std::span<const Event> events,
    const LocalityOptions& options) {
  APAN_CHECK_MSG(num_nodes > 0 && num_shards > 0,
                 "NodePartition needs positive node and shard counts");
  APAN_CHECK_MSG(options.balance_factor >= 1.0,
                 "balance_factor below 1.0 cannot hold every node");
  // cap >= ceil(n/shards) guarantees total capacity >= n, so a shard with
  // headroom always exists and the fill loop below cannot fail.
  const int64_t fair =
      (num_nodes + num_shards - 1) / static_cast<int64_t>(num_shards);
  const int64_t cap = std::max(
      fair, static_cast<int64_t>(options.balance_factor *
                                 static_cast<double>(num_nodes) /
                                 static_cast<double>(num_shards)));

  std::vector<int32_t> owner(static_cast<size_t>(num_nodes), -1);
  std::vector<int64_t> load(static_cast<size_t>(num_shards), 0);
  auto least_loaded = [&]() {
    int best = -1;
    for (int s = 0; s < num_shards; ++s) {
      if (load[static_cast<size_t>(s)] >= cap) continue;
      if (best < 0 ||
          load[static_cast<size_t>(s)] < load[static_cast<size_t>(best)]) {
        best = s;  // lowest shard id wins ties — deterministic
      }
    }
    APAN_CHECK_MSG(best >= 0, "no shard below cap (capacity invariant)");
    return best;
  };
  auto assign = [&](NodeId v, int shard) {
    owner[static_cast<size_t>(v)] = static_cast<int32_t>(shard);
    ++load[static_cast<size_t>(shard)];
  };

  for (const Event& e : events) {
    APAN_CHECK_MSG(e.src >= 0 && e.src < num_nodes && e.dst >= 0 &&
                       e.dst < num_nodes,
                   "event endpoint out of range in BuildLocality");
    // First interaction pins a node; later events never move it (greedy,
    // one streaming pass). Co-locate with an already-placed partner when
    // its shard has headroom.
    if (owner[static_cast<size_t>(e.src)] < 0) {
      const int32_t partner = owner[static_cast<size_t>(e.dst)];
      if (partner >= 0 && load[static_cast<size_t>(partner)] < cap) {
        assign(e.src, partner);
      } else {
        assign(e.src, least_loaded());
      }
    }
    if (owner[static_cast<size_t>(e.dst)] < 0) {
      const int32_t partner = owner[static_cast<size_t>(e.src)];
      if (load[static_cast<size_t>(partner)] < cap) {
        assign(e.dst, partner);
      } else {
        assign(e.dst, least_loaded());
      }
    }
  }
  // Nodes the warmup stream never touched: spread for balance (ascending
  // id order keeps the result a pure function of the inputs).
  for (NodeId v = 0; v < num_nodes; ++v) {
    if (owner[static_cast<size_t>(v)] < 0) assign(v, least_loaded());
  }
  return Build(num_nodes, num_shards, [&owner](NodeId v) {
    return static_cast<int>(owner[static_cast<size_t>(v)]);
  });
}

}  // namespace graph
}  // namespace apan
