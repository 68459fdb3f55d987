// The shard-to-shard message of the serving tier.
//
// Everything that crosses a shard boundary — routed mail partials and
// z(t−) write-backs — travels as one ShardPartial. The struct is pure
// data (ids, tags, payload vectors): no pointers into engine state, so a
// message can be handed to an in-process deque or serialized onto a wire
// (serve/wire.h) without the receiver sharing the sender's address space.
// (k-hop sampling needs no messages: every shard worker samples its own
// graph::AdjacencyReplica.)
//
// Replay tags: a ShardPartial is keyed by (batch, from_shard), which is
// enough for a receiver to drop duplicates. Sequence-tag replay makes
// reordering harmless (docs/serving.md, "Transport plane"); the tag makes
// duplication harmless too, which is what lets the engine run over an
// at-least-once transport.

#ifndef APAN_SERVE_SHARD_MESSAGE_H_
#define APAN_SERVE_SHARD_MESSAGE_H_

#include <cstdint>
#include <vector>

#include "core/propagator.h"
#include "graph/temporal_graph.h"

namespace apan {
namespace serve {

/// One routed z(t−) write-back; sequence = 2 * event index + endpoint.
struct StateUpdate {
  int64_t sequence = 0;
  graph::NodeId node = -1;
  std::vector<float> z;
};

/// One shard's slice of one batch's propagation output, addressed to one
/// recipient shard. Sent for every (sender, recipient, batch) triple —
/// empty slices included — so the recipient can detect batch completion
/// by counting senders; (batch, from_shard) is the duplicate-drop tag.
struct ShardPartial {
  int64_t batch = 0;
  int from_shard = 0;
  std::vector<StateUpdate> state_updates;
  std::vector<core::PartialPropagation::TaggedDelivery> hop0;
  std::vector<core::PartialPropagation::PartialReduce> partial;
};

}  // namespace serve
}  // namespace apan

#endif  // APAN_SERVE_SHARD_MESSAGE_H_
