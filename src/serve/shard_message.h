// The shard-to-shard message of the serving tier.
//
// Everything that crosses a shard boundary — routed mail partials and
// z(t−) write-backs — travels as one ShardPartial. The struct is pure
// data (ids, tags, flat row blocks): no pointers into engine state, so a
// message can be handed to an in-process deque or serialized onto a wire
// (serve/wire.h) without the receiver sharing the sender's address space.
// (k-hop sampling needs no messages: every shard worker samples its own
// graph::AdjacencyReplica.)
//
// Each section is one core::RowBlock — index columns beside one
// contiguous rows × d float arena — written by the propagation kernel,
// split by owner with row copies, and merged straight into the recipient's
// NodeStateStore. Within a section the rows are one sender's *run*:
// strictly ascending by the section's merge key (sequence for state and
// hop0, recipient for partial), which is what lets the recipient k-way
// merge the N runs of a batch without sorting.
//
// Replay tags: a ShardPartial is keyed by (batch, from_shard), which is
// enough for a receiver to drop duplicates. Sequence-tag replay makes
// reordering harmless (docs/serving.md, "Transport plane"); the tag makes
// duplication harmless too, which is what lets the engine run over an
// at-least-once transport.

#ifndef APAN_SERVE_SHARD_MESSAGE_H_
#define APAN_SERVE_SHARD_MESSAGE_H_

#include <cstdint>

#include "core/propagator.h"

namespace apan {
namespace serve {

/// One shard's slice of one batch's propagation output, addressed to one
/// recipient shard. Sent for every (sender, recipient, batch) triple —
/// empty slices included — so the recipient can detect batch completion
/// by counting senders; (batch, from_shard) is the duplicate-drop tag.
struct ShardPartial {
  int64_t batch = 0;
  int from_shard = 0;
  /// z(t−) write-backs: sequence (2 * event index + endpoint), node, and
  /// the embedding row. Replayed in sequence order — later events win.
  core::RowBlock state;
  /// Hop-0 mail: sequence, node (recipient), timestamp, count, mail row.
  core::RowBlock hop0;
  /// ρ partial sums: node (recipient), timestamp (newest), count, sum row.
  core::RowBlock partial;
};

}  // namespace serve
}  // namespace apan

#endif  // APAN_SERVE_SHARD_MESSAGE_H_
