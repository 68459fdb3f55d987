// The shard-to-shard message of the serving tier.
//
// Only ρ partial sums cross a shard boundary, and they travel as one
// ShardPartial per (sender, recipient, batch). Everything else a shard
// writes it derives itself: every worker holds the whole batch and its
// embedding matrix in process, so each owner writes its own endpoints'
// z(t−) rows and hop-0 mail. (k-hop sampling needs no messages either:
// every shard worker samples its own graph::AdjacencyReplica.) The struct
// is pure data — ids, a tag, one flat row block — with no pointers into
// engine state, so a message can be handed to an in-process deque or
// serialized onto a wire (serve/wire.h) without the receiver sharing the
// sender's address space.
//
// The partial section is one core::RowBlock — index columns beside one
// contiguous rows × d float arena — written by the propagation kernel,
// split by owner with row copies, and merged straight into the recipient's
// NodeStateStore. Its rows are one sender's *run*: strictly ascending by
// recipient, which is what lets the recipient k-way merge the N runs of a
// batch without sorting.
//
// Replay tags: a ShardPartial is keyed by (batch, from_shard), which is
// enough for a receiver to drop duplicates, so the engine runs over an
// at-least-once, unordered transport (docs/serving.md, "Transport
// plane").

#ifndef APAN_SERVE_SHARD_MESSAGE_H_
#define APAN_SERVE_SHARD_MESSAGE_H_

#include <cstdint>

#include "core/propagator.h"

namespace apan {
namespace serve {

/// One shard's ρ partial sums of one batch, addressed to one recipient
/// shard. Sent for every (sender, recipient, batch) triple — empty slices
/// included — so the recipient can detect batch completion by counting
/// senders; (batch, from_shard) is the duplicate-drop tag.
struct ShardPartial {
  int64_t batch = 0;
  int from_shard = 0;
  /// ρ partial sums: node (recipient), timestamp (newest), count, sum row.
  core::RowBlock partial;
};

}  // namespace serve
}  // namespace apan

#endif  // APAN_SERVE_SHARD_MESSAGE_H_
