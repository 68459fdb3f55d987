// The shard-to-shard message of the serving tier.
//
// Only hop lists cross a shard boundary, and they travel as one
// ShardPartial per (sender, recipient, batch). No float does: every worker
// holds the whole batch and its embedding matrix in process, so each owner
// writes its own endpoints' z(t−) rows and hop-0 mail and runs the
// propagation kernel (φ + f + ρ) over the batch itself. The one thing an
// owner cannot derive is the k-hop sample N, which only an event's home
// shard draws (from its own graph::AdjacencyReplica); the home shard
// therefore splits each event's sampled hop nodes by owner and sends each
// owner its share. The struct is pure data — ids, a tag, one CSR list —
// with no pointers into engine state, so a message can be handed to an
// in-process deque or serialized onto a wire (serve/wire.h) without the
// receiver sharing the sender's address space.
//
// The list is one core::HopList over the *whole* batch: record r is batch
// event r, and only the sender's home events have entries, each event's
// nodes in hop order with its endpoints dropped. Events are homed on
// exactly one shard, so the N lists a recipient receives for a batch are
// disjoint by event; concatenated in event order they are exactly the
// serial path's hop lists restricted to the recipient's nodes, which is
// what makes its ρ bitwise the serial one.
//
// A ShardPartial is keyed by (batch, from_shard): the receiver files it
// under its batch and completes the batch once every sender's key is in,
// so the engine runs over an exactly-once, unordered transport
// (docs/serving.md, "Transport plane"). A second partial under one key is
// a broken transport, and the receiver aborts on it.

#ifndef APAN_SERVE_SHARD_MESSAGE_H_
#define APAN_SERVE_SHARD_MESSAGE_H_

#include <cstdint>

#include "core/propagator.h"

namespace apan {
namespace serve {

/// One shard's hop entries of one batch that land on one recipient
/// shard's nodes. Sent for every (sender, recipient, batch) triple — an
/// empty list included — so the recipient can detect batch completion by
/// counting senders.
struct ShardPartial {
  int64_t batch = 0;
  int from_shard = 0;
  /// Empty, or one record per batch event (see the header comment).
  core::HopList hops;
};

}  // namespace serve
}  // namespace apan

#endif  // APAN_SERVE_SHARD_MESSAGE_H_
