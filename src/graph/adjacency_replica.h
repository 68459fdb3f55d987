// A shard worker's private, append-only copy of the temporal adjacency.
//
// serve::ShardedEngine hands every batch to every shard worker, so each
// worker can keep its own full replica of the graph and sample its home
// events' k-hop neighbourhoods locally — no shard ever asks another for
// a frontier. A worker samples a batch BEFORE appending it, the serial
// oracle's order (core::ApanModel::ProcessBatchPostInference samples,
// then AppendEvents), so a read needs no versioning: the replica holds
// exactly the events of the batches before the one being sampled.
//
// The replica is deliberately lean: one 16-byte {node, timestamp} entry
// per adjacency occurrence and nothing else — no event log, no edge ids,
// no ordinals. That is all mail propagation reads (the propagator uses
// HopEntry::node; the as-of cut needs the timestamp). N shards hold N
// replicas, so this is the per-shard price of a local sampler.
//
// Thread contract: none — one replica belongs to one worker thread, which
// both appends and samples. Control jobs (reset, snapshot, restore) run
// on that same thread.

#ifndef APAN_GRAPH_ADJACENCY_REPLICA_H_
#define APAN_GRAPH_ADJACENCY_REPLICA_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/sampling.h"
#include "graph/temporal_graph.h"
#include "util/status.h"

namespace apan {
namespace graph {

/// \brief Append-only time-sorted adjacency with in-place k-hop
/// most-recent sampling.
class AdjacencyReplica {
 public:
  /// One adjacency occurrence: the neighbour and the interaction time.
  struct Entry {
    NodeId node = -1;
    double timestamp = 0.0;
  };

  /// The replica's full contents in checkpointable form (serve/snapshot.h
  /// encodes it). Restoring it reproduces the replica exactly.
  struct Checkpoint {
    /// rows[v] = v's occurrences in append (= timestamp) order.
    std::vector<std::vector<Entry>> rows;
    double latest_timestamp = -std::numeric_limits<double>::infinity();
    int64_t num_events = 0;
  };

  explicit AdjacencyReplica(int64_t num_nodes);

  AdjacencyReplica(const AdjacencyReplica&) = delete;
  AdjacencyReplica& operator=(const AdjacencyReplica&) = delete;

  int64_t num_nodes() const { return static_cast<int64_t>(rows_.size()); }
  /// Events appended since construction (or the last Reset/Restore).
  int64_t num_events() const { return num_events_; }

  /// \brief Appends a batch. Both endpoints gain the other as a neighbour
  /// (a self-loop is stored once), exactly as TemporalGraph::AddEvent.
  /// The whole batch is validated first, so a rejected batch leaves the
  /// replica unchanged.
  /// \return InvalidArgument for an out-of-range endpoint or a NaN
  ///         timestamp; FailedPrecondition for a timestamp older than one
  ///         before it.
  Status AppendBatch(std::span<const Event> events);

  /// \brief Appends to `out` the most-recent k-hop expansion of `seeds`
  /// as of `before_time`: exactly the entries, in exactly the order,
  /// that graph::KHopMostRecent returns on a TemporalGraph holding the
  /// same events. `via_edge` is not stored and reads -1. Frontiers are
  /// read back out of `out` itself, so sampling allocates nothing beyond
  /// the entries it appends.
  void SampleKHop(std::span<const NodeId> seeds, double before_time,
                  int32_t num_hops, int64_t fanout,
                  std::vector<HopEntry>* out) const;

  /// Drops every event, keeping the node count.
  void Reset();

  /// Copies out the replica's contents.
  Checkpoint Export() const;

  /// \brief Replaces the contents with a decoded checkpoint. It must have
  /// one row per node, valid neighbour ids and timestamp-sorted rows
  /// free of NaN (as is its latest timestamp); a violation returns
  /// InvalidArgument with the replica unchanged.
  Status Restore(const Checkpoint& checkpoint);

  /// Bytes of adjacency payload (entries in use, Mailbox::MemoryBytes
  /// style). Compare against TemporalGraph::MemoryBytes.
  int64_t MemoryBytes() const;

 private:
  bool ValidNode(NodeId node) const {
    return node >= 0 && node < num_nodes();
  }

  std::vector<std::vector<Entry>> rows_;
  /// -inf so the first event passes the order check at any timestamp,
  /// matching TemporalGraph::AddEvent's first-event rule.
  double latest_timestamp_ = -std::numeric_limits<double>::infinity();
  int64_t num_events_ = 0;
};

}  // namespace graph
}  // namespace apan

#endif  // APAN_GRAPH_ADJACENCY_REPLICA_H_
