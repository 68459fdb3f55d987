// Continuous-time dynamic graph (CTDG) storage.
//
// A TemporalGraph is an append-only log of timestamped interaction events
// (v_i, v_j, e_ij, t) plus a per-node adjacency index sorted by time. It is
// the "graph database" of the paper's architecture: synchronous baselines
// (TGAT/TGN) must query it on the inference path, while APAN only touches
// it from the asynchronous propagation link.
//
// Instrumentation: every neighbor query increments a counter, which the
// test suite uses to prove APAN's synchronous path never queries the graph
// (DESIGN.md §6, "inference-path purity").
//
// Thread contract (docs/static-analysis.md): this class carries no lock on
// purpose — appends and reads are externally synchronized by the owner
// (ApanModel's single driving thread in training and serial serving). The
// only member shared across unsynchronized threads is query_count_, a
// relaxed atomic (a diagnostic counter, not a synchronization point).
// The sharded engine shares no graph at all: each of its workers owns a
// graph::AdjacencyReplica.

#ifndef APAN_GRAPH_TEMPORAL_GRAPH_H_
#define APAN_GRAPH_TEMPORAL_GRAPH_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "util/random.h"
#include "util/status.h"

namespace apan {
namespace graph {

using NodeId = int64_t;
using EdgeId = int64_t;

/// A single timestamped interaction (v_src, v_dst, edge features, t).
struct Event {
  NodeId src = -1;
  NodeId dst = -1;
  double timestamp = 0.0;
  EdgeId edge_id = -1;  ///< Index into the edge feature store / label array.
};

/// One directed temporal neighbor occurrence.
struct TemporalNeighbor {
  NodeId node = -1;
  EdgeId edge_id = -1;
  double timestamp = 0.0;
};

/// \brief Append-only CTDG with time-sorted per-node adjacency.
///
/// Events must be appended in non-decreasing timestamp order (the natural
/// order of a stream); AddEvent rejects out-of-order appends so that the
/// per-node indices stay sorted by construction.
class TemporalGraph {
 public:
  explicit TemporalGraph(int64_t num_nodes);

  // Movable (the atomic query counter's value is carried over); not
  // copyable — copies of a graph store are almost always a bug. The
  // moved-from graph is left with zero nodes: a stale num_nodes_ would
  // let AddEvent pass validation and index the emptied adjacency (UB).
  TemporalGraph(TemporalGraph&& other) noexcept
      : num_nodes_(other.num_nodes_),
        events_(std::move(other.events_)),
        adjacency_(std::move(other.adjacency_)),
        latest_timestamp_(other.latest_timestamp_),
        query_count_(other.query_count_.load()) {
    other.ResetMovedFrom();
  }
  TemporalGraph& operator=(TemporalGraph&& other) noexcept {
    if (this != &other) {
      num_nodes_ = other.num_nodes_;
      events_ = std::move(other.events_);
      adjacency_ = std::move(other.adjacency_);
      latest_timestamp_ = other.latest_timestamp_;
      query_count_.store(other.query_count_.load());
      other.ResetMovedFrom();
    }
    return *this;
  }
  TemporalGraph(const TemporalGraph&) = delete;
  TemporalGraph& operator=(const TemporalGraph&) = delete;

  /// \brief Appends an interaction. Both endpoints gain the other as a
  /// temporal neighbor (interactions are undirected for propagation, as in
  /// the paper's bipartite datasets).
  /// \return InvalidArgument for bad node ids or a NaN timestamp;
  ///         FailedPrecondition when the timestamp is older than the newest
  ///         event already stored.
  Status AddEvent(const Event& event);

  int64_t num_nodes() const { return num_nodes_; }
  int64_t num_events() const { return static_cast<int64_t>(events_.size()); }
  const std::vector<Event>& events() const { return events_; }
  const Event& event(EdgeId idx) const;

  /// Timestamp of the newest stored event (0 when empty).
  double latest_timestamp() const { return latest_timestamp_; }

  /// \brief All neighbors of `node` that interacted strictly before
  /// `before_time`, most recent last. Counts as one graph query.
  /// The returned span indexes into an internal per-node vector; it is
  /// invalidated by AddEvent.
  /// \return empty vector for isolated/unknown nodes.
  std::vector<TemporalNeighbor> NeighborsBefore(NodeId node,
                                                double before_time) const;

  /// \brief The `k` most recent neighbors before `before_time` (paper's
  /// most-recent sampling strategy, §3.5). Counts as one graph query.
  std::vector<TemporalNeighbor> MostRecentNeighbors(NodeId node,
                                                    double before_time,
                                                    int64_t k) const;

  /// \brief `k` uniformly sampled historical neighbors before
  /// `before_time` (the GraphSAGE-style alternative). Counts as one query.
  std::vector<TemporalNeighbor> UniformNeighbors(NodeId node,
                                                 double before_time,
                                                 int64_t k, Rng* rng) const;

  /// Degree (number of stored occurrences) of a node.
  int64_t Degree(NodeId node) const;

  /// Total number of neighbor queries served since construction; used to
  /// verify which code paths touch the graph store.
  int64_t query_count() const { return query_count_.load(); }
  void ResetQueryCount() { query_count_.store(0); }

  /// Drops all events and adjacency, keeping the node count. (TemporalGraph
  /// is not assignable — the query counter is atomic — so epoch resets go
  /// through this.)
  void Reset();

  /// Bytes of event-log + adjacency payload storage (compare one
  /// worker's AdjacencyReplica::MemoryBytes).
  int64_t MemoryBytes() const;

 private:
  bool ValidNode(NodeId node) const {
    return node >= 0 && node < num_nodes_;
  }

  /// Leaves a moved-from graph inert: no nodes, so every AddEvent /
  /// neighbor query fails validation instead of indexing freed storage.
  void ResetMovedFrom() {
    num_nodes_ = 0;
    events_.clear();
    adjacency_.clear();
    latest_timestamp_ = 0.0;
  }

  int64_t num_nodes_;
  std::vector<Event> events_;
  // adjacency_[v] = occurrences sorted by timestamp ascending.
  std::vector<std::vector<TemporalNeighbor>> adjacency_;
  double latest_timestamp_ = 0.0;
  mutable std::atomic<int64_t> query_count_{0};
};

}  // namespace graph
}  // namespace apan

#endif  // APAN_GRAPH_TEMPORAL_GRAPH_H_
