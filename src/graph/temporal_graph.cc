#include "graph/temporal_graph.h"

#include <algorithm>
#include <cmath>

namespace apan {
namespace graph {

TemporalGraph::TemporalGraph(int64_t num_nodes) : num_nodes_(num_nodes) {
  APAN_CHECK_MSG(num_nodes > 0, "TemporalGraph needs at least one node");
  adjacency_.resize(static_cast<size_t>(num_nodes));
}

Status TemporalGraph::AddEvent(const Event& event) {
  if (!ValidNode(event.src) || !ValidNode(event.dst)) {
    return Status::InvalidArgument(
        internal::StrCat("event endpoints out of range: ", event.src, " -> ",
                         event.dst, " (num_nodes=", num_nodes_, ")"));
  }
  // Accepted, NaN (false against everything) would switch the order check
  // off for every later event, and +∞ would refuse every one.
  if (!std::isfinite(event.timestamp)) {
    return Status::InvalidArgument("AddEvent: non-finite event timestamp");
  }
  if (!events_.empty() && event.timestamp < latest_timestamp_) {
    return Status::FailedPrecondition(internal::StrCat(
        "out-of-order append: ", event.timestamp, " < ", latest_timestamp_));
  }
  Event stored = event;
  if (stored.edge_id < 0) {
    stored.edge_id = static_cast<EdgeId>(events_.size());
  }
  events_.push_back(stored);
  latest_timestamp_ = stored.timestamp;
  adjacency_[static_cast<size_t>(stored.src)].push_back(
      {stored.dst, stored.edge_id, stored.timestamp});
  if (stored.dst != stored.src) {
    adjacency_[static_cast<size_t>(stored.dst)].push_back(
        {stored.src, stored.edge_id, stored.timestamp});
  }
  return Status::OK();
}

const Event& TemporalGraph::event(EdgeId idx) const {
  APAN_CHECK_MSG(idx >= 0 && static_cast<size_t>(idx) < events_.size(),
                 "event index out of range");
  return events_[static_cast<size_t>(idx)];
}

std::vector<TemporalNeighbor> TemporalGraph::NeighborsBefore(
    NodeId node, double before_time) const {
  query_count_.fetch_add(1, std::memory_order_relaxed);
  if (!ValidNode(node)) return {};
  const auto& adj = adjacency_[static_cast<size_t>(node)];
  // Binary search for the first occurrence at or after before_time.
  const auto end = std::lower_bound(
      adj.begin(), adj.end(), before_time,
      [](const TemporalNeighbor& n, double t) { return n.timestamp < t; });
  return std::vector<TemporalNeighbor>(adj.begin(), end);
}

std::vector<TemporalNeighbor> TemporalGraph::MostRecentNeighbors(
    NodeId node, double before_time, int64_t k) const {
  query_count_.fetch_add(1, std::memory_order_relaxed);
  if (!ValidNode(node) || k <= 0) return {};
  const auto& adj = adjacency_[static_cast<size_t>(node)];
  const auto end = std::lower_bound(
      adj.begin(), adj.end(), before_time,
      [](const TemporalNeighbor& n, double t) { return n.timestamp < t; });
  const int64_t available = static_cast<int64_t>(end - adj.begin());
  const int64_t take = std::min(k, available);
  // Return in ascending-time order, keeping the `take` most recent.
  return std::vector<TemporalNeighbor>(end - take, end);
}

std::vector<TemporalNeighbor> TemporalGraph::UniformNeighbors(
    NodeId node, double before_time, int64_t k, Rng* rng) const {
  query_count_.fetch_add(1, std::memory_order_relaxed);
  if (!ValidNode(node) || k <= 0) return {};
  APAN_CHECK(rng != nullptr);
  const auto& adj = adjacency_[static_cast<size_t>(node)];
  const auto end = std::lower_bound(
      adj.begin(), adj.end(), before_time,
      [](const TemporalNeighbor& n, double t) { return n.timestamp < t; });
  const size_t available = static_cast<size_t>(end - adj.begin());
  if (available == 0) return {};
  if (available <= static_cast<size_t>(k)) {
    return std::vector<TemporalNeighbor>(adj.begin(), end);
  }
  auto picks =
      rng->SampleWithoutReplacement(available, static_cast<size_t>(k));
  std::sort(picks.begin(), picks.end());
  std::vector<TemporalNeighbor> out;
  out.reserve(picks.size());
  for (size_t idx : picks) out.push_back(adj[idx]);
  return out;
}

void TemporalGraph::Reset() {
  events_.clear();
  for (auto& adj : adjacency_) adj.clear();
  latest_timestamp_ = 0.0;
}

int64_t TemporalGraph::MemoryBytes() const {
  int64_t bytes = static_cast<int64_t>(events_.size() * sizeof(Event));
  for (const auto& adj : adjacency_) {
    bytes += static_cast<int64_t>(adj.size() * sizeof(TemporalNeighbor));
  }
  return bytes;
}

int64_t TemporalGraph::Degree(NodeId node) const {
  if (!ValidNode(node)) return 0;
  return static_cast<int64_t>(adjacency_[static_cast<size_t>(node)].size());
}

}  // namespace graph
}  // namespace apan
