#include "graph/adjacency_replica.h"

#include <algorithm>
#include <cmath>

namespace apan {
namespace graph {

AdjacencyReplica::AdjacencyReplica(int64_t num_nodes) {
  APAN_CHECK_MSG(num_nodes > 0, "AdjacencyReplica needs at least one node");
  rows_.resize(static_cast<size_t>(num_nodes));
}

Status AdjacencyReplica::AppendBatch(std::span<const Event> events) {
  double latest = latest_timestamp_;
  for (const Event& event : events) {
    if (!ValidNode(event.src) || !ValidNode(event.dst)) {
      return Status::InvalidArgument(internal::StrCat(
          "event endpoints out of range: ", event.src, " -> ", event.dst,
          " (num_nodes=", num_nodes(), ")"));
    }
    // Accepted, NaN (false against everything) would switch the order
    // check off for every later append, and +∞ would refuse every one.
    if (!std::isfinite(event.timestamp)) {
      return Status::InvalidArgument("append: non-finite event timestamp");
    }
    if (event.timestamp < latest) {
      return Status::FailedPrecondition(internal::StrCat(
          "out-of-order append: ", event.timestamp, " < ", latest));
    }
    latest = event.timestamp;
  }
  for (const Event& event : events) {
    rows_[static_cast<size_t>(event.src)].push_back(
        {event.dst, event.timestamp});
    if (event.dst != event.src) {
      rows_[static_cast<size_t>(event.dst)].push_back(
          {event.src, event.timestamp});
    }
  }
  latest_timestamp_ = latest;
  num_events_ += static_cast<int64_t>(events.size());
  return Status::OK();
}

void AdjacencyReplica::SampleKHop(std::span<const NodeId> seeds,
                                  double before_time, int32_t num_hops,
                                  int64_t fanout,
                                  std::vector<HopEntry>* out) const {
  if (num_hops <= 0 || fanout <= 0) return;
  // Appends `node`'s `fanout` most recent neighbours before before_time,
  // oldest first (TemporalGraph::MostRecentNeighbors' order).
  const auto sample = [&](NodeId node, int32_t hop) {
    if (!ValidNode(node)) return;
    const std::vector<Entry>& row = rows_[static_cast<size_t>(node)];
    const auto end = std::lower_bound(
        row.begin(), row.end(), before_time,
        [](const Entry& e, double t) { return e.timestamp < t; });
    const auto take = std::min<std::ptrdiff_t>(fanout, end - row.begin());
    for (auto it = end - take; it != end; ++it) {
      out->push_back({it->node, -1, it->timestamp, hop});
    }
  };
  size_t frontier_begin = out->size();
  for (const NodeId seed : seeds) sample(seed, 1);
  // Hop h's frontier is hop h-1's entries, in order — the same sequence
  // KHopExpand collects into its `next` vector.
  for (int32_t hop = 2; hop <= num_hops; ++hop) {
    const size_t frontier_end = out->size();
    if (frontier_begin == frontier_end) break;
    for (size_t i = frontier_begin; i < frontier_end; ++i) {
      sample((*out)[i].node, hop);  // by value: push_back may reallocate
    }
    frontier_begin = frontier_end;
  }
}

void AdjacencyReplica::Reset() {
  for (auto& row : rows_) row = std::vector<Entry>();
  latest_timestamp_ = -std::numeric_limits<double>::infinity();
  num_events_ = 0;
}

AdjacencyReplica::Checkpoint AdjacencyReplica::Export() const {
  return Checkpoint{rows_, latest_timestamp_, num_events_};
}

Status AdjacencyReplica::Validate(const Checkpoint& checkpoint,
                                  int64_t num_nodes) {
  if (static_cast<int64_t>(checkpoint.rows.size()) != num_nodes) {
    return Status::InvalidArgument(internal::StrCat(
        "replica restore: checkpoint has ", checkpoint.rows.size(),
        " rows for ", num_nodes, " nodes"));
  }
  if (checkpoint.num_events < 0) {
    return Status::InvalidArgument(internal::StrCat(
        "replica restore: negative event count ", checkpoint.num_events));
  }
  // −∞ is the empty replica's latest timestamp; NaN and +∞ are no event's.
  const double latest = checkpoint.latest_timestamp;
  if (std::isnan(latest) || (std::isinf(latest) && latest > 0)) {
    return Status::InvalidArgument("replica restore: NaN or +inf latest time");
  }
  for (size_t r = 0; r < checkpoint.rows.size(); ++r) {
    const auto& row = checkpoint.rows[r];
    for (size_t i = 0; i < row.size(); ++i) {
      if (row[i].node < 0 || row[i].node >= num_nodes) {
        return Status::InvalidArgument(internal::StrCat(
            "replica restore: row ", r, " entry ", i, " names node ",
            row[i].node, " outside [0, ", num_nodes, ")"));
      }
      if (!std::isfinite(row[i].timestamp)) {
        return Status::InvalidArgument(internal::StrCat(
            "replica restore: row ", r, " entry ", i,
            " has a non-finite timestamp"));
      }
      if (i > 0 && row[i].timestamp < row[i - 1].timestamp) {
        return Status::InvalidArgument(internal::StrCat(
            "replica restore: row ", r, " is not timestamp-sorted at entry ",
            i));
      }
    }
  }
  return Status::OK();
}

Status AdjacencyReplica::Restore(const Checkpoint& checkpoint) {
  // Validate everything before mutating so a rejected checkpoint leaves
  // the live replica untouched.
  APAN_RETURN_NOT_OK(Validate(checkpoint, num_nodes()));
  rows_ = checkpoint.rows;
  latest_timestamp_ = checkpoint.latest_timestamp;
  num_events_ = checkpoint.num_events;
  return Status::OK();
}

int64_t AdjacencyReplica::MemoryBytes() const {
  int64_t entries = 0;
  for (const auto& row : rows_) entries += static_cast<int64_t>(row.size());
  return entries * static_cast<int64_t>(sizeof(Entry));
}

}  // namespace graph
}  // namespace apan
