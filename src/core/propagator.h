// The asynchronous mail propagator (paper §3.5, Figure 5).
//
// After the encoder produces embeddings for an interaction
// (v_i, v_j, e_ij, t), propagation:
//   φ  builds the mail  mail(t) = z_i(t) + e_ij(t) + z_j(t)  (summation
//      keeps the mailbox memory footprint at one slot per mail);
//   N  samples the k-hop most-recent neighborhood of {v_i, v_j} using only
//      edges strictly before t (no future leakage);
//   f  passes the mail unchanged along each sampled path (identity);
//   ρ  mean-reduces multiple mails arriving at one recipient in the same
//      batch into a single mail;
//   ψ  appends the reduced mail to each recipient's FIFO mailbox.
//
// MailPropagator is φ + f + ρ only: it holds no graph and no RNG. N is the
// caller's — core::ApanModel samples its own TemporalGraph, each
// serve::ShardedEngine worker samples its own graph::AdjacencyReplica —
// and ψ is the caller's NodeStateStore::Deliver.
//
// The interacting endpoints themselves always receive the mail (their own
// mailboxes are how they remember their own history); sampled neighbors
// receive it at hops 1..k.
//
// This module runs on the asynchronous link: in serving it executes on the
// shard workers of serve::ShardedEngine; in training it runs after the
// optimizer step, as in the reference implementation.

#ifndef APAN_CORE_PROPAGATOR_H_
#define APAN_CORE_PROPAGATOR_H_

#include <span>
#include <vector>

#include "core/config.h"
#include "core/mailbox.h"
#include "graph/edge_features.h"
#include "graph/sampling.h"

namespace apan {
namespace core {

/// \brief A flat structure-of-arrays run of equal-width float rows beside
/// their index columns — the unit propagation writes, serve::ShardedEngine
/// routes and merges, and serve/wire.h carries. No row owns a heap
/// vector: row i is rows[i * width, (i + 1) * width).
///
/// A block uses the columns its role needs and leaves the others empty;
/// a used column holds exactly size() entries:
///   · hop-0 mail: sequence, node (recipient), timestamp, count (= 1);
///   · ρ partial sums: node (recipient), timestamp (newest), count;
///   · z(t−) write-backs (serve::ShardPartial::state): sequence, node.
struct RowBlock {
  int64_t width = 0;                ///< Floats per row.
  std::vector<int64_t> sequence;    ///< Replay tag per row.
  std::vector<graph::NodeId> node;  ///< Addressed node per row.
  std::vector<double> timestamp;    ///< Mail time / newest contribution.
  std::vector<int64_t> count;       ///< Contributions per row.
  std::vector<float> rows;          ///< size() * width floats.

  size_t size() const { return node.size(); }
  bool empty() const { return node.empty(); }
  const float* row(size_t i) const {
    return rows.data() + i * static_cast<size_t>(width);
  }
  float* row(size_t i) { return rows.data() + i * static_cast<size_t>(width); }
};

/// \brief A batch slice in flat form, the propagation kernel's input:
/// record r is `events[r]`, its endpoint embeddings are rows `src_row[r]`
/// and `dst_row[r]` of `z` (row-major, embedding_dim wide), and
/// `event_index[r]` is its position in the full batch (it seeds the hop-0
/// sequence tags).
struct InteractionRows {
  std::span<const graph::Event> events;
  std::span<const int64_t> event_index;
  std::span<const float> z;
  std::span<const int64_t> src_row;
  std::span<const int64_t> dst_row;
};

// ---- Record form ------------------------------------------------------------
// InteractionRecord, PartialPropagation and the two MailPropagator members
// under "Record form" below stay only because servebench/harness.cc (the
// serving benchmark's serial replay) calls them — as it calls the record
// overloads of ApanModel::ApplyEmbeddings / AppendEvents and
// Mailbox::DeliverBatch. No serving or training path uses them. They go
// when that harness moves to the flat API (InteractionRows + PropagateRows
// + FinalizeRow + NodeStateStore::Deliver).

/// A completed interaction plus its (detached) endpoint embeddings.
struct InteractionRecord {
  graph::Event event;
  std::vector<float> z_src;
  std::vector<float> z_dst;
};

/// PropagateRows' output in per-element form.
struct PartialPropagation {
  struct TaggedDelivery {
    /// 2 * global event index + {0: src endpoint, 1: dst endpoint}.
    int64_t sequence = 0;
    MailDelivery delivery;
  };
  struct PartialReduce {
    graph::NodeId recipient = -1;
    std::vector<float> sum;  ///< Σ of propagated mails, not yet ρ-averaged.
    double newest = 0.0;
    int64_t count = 0;
  };
  std::vector<TaggedDelivery> hop0;    ///< One per PropagateRows hop0 row.
  std::vector<PartialReduce> partial;  ///< One per PropagateRows partial row.
};

/// \brief φ + f + ρ over caller-sampled neighborhoods; graph-free and
/// stateless, so one instance serves every shard worker concurrently.
class MailPropagator {
 public:
  /// `features` must outlive the propagator.
  MailPropagator(const ApanConfig& config,
                 const graph::EdgeFeatureStore* features);

  /// The edge features φ reads e_ij from (indexed by Event::edge_id).
  const graph::EdgeFeatureStore& features() const { return *features_; }

  /// \brief φ + f + unfinalized ρ over *externally sampled* neighborhoods
  /// — the one propagation kernel.
  ///
  /// `hops[r]` is record r's k-hop expansion (hop order, as produced by
  /// graph::KHopMostRecent / graph::KHopUniform or
  /// graph::AdjacencyReplica::SampleKHop; only HopEntry::node is read).
  /// Replaces `*hop0` with one row per event per endpoint in event order
  /// (src before dst; a self-loop gets one row), and `*partial` with one
  /// ρ partial-sum row per distinct hop-1..k recipient, ascending by
  /// recipient. Endpoints of an event never receive its propagated copy.
  /// Accumulation is record-major in hop-entry order. Thread-safe.
  void PropagateRows(const InteractionRows& batch,
                     std::span<const std::vector<graph::HopEntry>> hops,
                     RowBlock* hop0, RowBlock* partial) const;

  /// ρ on a flat row: scales `width` merged floats by 1 / `count` in
  /// place. Every path finalizes through this, so every path rounds
  /// identically. `count` must be positive.
  static void FinalizeRow(float* row, int64_t width, int64_t count);

  // ---- Record form (see the block above the class) -----------------------

  /// PropagateRows over records laid out one embedding row pair each.
  PartialPropagation ComputePartialFromHops(
      std::span<const InteractionRecord> records,
      std::span<const int64_t> event_index,
      std::span<const std::vector<graph::HopEntry>> hops) const;

  /// FinalizeRow on a PartialReduce, as a MailDelivery.
  static MailDelivery FinalizeReduce(PartialPropagation::PartialReduce&& partial);

 private:
  ApanConfig config_;
  const graph::EdgeFeatureStore* features_;
};

}  // namespace core
}  // namespace apan

#endif  // APAN_CORE_PROPAGATOR_H_
