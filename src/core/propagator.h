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

#include <limits>
#include <span>
#include <vector>

#include "core/config.h"
#include "core/mailbox.h"
#include "graph/edge_features.h"
#include "graph/sampling.h"

namespace apan {
namespace core {

/// \brief A flat structure-of-arrays run of equal-width float rows beside
/// their index columns — the ρ partial sums PropagateRows writes and its
/// caller finalizes (FinalizeRow) and delivers. No row owns a heap vector:
/// row i is rows[i * width, (i + 1) * width).
/// Every column holds exactly size() entries: node (recipient),
/// timestamp (newest contribution) and count (contributions).
struct RowBlock {
  int64_t width = 0;                ///< Floats per row.
  std::vector<graph::NodeId> node;  ///< Addressed node per row.
  std::vector<double> timestamp;    ///< Newest contribution per row.
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
/// record r is `events[r]`, and its endpoint embeddings are rows
/// `src_row[r]` and `dst_row[r]` of `z` (row-major, embedding_dim wide).
struct InteractionRows {
  std::span<const graph::Event> events;
  std::span<const float> z;
  std::span<const int64_t> src_row;
  std::span<const int64_t> dst_row;
};

/// \brief A batch's sampled k-hop neighbourhoods (N) in CSR form — the
/// kernel's hop input and the one payload serve::ShardPartial carries.
/// Record r's hop nodes, in hop order, are
/// node[offset[r], offset[r + 1]): `offset` holds one entry per record
/// plus one, starts at 0, never decreases, and ends at node.size(). A
/// list with no offsets at all is the empty list (no records, no nodes).
struct HopList {
  std::vector<uint32_t> offset;
  std::vector<graph::NodeId> node;

  size_t num_events() const { return offset.empty() ? 0 : offset.size() - 1; }
  bool empty() const { return offset.empty(); }
  /// Record r's hop nodes.
  std::span<const graph::NodeId> hops(size_t r) const {
    return std::span<const graph::NodeId>(node).subspan(
        offset[r], offset[r + 1] - offset[r]);
  }
  /// True when the offsets describe `node` as documented above.
  bool WellFormed() const;
  /// The list of per-record expansions as produced by graph::KHopMostRecent
  /// / graph::KHopUniform / graph::AdjacencyReplica::SampleKHop (only
  /// HopEntry::node is kept).
  static HopList FromEntries(
      std::span<const std::vector<graph::HopEntry>> hops);
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
    double newest = -std::numeric_limits<double>::infinity();
    int64_t count = 0;
  };
  std::vector<TaggedDelivery> hop0;    ///< One per endpoint (DeliverHop0).
  std::vector<PartialReduce> partial;  ///< One per PropagateRows row.
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

  /// \brief φ for one event: out[i] = z_src[i] + e[i] + z_dst[i] over
  /// the embedding_dim floats, e being the event's edge-feature row. The
  /// one place mail is computed: the hop-0 mail an endpoint receives and
  /// the copy PropagateRows spreads are this row. Thread-safe.
  void MailRow(const graph::Event& event, const float* z_src,
               const float* z_dst, float* out) const;

  /// \brief The hop-0 rule, stated once for every path: each endpoint of
  /// an event receives one unreduced copy of its mail. Computes the mail
  /// into `mail` (embedding_dim floats) with MailRow, then calls
  /// `deliver(node, z_node, mail)` for the source endpoint and then the
  /// destination — once for a self-loop, with z_dst, the embedding a
  /// second write of that node would leave. Thread-safe.
  template <typename Deliver>
  void DeliverHop0(const graph::Event& event, const float* z_src,
                   const float* z_dst, std::span<float> mail,
                   Deliver&& deliver) const {
    MailRow(event, z_src, z_dst, mail.data());
    const std::span<const float> row = mail;
    if (event.src != event.dst) deliver(event.src, z_src, row);
    deliver(event.dst, z_dst, row);
  }

  /// \brief f + unfinalized ρ over *externally sampled* neighborhoods —
  /// the one propagation kernel, and the one place ρ is summed.
  ///
  /// `hops` holds one hop list per record of `batch`
  /// (HopList::num_events() == batch size). Replaces `*partial` with one
  /// ρ partial-sum row per distinct hop-1..k recipient, ascending by
  /// recipient; a row's timestamp is its newest contribution's. Endpoints
  /// of an event never receive its propagated copy: their hop-0 mail is
  /// the caller's, one MailRow per endpoint. Accumulation is record-major
  /// in hop order, so a recipient's sum depends only on which records
  /// reach it and in what order — not on who sampled them. Thread-safe.
  void PropagateRows(const InteractionRows& batch, const HopList& hops,
                     RowBlock* partial) const;

  /// ρ on a flat row: scales `width` merged floats by 1 / `count` in
  /// place. Every path finalizes through this, so every path rounds
  /// identically. `count` must be positive.
  static void FinalizeRow(float* row, int64_t width, int64_t count);

  // ---- Record form (see the block above the class) -----------------------

  /// DeliverHop0 + PropagateRows over records laid out one embedding row
  /// pair each; hop-0 sequences are 2 * event_index[r] + {0: src, 1: dst}
  /// (a self-loop's one delivery is tagged 0).
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
