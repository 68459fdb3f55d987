// The asynchronous mail propagator (paper §3.5, Figure 5).
//
// After the encoder produces embeddings for an interaction
// (v_i, v_j, e_ij, t), the propagator:
//   φ  builds the mail  mail(t) = z_i(t) + e_ij(t) + z_j(t)  (summation
//      keeps the mailbox memory footprint at one slot per mail);
//   N  samples the k-hop most-recent neighborhood of {v_i, v_j} using only
//      edges strictly before t (no future leakage);
//   f  passes the mail unchanged along each sampled path (identity);
//   ρ  mean-reduces multiple mails arriving at one recipient in the same
//      batch into a single mail;
//   ψ  appends the reduced mail to each recipient's FIFO mailbox.
//
// The interacting endpoints themselves always receive the mail (their own
// mailboxes are how they remember their own history); sampled neighbors
// receive it at hops 1..k.
//
// This module runs on the asynchronous link: in serving it executes on a
// background worker (serve::AsyncPipeline); in training it runs after the
// optimizer step, as in the reference implementation.

#ifndef APAN_CORE_PROPAGATOR_H_
#define APAN_CORE_PROPAGATOR_H_

#include <span>
#include <vector>

#include "core/config.h"
#include "core/mailbox.h"
#include "graph/edge_features.h"
#include "graph/sampling.h"
#include "graph/temporal_graph.h"

namespace apan {
namespace core {

/// A completed interaction plus the (detached) embeddings the encoder
/// produced for it — everything φ needs.
struct InteractionRecord {
  graph::Event event;
  std::vector<float> z_src;
  std::vector<float> z_dst;
};

// MailDelivery lives in core/mailbox.h (it is the unit Mailbox consumes);
// re-exported here for existing includers.

/// \brief Unreduced propagation output for a slice of a batch — the
/// shardable form of ComputeDeliveries (serve::ShardedEngine).
///
/// Hop-0 deliveries carry a sequence tag (derived from the event's global
/// position in the batch) so a recipient that gathers slices from several
/// shards can reconstruct the exact per-node delivery order. Hops 1..k are
/// returned as per-recipient partial *sums*; the recipient finalizes ρ
/// (divide by the total contribution count) only after merging every
/// slice, so the reduced mail spans the whole batch exactly as in the
/// single-worker path.
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
  /// In event order (src before dst within an event).
  std::vector<TaggedDelivery> hop0;
  /// Sorted by recipient; one entry per distinct hop-1..k recipient.
  std::vector<PartialReduce> partial;
};

/// \brief Stateless propagation logic; mailbox state lives in Mailbox.
class MailPropagator {
 public:
  /// `graph` and `features` must outlive the propagator. The graph is
  /// queried on the *asynchronous* link only.
  MailPropagator(const ApanConfig& config,
                 const graph::TemporalGraph* graph,
                 const graph::EdgeFeatureStore* features);

  /// \brief φ + N + f + ρ for one batch.
  ///
  /// Returns, in order: one *unreduced* delivery per event per endpoint
  /// (hop 0 — a node's own interactions each occupy a mailbox slot), then
  /// one ρ-mean-reduced delivery per distinct propagated recipient (hops
  /// 1..k), sorted by recipient id. Endpoints never appear in the reduced
  /// section for mails they already received directly.
  std::vector<MailDelivery> ComputeDeliveries(
      const std::vector<InteractionRecord>& batch) const;

  /// \brief φ + N + f for a *slice* of a batch, leaving ρ unfinalized.
  ///
  /// `event_index[i]` is records[i]'s position in the full batch; it seeds
  /// the hop-0 sequence tags. ComputeDeliveries(batch) is exactly
  /// ComputePartial over the whole batch followed by FinalizeReduce on
  /// each partial entry. Thread-safe for concurrent calls under
  /// PropagationSampling::kMostRecent (kUniform draws from a shared RNG).
  PartialPropagation ComputePartial(
      std::span<const InteractionRecord> records,
      std::span<const int64_t> event_index) const;

  /// \brief φ + f + unfinalized ρ over *externally sampled* neighborhoods.
  ///
  /// `hops[i]` is records[i]'s k-hop expansion (hop order, as produced by
  /// graph::KHopMostRecent — or by graph::AdjacencyReplica::SampleKHop,
  /// which is how each serve::ShardedEngine worker samples its own graph
  /// replica; only HopEntry::node is read). ComputePartial is exactly
  /// sampling each record's neighborhood locally, then delegating here;
  /// accumulation order (record-major, hop-entry order) is identical, so
  /// the two paths produce bitwise-equal partials for equal hop lists.
  /// No graph access; thread-safe.
  PartialPropagation ComputePartialFromHops(
      std::span<const InteractionRecord> records,
      std::span<const int64_t> event_index,
      std::span<const std::vector<graph::HopEntry>> hops) const;

  /// ρ for one recipient: divides the merged sum by the contribution
  /// count. `partial.count` must be positive.
  static MailDelivery FinalizeReduce(PartialPropagation::PartialReduce&& partial);

  /// \brief Full propagation: ComputeDeliveries then ψ (mailbox append).
  /// \return number of deliveries made.
  int64_t Propagate(const std::vector<InteractionRecord>& batch,
                    Mailbox* mailbox) const;

  /// φ alone: mail(t) = z_i + e_ij + z_j. Exposed for tests.
  std::vector<float> MakeMail(const InteractionRecord& record) const;

 private:
  ApanConfig config_;
  const graph::TemporalGraph* graph_;
  const graph::EdgeFeatureStore* features_;
  /// Only drawn from under PropagationSampling::kUniform.
  mutable Rng sampling_rng_{0xA9A17ULL};
};

}  // namespace core
}  // namespace apan

#endif  // APAN_CORE_PROPAGATOR_H_
