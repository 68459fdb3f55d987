// The mailbox — APAN's per-node message store (paper §3.5, ψ).
//
// Each node owns a fixed number of slots holding the most recent mails it
// has received, in a FIFO ring (the paper's "first-in-first-out queue data
// structure ... will retain the latest information and discard old
// mails"). Read-out is time-sorted, which is what makes APAN tolerant of
// out-of-order delivery in distributed streaming systems (paper §3.6,
// "Mailbox Mechanism"). The sort is maintained at *write* time: each node
// keeps a slot permutation ordered by (timestamp, arrival), updated by an
// O(slots) insertion step per delivery, so ReadBatch — the hot half of
// every serve-path encode — is a straight gather with no per-read sort or
// allocation. Eviction stays pure FIFO (oldest *arrival* leaves first,
// regardless of timestamp), exactly the ring the paper describes.

#ifndef APAN_CORE_MAILBOX_H_
#define APAN_CORE_MAILBOX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/temporal_graph.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace apan {
namespace core {

/// One reduced mail addressed to one node.
struct MailDelivery {
  graph::NodeId recipient = -1;
  std::vector<float> mail;
  double timestamp = 0.0;
  int64_t contributions = 0;  ///< Mails merged by ρ into this delivery.
};

/// \brief Fixed-capacity per-node mail storage over a dense row range.
///
/// Memory is O(num_nodes * slots * dim) — bounded by the node count, not
/// the (unbounded) edge count; §4.7 argues this is why the mailbox is not
/// the system's memory bottleneck. Rows are whatever the owner maps them
/// to: the whole graph (ApanModel's default store) or one shard's owned
/// nodes behind NodeStateStore's dense local index. num_nodes == 0 is a
/// valid empty mailbox (a shard that owns no nodes).
class Mailbox {
 public:
  Mailbox(int64_t num_nodes, int64_t slots, int64_t dim);

  int64_t num_nodes() const { return num_nodes_; }
  int64_t slots() const { return slots_; }
  int64_t dim() const { return dim_; }

  /// \brief Stores `mail` (dim() floats) for `node`, evicting the oldest
  /// mail when the ring is full. Out-of-order timestamps are accepted.
  void Deliver(graph::NodeId node, std::span<const float> mail,
               double timestamp);

  /// \brief Deliver() for each entry, in span order — the record form the
  /// serving benchmark's serial replay (servebench/harness.cc) still
  /// calls; every other path delivers row by row through Deliver().
  /// \return number of mails stored.
  int64_t DeliverBatch(std::span<const MailDelivery> deliveries);

  /// Number of mails currently held for `node` (0..slots()).
  int64_t ValidCount(graph::NodeId node) const;

  /// Timestamp of the newest mail held for `node` (-inf when empty).
  double NewestTimestamp(graph::NodeId node) const;

  /// Mail contents of one slot of one node, in *storage* order (tests).
  std::span<const float> RawSlot(graph::NodeId node, int64_t slot) const;

  /// Batched, time-sorted read-out for the encoder. An empty node list is
  /// valid (admission control can produce one) and yields a well-formed
  /// zero-row result.
  struct ReadResult {
    /// {batch, slots, dim} — valid mails first (oldest to newest), then
    /// zero padding.
    tensor::Tensor mails;
    /// batch*slots additive attention mask: 0 for valid slots,
    /// MultiHeadAttention::kMaskedOut for padding. Nodes with an empty
    /// mailbox get an all-zero mask (uniform attention over zeros is the
    /// stable cold-start behaviour).
    std::vector<float> mask;
    /// Valid mail count per batch row.
    std::vector<int64_t> counts;
    /// batch*slots mail timestamps in the same (time-sorted) slot order;
    /// 0 for padding. Consumed by the time-kernel positional mode.
    std::vector<double> timestamps;
  };
  ReadResult ReadBatch(const std::vector<graph::NodeId>& nodes) const;

  /// Drops all mail (used between training epochs).
  void Clear();

  /// \name Raw storage views (serve/snapshot.cc, state digests)
  /// In *storage* order, not read order: node n's mails sit in its ring
  /// oldest-first from slot raw_head()[n], raw_count()[n] of them, and
  /// raw_order() holds each node's time-sorted slot permutation. A
  /// snapshot keeps the mails in arrival order and restores them through
  /// Deliver, which rebuilds the ring and the permutation.
  ///@{
  std::span<const float> raw_data() const { return data_; }
  std::span<const double> raw_timestamps() const { return timestamps_; }
  std::span<const int32_t> raw_head() const { return head_; }
  std::span<const int32_t> raw_count() const { return count_; }
  std::span<const int32_t> raw_order() const { return order_; }
  ///@}

  /// Bytes of mail payload storage (including the per-node sorted slot
  /// permutation — it scales with nodes × slots like everything else).
  int64_t MemoryBytes() const {
    return static_cast<int64_t>(data_.size() * sizeof(float) +
                                timestamps_.size() * sizeof(double) +
                                order_.size() * sizeof(int32_t));
  }

 private:
  size_t SlotOffset(graph::NodeId node, int64_t slot) const {
    return (static_cast<size_t>(node) * static_cast<size_t>(slots_) +
            static_cast<size_t>(slot)) *
           static_cast<size_t>(dim_);
  }

  /// Inserts `slot` (timestamp already written) into node `n`'s sorted
  /// permutation, which currently holds `valid` entries. The new slot is
  /// the latest arrival, so it lands after every entry with an equal or
  /// older timestamp — the position a stable sort-on-read would give it.
  void InsertIntoOrder(size_t n, int32_t slot, double timestamp,
                       int32_t valid);
  /// Removes `slot` from node `n`'s sorted permutation of `valid` entries
  /// (FIFO eviction: the departing slot is the oldest arrival, which can
  /// sit anywhere in timestamp order).
  void RemoveFromOrder(size_t n, int32_t slot, int32_t valid);

  int64_t num_nodes_;
  int64_t slots_;
  int64_t dim_;
  std::vector<float> data_;        // num_nodes * slots * dim
  std::vector<double> timestamps_; // num_nodes * slots
  std::vector<int32_t> head_;      // ring head per node
  std::vector<int32_t> count_;     // valid slots per node
  /// Per node, the first count_[n] entries are slot ids sorted by
  /// (timestamp asc, arrival asc) — the read-out order, maintained on
  /// write so reads never sort.
  std::vector<int32_t> order_;     // num_nodes * slots
};

}  // namespace core
}  // namespace apan

#endif  // APAN_CORE_MAILBOX_H_
