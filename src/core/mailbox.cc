#include "core/mailbox.h"

#include <algorithm>
#include <limits>

#include "nn/attention.h"
#include "obs/trace.h"

namespace apan {
namespace core {

// Thread contract: a Mailbox carries no lock — it is always reached
// through an exclusively-owned NodeStateStore, whose owner provides the
// synchronization (a ShardedEngine shard's state_mu / worker confinement,
// or the single thread that drives ApanModel in training; see
// util/thread_annotations.h and docs/static-analysis.md). Adding a mutex here would double-lock every
// delivery for no added safety.

Mailbox::Mailbox(int64_t num_nodes, int64_t slots, int64_t dim)
    : num_nodes_(num_nodes), slots_(slots), dim_(dim) {
  // num_nodes == 0 is a valid (empty) mailbox: a NodeStateStore for a
  // shard that happens to own no nodes still needs a well-formed slice.
  APAN_CHECK_MSG(num_nodes >= 0 && slots > 0 && dim > 0,
                 "Mailbox needs num_nodes >= 0 and positive slots/dim");
  data_.assign(static_cast<size_t>(num_nodes) * slots * dim, 0.0f);
  timestamps_.assign(static_cast<size_t>(num_nodes) * slots, 0.0);
  head_.assign(static_cast<size_t>(num_nodes), 0);
  count_.assign(static_cast<size_t>(num_nodes), 0);
  order_.assign(static_cast<size_t>(num_nodes) * slots, 0);
}

void Mailbox::InsertIntoOrder(size_t n, int32_t slot, double timestamp,
                              int32_t valid) {
  // One insertion-sort step against the already-sorted prefix. The new
  // slot is the latest arrival, so it goes after every entry with
  // timestamp <= its own — exactly where the old stable sort-on-read
  // (stable on arrival order) would place it.
  int32_t* row = order_.data() + n * static_cast<size_t>(slots_);
  const double* ts = timestamps_.data() + n * static_cast<size_t>(slots_);
  int32_t i = valid;
  while (i > 0 && ts[row[i - 1]] > timestamp) {
    row[i] = row[i - 1];
    --i;
  }
  row[i] = slot;
}

void Mailbox::RemoveFromOrder(size_t n, int32_t slot, int32_t valid) {
  int32_t* row = order_.data() + n * static_cast<size_t>(slots_);
  int32_t i = 0;
  while (i < valid && row[i] != slot) ++i;
  APAN_CHECK_MSG(i < valid, "evicted slot missing from mailbox order");
  for (; i + 1 < valid; ++i) row[i] = row[i + 1];
}

void Mailbox::Deliver(graph::NodeId node, std::span<const float> mail,
                      double timestamp) {
  APAN_CHECK_MSG(node >= 0 && node < num_nodes_, "mailbox node out of range");
  APAN_CHECK_MSG(static_cast<int64_t>(mail.size()) == dim_,
                 "mail dimension mismatch");
  const auto n = static_cast<size_t>(node);
  int64_t slot;
  if (count_[n] < slots_) {
    slot = (head_[n] + count_[n]) % slots_;
    ++count_[n];
    InsertIntoOrder(n, static_cast<int32_t>(slot), timestamp, count_[n] - 1);
  } else {
    slot = head_[n];  // evict oldest
    head_[n] = static_cast<int32_t>((head_[n] + 1) % slots_);
    RemoveFromOrder(n, static_cast<int32_t>(slot),
                    static_cast<int32_t>(slots_));
    InsertIntoOrder(n, static_cast<int32_t>(slot), timestamp,
                    static_cast<int32_t>(slots_) - 1);
  }
  std::copy(mail.begin(), mail.end(), data_.begin() + SlotOffset(node, slot));
  timestamps_[n * static_cast<size_t>(slots_) + static_cast<size_t>(slot)] =
      timestamp;
}

int64_t Mailbox::DeliverBatch(std::span<const MailDelivery> deliveries) {
  for (const MailDelivery& d : deliveries) {
    Deliver(d.recipient, d.mail, d.timestamp);
  }
  return static_cast<int64_t>(deliveries.size());
}

int64_t Mailbox::ValidCount(graph::NodeId node) const {
  APAN_CHECK_MSG(node >= 0 && node < num_nodes_, "mailbox node out of range");
  return count_[static_cast<size_t>(node)];
}

double Mailbox::NewestTimestamp(graph::NodeId node) const {
  APAN_CHECK_MSG(node >= 0 && node < num_nodes_, "mailbox node out of range");
  const auto n = static_cast<size_t>(node);
  if (count_[n] == 0) return -std::numeric_limits<double>::infinity();
  // The sorted permutation's last valid entry is the newest timestamp.
  const int32_t slot =
      order_[n * static_cast<size_t>(slots_) +
             static_cast<size_t>(count_[n] - 1)];
  return timestamps_[n * static_cast<size_t>(slots_) +
                     static_cast<size_t>(slot)];
}

std::span<const float> Mailbox::RawSlot(graph::NodeId node,
                                        int64_t slot) const {
  APAN_CHECK_MSG(node >= 0 && node < num_nodes_, "mailbox node out of range");
  APAN_CHECK_MSG(slot >= 0 && slot < slots_, "mailbox slot out of range");
  return {data_.data() + SlotOffset(node, slot), static_cast<size_t>(dim_)};
}

Mailbox::ReadResult Mailbox::ReadBatch(
    const std::vector<graph::NodeId>& nodes) const {
  // Formerly the known non-kernel hot spot (per-node sort-on-read); now a
  // straight gather through the write-maintained slot permutation. Still
  // traced so a Perfetto view shows how much of each encode it eats.
  APAN_TRACE_SPAN("mailbox_read");
  const int64_t batch = static_cast<int64_t>(nodes.size());
  ReadResult result;
  std::vector<float> out(static_cast<size_t>(batch * slots_ * dim_), 0.0f);
  result.mask.assign(static_cast<size_t>(batch * slots_), 0.0f);
  result.counts.resize(static_cast<size_t>(batch));
  result.timestamps.assign(static_cast<size_t>(batch * slots_), 0.0);

  for (int64_t b = 0; b < batch; ++b) {
    const graph::NodeId node = nodes[static_cast<size_t>(b)];
    APAN_CHECK_MSG(node >= 0 && node < num_nodes_,
                   "mailbox node out of range");
    const auto n = static_cast<size_t>(node);
    const int32_t c = count_[n];
    result.counts[static_cast<size_t>(b)] = c;

    // Valid slots in (timestamp, arrival) order — maintained at delivery
    // time, so the out-of-order tolerance costs nothing here.
    const int32_t* order = order_.data() + n * static_cast<size_t>(slots_);
    for (int32_t pos = 0; pos < c; ++pos) {
      std::copy_n(data_.data() + SlotOffset(node, order[pos]), dim_,
                  out.data() + (b * slots_ + pos) * dim_);
      result.timestamps[static_cast<size_t>(b * slots_ + pos)] =
          timestamps_[n * static_cast<size_t>(slots_) +
                      static_cast<size_t>(order[pos])];
    }
    // Mask padding slots — except for fully-empty mailboxes, which keep an
    // all-valid mask so softmax stays a well-conditioned uniform.
    if (c > 0) {
      for (int64_t pos = c; pos < slots_; ++pos) {
        result.mask[static_cast<size_t>(b * slots_ + pos)] =
            nn::MultiHeadAttention::kMaskedOut;
      }
    }
  }
  result.mails =
      tensor::Tensor::FromVector({batch, slots_, dim_}, std::move(out));
  return result;
}

Status Mailbox::RestoreRaw(std::span<const float> data,
                           std::span<const double> timestamps,
                           std::span<const int32_t> head,
                           std::span<const int32_t> count,
                           std::span<const int32_t> order) {
  const auto nodes = static_cast<size_t>(num_nodes_);
  const auto slots = static_cast<size_t>(slots_);
  if (data.size() != nodes * slots * static_cast<size_t>(dim_) ||
      timestamps.size() != nodes * slots || head.size() != nodes ||
      count.size() != nodes || order.size() != nodes * slots) {
    return Status::InvalidArgument(
        "mailbox restore: span sizes do not match this mailbox's "
        "num_nodes/slots/dim geometry");
  }
  // Validate every node's ring invariants BEFORE touching any storage so
  // a rejected restore leaves the mailbox exactly as it was.
  std::vector<bool> seen(slots);
  for (size_t n = 0; n < nodes; ++n) {
    if (head[n] < 0 || head[n] >= slots_) {
      return Status::InvalidArgument(internal::StrCat(
          "mailbox restore: node ", n, " ring head ", head[n],
          " outside [0, ", slots_, ")"));
    }
    if (count[n] < 0 || count[n] > slots_) {
      return Status::InvalidArgument(internal::StrCat(
          "mailbox restore: node ", n, " valid count ", count[n],
          " outside [0, ", slots_, "]"));
    }
    // The first count[n] permutation entries must be distinct valid slot
    // ids sorted by timestamp (ties broken by arrival at write time, so
    // non-decreasing is the checkable invariant).
    std::fill(seen.begin(), seen.end(), false);
    const int32_t* row = order.data() + n * slots;
    const double* ts = timestamps.data() + n * slots;
    for (int32_t i = 0; i < count[n]; ++i) {
      const int32_t slot = row[i];
      if (slot < 0 || slot >= slots_) {
        return Status::InvalidArgument(internal::StrCat(
            "mailbox restore: node ", n, " order entry ", i, " names slot ",
            slot, " outside [0, ", slots_, ")"));
      }
      if (seen[static_cast<size_t>(slot)]) {
        return Status::InvalidArgument(internal::StrCat(
            "mailbox restore: node ", n, " order repeats slot ", slot));
      }
      seen[static_cast<size_t>(slot)] = true;
      if (i > 0 && ts[row[i - 1]] > ts[slot]) {
        return Status::InvalidArgument(internal::StrCat(
            "mailbox restore: node ", n, " order is not time-sorted at ",
            "entry ", i));
      }
    }
  }
  data_.assign(data.begin(), data.end());
  timestamps_.assign(timestamps.begin(), timestamps.end());
  head_.assign(head.begin(), head.end());
  count_.assign(count.begin(), count.end());
  order_.assign(order.begin(), order.end());
  return Status::OK();
}

void Mailbox::Clear() {
  std::fill(data_.begin(), data_.end(), 0.0f);
  std::fill(timestamps_.begin(), timestamps_.end(), 0.0);
  std::fill(head_.begin(), head_.end(), 0);
  std::fill(count_.begin(), count_.end(), 0);
  std::fill(order_.begin(), order_.end(), 0);
}

}  // namespace core
}  // namespace apan
