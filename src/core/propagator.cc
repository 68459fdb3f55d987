#include "core/propagator.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "tensor/kernels.h"

namespace apan {
namespace core {

namespace {

constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();

/// PropagateRows' per-thread scratch. `slot` is the dense recipient index
/// and `touched` a bitmap over the same node ids; between calls every slot
/// is kNoSlot and every bit clear, because each call resets exactly the
/// entries it set. Thread-local (like the encoder's position-id cache), so
/// concurrent calls never share it; it only grows.
struct PropagateScratch {
  std::vector<uint32_t> slot;     ///< Node id -> recipient slot.
  std::vector<uint64_t> touched;  ///< Bit v set: node v is a recipient.
  std::vector<float> mails;       ///< Record r's mail at row r.
  std::vector<int64_t> count;     ///< Per first-touch slot.
  std::vector<double> newest;     ///< Per first-touch slot.
  std::vector<uint32_t> offset;   ///< CSR over sorted slots into `member`.
  std::vector<uint32_t> cursor;
  std::vector<uint32_t> member;   ///< Contributing record indices.
};
thread_local PropagateScratch t_propagate;

}  // namespace

MailPropagator::MailPropagator(const ApanConfig& config,
                               const graph::EdgeFeatureStore* features)
    : config_(config), features_(features) {
  APAN_CHECK(features != nullptr);
  APAN_CHECK(config.Validate().ok());
  APAN_CHECK_MSG(features->dim() == config.embedding_dim,
                 "mail dim must equal edge feature dim (paper §3.5)");
}

void MailPropagator::MailRow(const graph::Event& event, const float* z_src,
                             const float* z_dst, float* out) const {
  const float* e = features_->Row(event.edge_id);
  for (int64_t i = 0; i < config_.embedding_dim; ++i) {
    out[i] = z_src[i] + e[i] + z_dst[i];
  }
}

bool HopList::WellFormed() const {
  if (offset.empty()) return node.empty();
  if (offset.front() != 0 || offset.back() != node.size()) return false;
  return std::is_sorted(offset.begin(), offset.end());
}

HopList HopList::FromEntries(
    std::span<const std::vector<graph::HopEntry>> hops) {
  HopList list;
  list.offset.reserve(hops.size() + 1);
  list.offset.push_back(0);
  for (const std::vector<graph::HopEntry>& entries : hops) {
    for (const graph::HopEntry& entry : entries) {
      list.node.push_back(entry.node);
    }
    APAN_CHECK_MSG(list.node.size() <= std::numeric_limits<uint32_t>::max(),
                   "hop list exceeds 2^32 entries");
    list.offset.push_back(static_cast<uint32_t>(list.node.size()));
  }
  return list;
}

void MailPropagator::PropagateRows(const InteractionRows& batch,
                                   const HopList& hops,
                                   RowBlock* partial) const {
  const size_t n = batch.events.size();
  APAN_CHECK_MSG(batch.src_row.size() == n && batch.dst_row.size() == n,
                 "one embedding row pair per record");
  APAN_CHECK_MSG(hops.offset.size() == n + 1 && hops.WellFormed(),
                 "one hop list per record");
  const int64_t d = config_.embedding_dim;
  const auto du = static_cast<size_t>(d);
  APAN_CHECK_MSG(batch.z.size() % du == 0,
                 "interaction embeddings have wrong dimension");
  const auto z_rows = static_cast<int64_t>(batch.z.size() / du);

  PropagateScratch& s = t_propagate;
  const auto num_nodes = static_cast<size_t>(config_.num_nodes);
  if (s.slot.size() < num_nodes) {
    s.slot.resize(num_nodes, kNoSlot);
    s.touched.resize((num_nodes + 63) / 64, 0);
  }
  s.mails.resize(n * du);
  s.count.clear();
  s.newest.clear();

  // ρ applies only to the propagated k-hop copies (that is where
  // high-degree nodes would otherwise be flooded); the endpoints' own
  // unreduced hop-0 mail is the caller's. Count pass: φ once per record
  // that spreads a copy, and one first-touch slot per distinct hop-1..k
  // recipient with its contribution count and newest time (which starts
  // at its first contribution's, never at a constant a negative time
  // would lose to).
  for (size_t r = 0; r < n; ++r) {
    const graph::Event& event = batch.events[r];
    const int64_t src_row = batch.src_row[r];
    const int64_t dst_row = batch.dst_row[r];
    APAN_CHECK_MSG(src_row >= 0 && src_row < z_rows && dst_row >= 0 &&
                       dst_row < z_rows,
                   "interaction embedding row out of range");
    const std::span<const graph::NodeId> reached = hops.hops(r);
    if (reached.empty()) continue;  // no copy to spread
    MailRow(event, batch.z.data() + static_cast<size_t>(src_row) * du,
            batch.z.data() + static_cast<size_t>(dst_row) * du,
            s.mails.data() + r * du);
    const double t = event.timestamp;
    for (const graph::NodeId node : reached) {
      // Hop lists may come off a wire: range-check before indexing.
      APAN_CHECK_MSG(node >= 0 && node < config_.num_nodes,
                     "hop node out of range");
      if (node == event.src || node == event.dst) {
        continue;  // endpoints receive the mail directly, at hop 0
      }
      const auto v = static_cast<size_t>(node);
      uint32_t& slot = s.slot[v];
      if (slot == kNoSlot) {
        slot = static_cast<uint32_t>(s.count.size());
        s.touched[v / 64] |= uint64_t{1} << (v % 64);
        s.count.push_back(0);
        s.newest.push_back(t);
      }
      ++s.count[slot];
      s.newest[slot] = std::max(s.newest[slot], t);
    }
  }

  // Rows come out ascending by recipient: one scan of the bitmap (which
  // it clears) lists the recipients in id order, and each moves to its
  // sorted slot with its count and time.
  const size_t u = s.count.size();
  *partial = RowBlock{};
  partial->width = d;
  partial->node.reserve(u);
  partial->count.reserve(u);
  partial->timestamp.reserve(u);
  s.offset.resize(u + 1);
  s.offset[0] = 0;
  for (size_t w = 0; w < s.touched.size() && partial->size() < u; ++w) {
    for (uint64_t bits = std::exchange(s.touched[w], 0); bits != 0;
         bits &= bits - 1) {
      const size_t v = w * 64 + static_cast<size_t>(std::countr_zero(bits));
      const size_t i = partial->size();
      partial->node.push_back(static_cast<graph::NodeId>(v));
      partial->count.push_back(s.count[s.slot[v]]);
      partial->timestamp.push_back(s.newest[s.slot[v]]);
      s.slot[v] = static_cast<uint32_t>(i);
      s.offset[i + 1] = s.offset[i] + static_cast<uint32_t>(partial->count[i]);
    }
  }

  // Stable CSR fill: each recipient's contributing records in (record,
  // hop) order, a repeated occurrence repeated. Mail passing f is the
  // identity, so every occurrence adds the record's one mail row.
  s.cursor.assign(s.offset.begin(), s.offset.end() - 1);
  s.member.resize(s.offset[u]);
  for (size_t r = 0; r < n; ++r) {
    const graph::Event& event = batch.events[r];
    for (const graph::NodeId node : hops.hops(r)) {
      if (node == event.src || node == event.dst) continue;
      s.member[s.cursor[s.slot[static_cast<size_t>(node)]]++] =
          static_cast<uint32_t>(r);
    }
  }

  partial->rows.resize(u * du);
  tensor::kernels::SegmentRowSums(s.mails.data(), s.member.data(),
                                  s.offset.data(), static_cast<int64_t>(u), d,
                                  partial->rows.data());
  for (const graph::NodeId node : partial->node) {
    s.slot[static_cast<size_t>(node)] = kNoSlot;
  }
}

void MailPropagator::FinalizeRow(float* row, int64_t width, int64_t count) {
  APAN_CHECK_MSG(count > 0, "FinalizeRow on an empty partial");
  const float inv = 1.0f / static_cast<float>(count);
  for (int64_t i = 0; i < width; ++i) row[i] *= inv;
}

// ---- Record form (servebench/harness.cc only; see propagator.h) ----------

PartialPropagation MailPropagator::ComputePartialFromHops(
    std::span<const InteractionRecord> records,
    std::span<const int64_t> event_index,
    std::span<const std::vector<graph::HopEntry>> hops) const {
  APAN_CHECK_MSG(records.size() == event_index.size(),
                 "one event index per record");
  // Lay the records out flat: record r's endpoints are rows 2r and 2r + 1.
  const int64_t d = config_.embedding_dim;
  const size_t n = records.size();
  std::vector<graph::Event> events(n);
  std::vector<float> z(2 * n * static_cast<size_t>(d));
  std::vector<int64_t> src_row(n), dst_row(n);
  for (size_t r = 0; r < n; ++r) {
    const InteractionRecord& record = records[r];
    APAN_CHECK_MSG(static_cast<int64_t>(record.z_src.size()) == d &&
                       static_cast<int64_t>(record.z_dst.size()) == d,
                   "interaction embeddings have wrong dimension");
    events[r] = record.event;
    src_row[r] = static_cast<int64_t>(2 * r);
    dst_row[r] = static_cast<int64_t>(2 * r + 1);
    std::copy(record.z_src.begin(), record.z_src.end(),
              z.begin() + static_cast<ptrdiff_t>(2 * r) * d);
    std::copy(record.z_dst.begin(), record.z_dst.end(),
              z.begin() + static_cast<ptrdiff_t>(2 * r + 1) * d);
  }
  RowBlock partial;
  PropagateRows({events, z, src_row, dst_row}, HopList::FromEntries(hops),
                &partial);

  PartialPropagation out;
  out.hop0.reserve(2 * n);
  std::vector<float> mail(static_cast<size_t>(d));
  for (size_t r = 0; r < n; ++r) {
    const graph::Event& e = events[r];
    DeliverHop0(e, z.data() + 2 * r * static_cast<size_t>(d),
                z.data() + (2 * r + 1) * static_cast<size_t>(d), mail,
                [&](graph::NodeId node, const float*,
                    std::span<const float> row) {
                  const int64_t endpoint = node == e.src ? 0 : 1;
                  out.hop0.push_back(
                      {2 * event_index[r] + endpoint,
                       {node, std::vector<float>(row.begin(), row.end()),
                        e.timestamp, 1}});
                });
  }
  out.partial.reserve(partial.size());
  for (size_t i = 0; i < partial.size(); ++i) {
    out.partial.push_back(
        {partial.node[i],
         std::vector<float>(partial.row(i), partial.row(i) + d),
         partial.timestamp[i], partial.count[i]});
  }
  return out;
}

MailDelivery MailPropagator::FinalizeReduce(
    PartialPropagation::PartialReduce&& partial) {
  MailDelivery delivery;
  delivery.recipient = partial.recipient;
  delivery.mail = std::move(partial.sum);
  FinalizeRow(delivery.mail.data(),
              static_cast<int64_t>(delivery.mail.size()), partial.count);
  delivery.timestamp = partial.newest;
  delivery.contributions = partial.count;
  return delivery;
}

}  // namespace core
}  // namespace apan
