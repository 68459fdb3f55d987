#include "core/propagator.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <unordered_map>

namespace apan {
namespace core {

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

  // ρ applies only to the propagated k-hop copies (that is where
  // high-degree nodes would otherwise be flooded); the endpoints' own
  // unreduced hop-0 mail is the caller's. Accumulators: one flat row per
  // distinct hop-1..k recipient in first-touch order, sorted by recipient
  // on the way out.
  std::unordered_map<graph::NodeId, size_t> slot_of;
  std::vector<graph::NodeId> recipient;
  std::vector<double> newest;
  std::vector<int64_t> contributions;
  std::vector<float> sums;
  std::vector<float> mail(du);

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
            batch.z.data() + static_cast<size_t>(dst_row) * du, mail.data());
    const double t = event.timestamp;

    // Hops 1..k: mail passing f is the identity, so every sampled
    // occurrence receives the same payload.
    for (const graph::NodeId node : reached) {
      if (node == event.src || node == event.dst) {
        continue;  // endpoints receive the mail directly, at hop 0
      }
      const auto [it, inserted] = slot_of.try_emplace(node, recipient.size());
      if (inserted) {
        // A recipient's newest timestamp starts at its first
        // contribution's, never at a constant a negative time would lose to.
        recipient.push_back(node);
        newest.push_back(t);
        contributions.push_back(0);
        sums.resize(sums.size() + du, 0.0f);
      }
      float* acc = sums.data() + it->second * du;
      for (int64_t i = 0; i < d; ++i) acc[i] += mail[static_cast<size_t>(i)];
      newest[it->second] = std::max(newest[it->second], t);
      ++contributions[it->second];
    }
  }

  std::vector<size_t> order(recipient.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&recipient](size_t a, size_t b) {
    return recipient[a] < recipient[b];
  });
  *partial = RowBlock{};
  partial->width = d;
  partial->node.reserve(order.size());
  partial->timestamp.reserve(order.size());
  partial->count.reserve(order.size());
  partial->rows.resize(order.size() * du);
  for (size_t i = 0; i < order.size(); ++i) {
    const size_t slot = order[i];
    partial->node.push_back(recipient[slot]);
    partial->timestamp.push_back(newest[slot]);
    partial->count.push_back(contributions[slot]);
    std::copy_n(sums.data() + slot * du, du, partial->row(i));
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
