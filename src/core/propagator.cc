#include "core/propagator.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

namespace apan {
namespace core {

namespace {

// φ: mail(t) = z_i(t) + e_ij(t) + z_j(t), one row of `d` floats.
void MailRow(const float* z_src, const float* e, const float* z_dst,
             int64_t d, float* out) {
  for (int64_t i = 0; i < d; ++i) out[i] = z_src[i] + e[i] + z_dst[i];
}

}  // namespace

MailPropagator::MailPropagator(const ApanConfig& config,
                               const graph::TemporalGraph* graph,
                               const graph::EdgeFeatureStore* features)
    : config_(config), graph_(graph), features_(features) {
  APAN_CHECK(graph != nullptr && features != nullptr);
  APAN_CHECK(config.Validate().ok());
  APAN_CHECK_MSG(features->dim() == config.embedding_dim,
                 "mail dim must equal edge feature dim (paper §3.5)");
}

std::vector<float> MailPropagator::MakeMail(
    const InteractionRecord& record) const {
  const int64_t d = config_.embedding_dim;
  APAN_CHECK_MSG(static_cast<int64_t>(record.z_src.size()) == d &&
                     static_cast<int64_t>(record.z_dst.size()) == d,
                 "interaction embeddings have wrong dimension");
  std::vector<float> mail(static_cast<size_t>(d));
  MailRow(record.z_src.data(), features_->Row(record.event.edge_id),
          record.z_dst.data(), d, mail.data());
  return mail;
}

PartialPropagation MailPropagator::ComputePartial(
    std::span<const InteractionRecord> records,
    std::span<const int64_t> event_index) const {
  // N: sample each record's neighborhood on the local monolithic graph,
  // then run the graph-free stage. Most-recent sampling is the paper's
  // choice; uniform is the §3.5 alternative.
  std::vector<std::vector<graph::HopEntry>> hops(records.size());
  if (config_.propagation_hops > 0) {
    for (size_t r = 0; r < records.size(); ++r) {
      const InteractionRecord& record = records[r];
      const double t = record.event.timestamp;
      hops[r] =
          config_.sampling == PropagationSampling::kMostRecent
              ? graph::KHopMostRecent(
                    *graph_, {record.event.src, record.event.dst}, t,
                    config_.propagation_hops, config_.sampled_neighbors)
              : graph::KHopUniform(
                    *graph_, {record.event.src, record.event.dst}, t,
                    config_.propagation_hops, config_.sampled_neighbors,
                    &sampling_rng_);
    }
  }
  return ComputePartialFromHops(records, event_index, hops);
}

void MailPropagator::PropagateRows(
    const InteractionRows& batch,
    std::span<const std::vector<graph::HopEntry>> hops, RowBlock* hop0,
    RowBlock* partial) const {
  const size_t n = batch.events.size();
  APAN_CHECK_MSG(batch.event_index.size() == n && batch.src_row.size() == n &&
                     batch.dst_row.size() == n,
                 "one event index and embedding row pair per record");
  APAN_CHECK_MSG(hops.size() == n, "one hop expansion per record");
  const int64_t d = config_.embedding_dim;
  const auto du = static_cast<size_t>(d);
  APAN_CHECK_MSG(batch.z.size() % du == 0,
                 "interaction embeddings have wrong dimension");
  const auto z_rows = static_cast<int64_t>(batch.z.size() / du);

  // Hop 0: each event's mail goes to both endpoints *unreduced* — a node's
  // own interactions each occupy a mailbox slot, keeping its own history
  // crisp. ρ applies only to the propagated k-hop copies below (that is
  // where high-degree nodes would otherwise be flooded). φ writes each
  // mail straight into its hop-0 row, so the arena is sized up front.
  size_t hop0_rows = 0;
  for (const graph::Event& e : batch.events) {
    hop0_rows += e.src == e.dst ? 1 : 2;
  }
  *hop0 = RowBlock{};
  hop0->width = d;
  hop0->sequence.reserve(hop0_rows);
  hop0->node.reserve(hop0_rows);
  hop0->timestamp.reserve(hop0_rows);
  hop0->count.reserve(hop0_rows);
  hop0->rows.resize(hop0_rows * du);

  // ρ accumulators, one flat row per distinct hop-1..k recipient in
  // first-touch order; sorted by recipient on the way out.
  std::unordered_map<graph::NodeId, size_t> slot_of;
  std::vector<graph::NodeId> recipient;
  std::vector<double> newest;
  std::vector<int64_t> contributions;
  std::vector<float> sums;

  for (size_t r = 0; r < n; ++r) {
    const graph::Event& event = batch.events[r];
    const int64_t src_row = batch.src_row[r];
    const int64_t dst_row = batch.dst_row[r];
    APAN_CHECK_MSG(src_row >= 0 && src_row < z_rows && dst_row >= 0 &&
                       dst_row < z_rows,
                   "interaction embedding row out of range");
    float* mail = hop0->row(hop0->size());  // the next hop-0 row
    MailRow(batch.z.data() + static_cast<size_t>(src_row) * du,
            features_->Row(event.edge_id),
            batch.z.data() + static_cast<size_t>(dst_row) * du, d, mail);
    const double t = event.timestamp;

    // Hops 1..k: mail passing f is the identity, so every sampled
    // occurrence receives the same payload.
    for (const auto& entry : hops[r]) {
      if (entry.node == event.src || entry.node == event.dst) {
        continue;  // endpoints already receive the mail directly
      }
      const auto [it, inserted] =
          slot_of.try_emplace(entry.node, recipient.size());
      if (inserted) {
        recipient.push_back(entry.node);
        newest.push_back(0.0);
        contributions.push_back(0);
        sums.resize(sums.size() + du, 0.0f);
      }
      float* acc = sums.data() + it->second * du;
      for (int64_t i = 0; i < d; ++i) acc[i] += mail[i];
      newest[it->second] = std::max(newest[it->second], t);
      ++contributions[it->second];
    }

    const int64_t seq = 2 * batch.event_index[r];
    hop0->sequence.push_back(seq);
    hop0->node.push_back(event.src);
    hop0->timestamp.push_back(t);
    hop0->count.push_back(1);
    if (event.dst != event.src) {
      std::copy_n(mail, du, hop0->row(hop0->size()));
      hop0->sequence.push_back(seq + 1);
      hop0->node.push_back(event.dst);
      hop0->timestamp.push_back(t);
      hop0->count.push_back(1);
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
  RowBlock hop0, partial;
  PropagateRows({events, event_index, z, src_row, dst_row}, hops, &hop0,
                &partial);

  PartialPropagation out;
  out.hop0.reserve(hop0.size());
  for (size_t i = 0; i < hop0.size(); ++i) {
    out.hop0.push_back(
        {hop0.sequence[i],
         {hop0.node[i], std::vector<float>(hop0.row(i), hop0.row(i) + d),
          hop0.timestamp[i], hop0.count[i]}});
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

void MailPropagator::FinalizeRow(float* row, int64_t width, int64_t count) {
  APAN_CHECK_MSG(count > 0, "FinalizeReduce on empty partial");
  const float inv = 1.0f / static_cast<float>(count);
  for (int64_t i = 0; i < width; ++i) row[i] *= inv;
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

std::vector<MailDelivery> MailPropagator::ComputeDeliveries(
    const std::vector<InteractionRecord>& batch) const {
  std::vector<int64_t> event_index(batch.size());
  std::iota(event_index.begin(), event_index.end(), 0);
  PartialPropagation part = ComputePartial(batch, event_index);

  std::vector<MailDelivery> out;
  out.reserve(part.hop0.size() + part.partial.size());
  for (auto& tagged : part.hop0) out.push_back(std::move(tagged.delivery));
  // ρ: mean-reduce the propagated mails to one per recipient per batch.
  for (auto& partial : part.partial) {
    out.push_back(FinalizeReduce(std::move(partial)));
  }
  return out;
}

int64_t MailPropagator::Propagate(
    const std::vector<InteractionRecord>& batch, Mailbox* mailbox) const {
  APAN_CHECK(mailbox != nullptr);
  const auto deliveries = ComputeDeliveries(batch);
  return mailbox->DeliverBatch(deliveries);
}

}  // namespace core
}  // namespace apan
