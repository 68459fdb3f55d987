#include "core/node_state_store.h"

#include <algorithm>
#include <utility>

namespace apan {
namespace core {

NodeStateStore::NodeStateStore(int64_t num_nodes, int64_t slots, int64_t dim)
    : NodeStateStore(graph::NodePartition::BuildDefault(num_nodes, 1),
                     /*shard=*/0, slots, dim) {}

NodeStateStore::NodeStateStore(
    std::shared_ptr<const graph::NodePartition> partition, int shard,
    int64_t slots, int64_t dim)
    : dim_(dim),
      partition_(std::move(partition)),
      shard_(shard),
      mailbox_(partition_ != nullptr && shard >= 0 &&
                       shard < partition_->num_shards
                   ? partition_->owned_count[static_cast<size_t>(shard)]
                   : 0,
               slots, dim),
      state_(static_cast<size_t>(mailbox_.num_nodes() * dim), 0.0f) {
  APAN_CHECK_MSG(partition_ != nullptr, "null NodePartition");
  APAN_CHECK_MSG(shard >= 0 && shard < partition_->num_shards,
                 "shard id out of range for the NodePartition");
  APAN_CHECK_MSG(partition_->num_nodes() > 0 && dim > 0,
                 "NodeStateStore dimensions must be positive");
}

bool NodeStateStore::Owns(graph::NodeId node) const {
  if (node < 0 || node >= num_nodes()) return false;
  return partition_->owner_of[static_cast<size_t>(node)] == shard_;
}

int64_t NodeStateStore::LocalRow(graph::NodeId node) const {
  APAN_CHECK_MSG(node >= 0 && node < num_nodes(),
                 "node id out of range in NodeStateStore");
  APAN_CHECK_MSG(partition_->owner_of[static_cast<size_t>(node)] == shard_,
                 "node is not owned by this NodeStateStore");
  return partition_->local_row[static_cast<size_t>(node)];
}

tensor::Tensor NodeStateStore::GatherLastEmbeddings(
    const std::vector<graph::NodeId>& nodes) const {
  std::vector<float> out(nodes.size() * static_cast<size_t>(dim_));
  for (size_t i = 0; i < nodes.size(); ++i) {
    const int64_t row = LocalRow(nodes[i]);
    std::copy_n(state_.data() + static_cast<size_t>(row * dim_), dim_,
                out.data() + i * static_cast<size_t>(dim_));
  }
  return tensor::Tensor::FromVector({static_cast<int64_t>(nodes.size()), dim_},
                                    std::move(out));
}

void NodeStateStore::UpdateLastEmbeddings(
    const std::vector<graph::NodeId>& nodes,
    const tensor::Tensor& embeddings) {
  APAN_CHECK(embeddings.defined() && embeddings.rank() == 2);
  APAN_CHECK(embeddings.dim(0) == static_cast<int64_t>(nodes.size()) &&
             embeddings.dim(1) == dim_);
  const float* src = embeddings.data();
  for (size_t i = 0; i < nodes.size(); ++i) {
    const int64_t row = LocalRow(nodes[i]);
    std::copy_n(src + i * static_cast<size_t>(dim_), dim_,
                state_.data() + static_cast<size_t>(row * dim_));
  }
}

std::vector<float> NodeStateStore::LastEmbedding(graph::NodeId node) const {
  const int64_t row = LocalRow(node);
  return std::vector<float>(
      state_.begin() + static_cast<size_t>(row * dim_),
      state_.begin() + static_cast<size_t>((row + 1) * dim_));
}

void NodeStateStore::SetLastEmbedding(graph::NodeId node,
                                      std::span<const float> z) {
  const int64_t row = LocalRow(node);
  APAN_CHECK_MSG(static_cast<int64_t>(z.size()) == dim_,
                 "embedding dimension mismatch");
  std::copy(z.begin(), z.end(),
            state_.begin() + static_cast<size_t>(row * dim_));
}

Mailbox::ReadResult NodeStateStore::ReadBatch(
    const std::vector<graph::NodeId>& nodes) const {
  std::vector<graph::NodeId> rows;
  rows.reserve(nodes.size());
  for (const graph::NodeId v : nodes) rows.push_back(LocalRow(v));
  return mailbox_.ReadBatch(rows);
}

void NodeStateStore::Deliver(graph::NodeId node, std::span<const float> mail,
                             double timestamp) {
  mailbox_.Deliver(LocalRow(node), mail, timestamp);
}

int64_t NodeStateStore::ValidCount(graph::NodeId node) const {
  return mailbox_.ValidCount(LocalRow(node));
}

double NodeStateStore::NewestTimestamp(graph::NodeId node) const {
  return mailbox_.NewestTimestamp(LocalRow(node));
}

std::span<const float> NodeStateStore::RawSlot(graph::NodeId node,
                                               int64_t slot) const {
  return mailbox_.RawSlot(LocalRow(node), slot);
}

Status NodeStateStore::RestoreRawState(std::span<const float> z) {
  if (z.size() != state_.size()) {
    return Status::InvalidArgument(internal::StrCat(
        "state restore: got ", z.size(), " floats for a store holding ",
        state_.size(), " (owned_count * dim mismatch)"));
  }
  std::copy(z.begin(), z.end(), state_.begin());
  return Status::OK();
}

void NodeStateStore::Reset() {
  std::fill(state_.begin(), state_.end(), 0.0f);
  mailbox_.Clear();
}

int64_t NodeStateStore::MemoryBytes() const {
  // The partition index is shared by num_shards stores; charge each
  // store its amortized share so summing over the partition counts the
  // index exactly once.
  const int64_t index_bytes =
      static_cast<int64_t>(
          (partition_->owner_of.size() + partition_->local_row.size()) *
          sizeof(int32_t)) /
      partition_->num_shards;
  return mailbox_.MemoryBytes() +
         static_cast<int64_t>(state_.size() * sizeof(float)) + index_bytes;
}

}  // namespace core
}  // namespace apan
