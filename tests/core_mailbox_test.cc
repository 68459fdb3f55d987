#include "core/mailbox.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "nn/attention.h"
#include "util/random.h"

namespace apan {
namespace core {
namespace {

std::vector<float> MailOf(float v, int64_t dim = 4) {
  return std::vector<float>(static_cast<size_t>(dim), v);
}

TEST(MailboxTest, DeliverAndCount) {
  Mailbox box(3, 2, 4);
  EXPECT_EQ(box.ValidCount(0), 0);
  box.Deliver(0, MailOf(1.0f), 1.0);
  EXPECT_EQ(box.ValidCount(0), 1);
  EXPECT_EQ(box.ValidCount(1), 0);
  EXPECT_EQ(box.NewestTimestamp(0), 1.0);
  EXPECT_TRUE(std::isinf(box.NewestTimestamp(1)));
}

TEST(MailboxTest, FifoEviction) {
  Mailbox box(1, 2, 4);
  box.Deliver(0, MailOf(1.0f), 1.0);
  box.Deliver(0, MailOf(2.0f), 2.0);
  box.Deliver(0, MailOf(3.0f), 3.0);  // evicts the t=1 mail
  EXPECT_EQ(box.ValidCount(0), 2);
  auto read = box.ReadBatch({0});
  EXPECT_FLOAT_EQ(read.mails.item(0), 2.0f);  // oldest kept first
  EXPECT_FLOAT_EQ(read.mails.item(4), 3.0f);
}

TEST(MailboxTest, ReadBatchSortsByTimestamp) {
  // Out-of-order delivery: the read-out must still be time-ascending
  // (paper §3.6 — mailbox absorbs stream reordering).
  Mailbox box(1, 3, 2);
  box.Deliver(0, std::vector<float>{30.0f, 30.0f}, 3.0);
  box.Deliver(0, std::vector<float>{10.0f, 10.0f}, 1.0);
  box.Deliver(0, std::vector<float>{20.0f, 20.0f}, 2.0);
  auto read = box.ReadBatch({0});
  EXPECT_FLOAT_EQ(read.mails.item(0), 10.0f);
  EXPECT_FLOAT_EQ(read.mails.item(2), 20.0f);
  EXPECT_FLOAT_EQ(read.mails.item(4), 30.0f);
  EXPECT_EQ(read.counts[0], 3);
}

TEST(MailboxTest, PaddingMaskSemantics) {
  Mailbox box(2, 3, 2);
  box.Deliver(0, std::vector<float>{1.0f, 1.0f}, 1.0);
  auto read = box.ReadBatch({0, 1});
  // Node 0: slot 0 valid, slots 1-2 masked.
  EXPECT_EQ(read.mask[0], 0.0f);
  EXPECT_EQ(read.mask[1], nn::MultiHeadAttention::kMaskedOut);
  EXPECT_EQ(read.mask[2], nn::MultiHeadAttention::kMaskedOut);
  // Node 1 (empty): all-valid mask over zero mails (cold-start rule).
  EXPECT_EQ(read.mask[3], 0.0f);
  EXPECT_EQ(read.mask[4], 0.0f);
  EXPECT_EQ(read.counts[1], 0);
  for (int64_t i = 6; i < 12; ++i) EXPECT_EQ(read.mails.item(i), 0.0f);
}

TEST(MailboxTest, RingKeepsLatestUnderChurn) {
  Mailbox box(1, 4, 1);
  for (int i = 0; i < 100; ++i) {
    box.Deliver(0, std::vector<float>{static_cast<float>(i)}, static_cast<double>(i));
  }
  auto read = box.ReadBatch({0});
  EXPECT_EQ(read.counts[0], 4);
  EXPECT_FLOAT_EQ(read.mails.item(0), 96.0f);
  EXPECT_FLOAT_EQ(read.mails.item(3), 99.0f);
  EXPECT_EQ(box.NewestTimestamp(0), 99.0);
}

TEST(MailboxTest, ClearResetsEverything) {
  Mailbox box(2, 2, 2);
  box.Deliver(1, std::vector<float>{5.0f, 5.0f}, 1.0);
  box.Clear();
  EXPECT_EQ(box.ValidCount(1), 0);
  auto read = box.ReadBatch({1});
  for (int64_t i = 0; i < read.mails.numel(); ++i) {
    EXPECT_EQ(read.mails.item(i), 0.0f);
  }
}

TEST(MailboxTest, MemoryBoundedByNodesNotEdges) {
  // §4.7: memory depends on node count and slots, not stream length.
  Mailbox box(100, 10, 8);
  const int64_t before = box.MemoryBytes();
  for (int i = 0; i < 10000; ++i) {
    box.Deliver(i % 100, MailOf(1.0f, 8), static_cast<double>(i));
  }
  EXPECT_EQ(box.MemoryBytes(), before);
}

TEST(MailboxTest, DeliverBatchMatchesSequentialDeliver) {
  // DeliverBatch (the record form the serving benchmark still calls) must
  // leave storage bitwise what per-mail Deliver produces, including
  // evictions and repeated recipients.
  Mailbox batched(5, 3, 4);
  Mailbox sequential(5, 3, 4);
  std::vector<MailDelivery> deliveries;
  for (int i = 0; i < 23; ++i) {
    MailDelivery d;
    d.recipient = (i * 7) % 5;  // revisits every node, out of node order
    d.mail = MailOf(static_cast<float>(i));
    d.timestamp = static_cast<double>((i * 13) % 9);  // out of time order
    deliveries.push_back(std::move(d));
  }
  EXPECT_EQ(batched.DeliverBatch(deliveries), 23);
  for (const auto& d : deliveries) {
    sequential.Deliver(d.recipient, d.mail, d.timestamp);
  }
  for (graph::NodeId v = 0; v < 5; ++v) {
    ASSERT_EQ(batched.ValidCount(v), sequential.ValidCount(v));
    for (int64_t slot = 0; slot < 3; ++slot) {
      const auto a = batched.RawSlot(v, slot);
      const auto b = sequential.RawSlot(v, slot);
      for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i], b[i]) << "node " << v << " slot " << slot;
      }
    }
    const auto ra = batched.ReadBatch({v});
    const auto rb = sequential.ReadBatch({v});
    for (size_t i = 0; i < ra.timestamps.size(); ++i) {
      ASSERT_EQ(ra.timestamps[i], rb.timestamps[i]);
    }
  }
}

TEST(MailboxTest, DeliverBatchEmptyIsNoop) {
  Mailbox box(2, 2, 4);
  EXPECT_EQ(box.DeliverBatch({}), 0);
  EXPECT_EQ(box.ValidCount(0), 0);
  EXPECT_EQ(box.ValidCount(1), 0);
}

TEST(MailboxTest, DeliverBatchKeepsPerNodeOrderAcrossInterleavings) {
  // Mails for one node interleaved with other recipients keep their span
  // order — the property the serial replay of servebench's record form
  // relies on for ring-eviction determinism.
  Mailbox box(2, 2, 4);
  std::vector<MailDelivery> deliveries;
  for (int i = 0; i < 5; ++i) {
    deliveries.push_back({i % 2, MailOf(static_cast<float>(i)), 1.0, 1});
  }
  box.DeliverBatch(deliveries);
  // Node 0 received mails 0, 2, 4 → ring keeps 2 and 4 (slots = 2).
  auto read = box.ReadBatch({0, 1});
  EXPECT_FLOAT_EQ(read.mails.item(0), 2.0f);
  EXPECT_FLOAT_EQ(read.mails.item(4), 4.0f);
  // Node 1 received mails 1, 3.
  EXPECT_FLOAT_EQ(read.mails.item(8), 1.0f);
  EXPECT_FLOAT_EQ(read.mails.item(12), 3.0f);
}

TEST(MailboxTest, ReadBatchEmptyNodeListIsValid) {
  // Admission control can hand the encoder an empty batch; that must be a
  // well-formed zero-row result, not a crash.
  Mailbox box(3, 2, 4);
  box.Deliver(0, MailOf(1.0f), 1.0);
  auto read = box.ReadBatch({});
  EXPECT_EQ(read.mails.shape(), (tensor::Shape{0, 2, 4}));
  EXPECT_EQ(read.mails.numel(), 0);
  EXPECT_TRUE(read.mask.empty());
  EXPECT_TRUE(read.counts.empty());
  EXPECT_TRUE(read.timestamps.empty());
}

TEST(MailboxTest, SortedOnWriteMatchesSortOnReadReference) {
  // ReadBatch used to stable_sort each node's valid slots (in ring arrival
  // order) by timestamp on every read. The write-maintained permutation
  // must reproduce that output bitwise — same tie-breaking on equal
  // timestamps, same interaction with FIFO-by-arrival eviction — across
  // out-of-order streams driven through both Deliver and DeliverBatch.
  constexpr int64_t kNodes = 7;
  constexpr int64_t kSlots = 5;
  constexpr int64_t kDim = 3;
  Mailbox box(kNodes, kSlots, kDim);
  // Shadow: per node, (mail, timestamp) in arrival order with FIFO
  // eviction — the pre-permutation representation.
  std::vector<std::vector<std::pair<std::vector<float>, double>>> shadow(
      kNodes);
  SplitMix64 rng(20260808);
  for (int step = 0; step < 400; ++step) {
    const int fanout = 1 + static_cast<int>(rng.Next() % 4);
    std::vector<MailDelivery> batch;
    for (int j = 0; j < fanout; ++j) {
      MailDelivery d;
      d.recipient = static_cast<graph::NodeId>(rng.Next() % kNodes);
      d.mail = MailOf(static_cast<float>(rng.Next() % 97), kDim);
      // Coarse timestamps force plenty of exact ties.
      d.timestamp = static_cast<double>(rng.Next() % 11);
      auto& row = shadow[static_cast<size_t>(d.recipient)];
      row.emplace_back(d.mail, d.timestamp);
      if (row.size() > static_cast<size_t>(kSlots)) row.erase(row.begin());
      batch.push_back(std::move(d));
    }
    if (step % 2 == 0) {
      box.DeliverBatch(batch);
    } else {
      for (const auto& d : batch) box.Deliver(d.recipient, d.mail, d.timestamp);
    }

    std::vector<graph::NodeId> nodes(kNodes);
    std::iota(nodes.begin(), nodes.end(), 0);
    const auto read = box.ReadBatch(nodes);
    for (int64_t v = 0; v < kNodes; ++v) {
      // Reference read-out: stable sort of arrival order by timestamp.
      auto sorted = shadow[static_cast<size_t>(v)];
      std::stable_sort(sorted.begin(), sorted.end(),
                       [](const auto& a, const auto& b) {
                         return a.second < b.second;
                       });
      ASSERT_EQ(read.counts[static_cast<size_t>(v)],
                static_cast<int64_t>(sorted.size()));
      for (size_t pos = 0; pos < sorted.size(); ++pos) {
        const int64_t row = v * kSlots + static_cast<int64_t>(pos);
        ASSERT_EQ(read.timestamps[static_cast<size_t>(row)],
                  sorted[pos].second)
            << "step " << step << " node " << v << " pos " << pos;
        for (int64_t k = 0; k < kDim; ++k) {
          ASSERT_EQ(read.mails.item(row * kDim + k), sorted[pos].first[k])
              << "step " << step << " node " << v << " pos " << pos;
        }
      }
    }
  }
}

TEST(MailboxTest, MultiNodeBatchLayout) {
  Mailbox box(3, 2, 2);
  box.Deliver(2, std::vector<float>{7.0f, 8.0f}, 1.0);
  auto read = box.ReadBatch({2, 0, 2});
  EXPECT_EQ(read.mails.shape(), (tensor::Shape{3, 2, 2}));
  EXPECT_FLOAT_EQ(read.mails.item(0), 7.0f);       // row 0 = node 2
  EXPECT_FLOAT_EQ(read.mails.item(2 * 2 * 2), 7.0f);  // row 2 = node 2 again
}

}  // namespace
}  // namespace core
}  // namespace apan
