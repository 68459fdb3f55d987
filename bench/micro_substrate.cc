// Micro-benchmarks of the substrates (google-benchmark): tensor ops, the
// encoder's attention pattern, temporal-graph queries, k-hop sampling,
// mailbox operations and the shard-to-shard wire codec. These are the
// primitive costs behind Figures 6-7 and the fig10 route/merge stages.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/encoder.h"
#include "core/mailbox.h"
#include "core/node_state_store.h"
#include "core/propagator.h"
#include "graph/sampling.h"
#include "graph/temporal_graph.h"
#include "nn/attention.h"
#include "serve/wire.h"
#include "tensor/arena.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace apan {
namespace {

namespace kernels = tensor::kernels;

// ---- Tensor ops -------------------------------------------------------------
// The *Reference variants run the naive serial loops (the pre-kernel
// substrate) against the same shapes — the before/after pair for every
// dispatched kernel.

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  tensor::NoGradGuard no_grad;
  tensor::Tensor a = tensor::Tensor::Randn({n, n}, &rng);
  tensor::Tensor b = tensor::Tensor::Randn({n, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

void BM_MatMulReference(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  std::vector<float> a(static_cast<size_t>(n * n)), b(a.size()), c(a.size());
  for (auto& v : a) v = static_cast<float>(rng.Normal());
  for (auto& v : b) v = static_cast<float>(rng.Normal());
  for (auto _ : state) {
    kernels::reference::MatMul(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMulReference)->Arg(32)->Arg(64)->Arg(128);

void BM_Bmm(benchmark::State& state) {
  // The attention score shape before fusion: {b*h, 1, m} x {b*h, m, dh}.
  const int64_t bs = state.range(0);
  Rng rng(12);
  tensor::NoGradGuard no_grad;
  tensor::Tensor a = tensor::Tensor::Randn({bs, 1, 10}, &rng);
  tensor::Tensor b = tensor::Tensor::Randn({bs, 10, 16}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::Bmm(a, b));
  }
  state.SetItemsProcessed(state.iterations() * bs);
}
BENCHMARK(BM_Bmm)->Arg(128)->Arg(512);

void BM_BatchedAttentionForward(benchmark::State& state) {
  // The exact shape of APAN's encoder attention: batch x 1 query over
  // m = 10 mailbox slots, d = 32, 2 heads. Runs the fused inference path
  // (NoGradGuard) with a per-iteration arena scope — the serve-time
  // configuration.
  const int64_t batch = state.range(0);
  Rng rng(2);
  tensor::NoGradGuard no_grad;
  nn::MultiHeadAttention mha(32, 2, &rng);
  tensor::Tensor q = tensor::Tensor::Randn({batch, 32}, &rng);
  tensor::Tensor kv = tensor::Tensor::Randn({batch, 10, 32}, &rng);
  for (auto _ : state) {
    tensor::ArenaScope arena;
    benchmark::DoNotOptimize(mha.Forward(q, kv, kv));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_BatchedAttentionForward)->Arg(64)->Arg(256)->Arg(1024);

void BM_SoftmaxLastDim(benchmark::State& state) {
  Rng rng(3);
  tensor::NoGradGuard no_grad;
  tensor::Tensor x = tensor::Tensor::Randn({state.range(0), 10}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::SoftmaxLastDim(x));
  }
}
BENCHMARK(BM_SoftmaxLastDim)->Arg(1024)->Arg(8192);

void BM_SoftmaxReference(benchmark::State& state) {
  const int64_t rows = state.range(0);
  Rng rng(3);
  std::vector<float> x(static_cast<size_t>(rows * 10)), y(x.size());
  for (auto& v : x) v = static_cast<float>(rng.Normal());
  for (auto _ : state) {
    kernels::reference::SoftmaxLastDim(x.data(), y.data(), rows, 10);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_SoftmaxReference)->Arg(1024)->Arg(8192);

void BM_MaskedSoftmax(benchmark::State& state) {
  // The fused mask+softmax over one head's {b, m=10} scores with a {b, m}
  // additive mask — replaces Add + SoftmaxLastDim. The serve attention
  // runs it once per head.
  const int64_t b = state.range(0);
  Rng rng(13);
  std::vector<float> scores(static_cast<size_t>(b * 10)),
      mask(static_cast<size_t>(b * 10), 0.0f), y(scores.size());
  for (auto& v : scores) v = static_cast<float>(rng.Normal());
  for (size_t i = 0; i < mask.size(); i += 3) {
    mask[i] = nn::MultiHeadAttention::kMaskedOut;
  }
  for (auto _ : state) {
    kernels::MaskedSoftmax(scores.data(), mask.data(), y.data(), b, 10);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * b);
}
BENCHMARK(BM_MaskedSoftmax)->Arg(256)->Arg(1024);

void BM_RowNormalize(benchmark::State& state) {
  Rng rng(14);
  tensor::NoGradGuard no_grad;
  tensor::Tensor x = tensor::Tensor::Randn({state.range(0), 32}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::RowNormalize(x));
  }
}
BENCHMARK(BM_RowNormalize)->Arg(1024)->Arg(8192);

void BM_RowNormalizeReference(benchmark::State& state) {
  const int64_t rows = state.range(0);
  Rng rng(14);
  std::vector<float> x(static_cast<size_t>(rows * 32)), y(x.size());
  for (auto& v : x) v = static_cast<float>(rng.Normal());
  for (auto _ : state) {
    kernels::reference::RowNormalize(x.data(), y.data(), rows, 32, 1e-5f,
                                     nullptr);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_RowNormalizeReference)->Arg(1024)->Arg(8192);

void BM_AddBiasRelu(benchmark::State& state) {
  // The fused Linear epilogue at the MLP's hidden shape (80 wide).
  const int64_t rows = state.range(0);
  Rng rng(15);
  tensor::NoGradGuard no_grad;
  tensor::Tensor x = tensor::Tensor::Randn({rows, 80}, &rng);
  tensor::Tensor bias = tensor::Tensor::Randn({80}, &rng);
  for (auto _ : state) {
    tensor::ArenaScope arena;
    benchmark::DoNotOptimize(tensor::AddBiasRelu(x, bias));
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_AddBiasRelu)->Arg(256)->Arg(1024);

void BM_AddBiasReluReference(benchmark::State& state) {
  const int64_t rows = state.range(0);
  Rng rng(15);
  std::vector<float> x(static_cast<size_t>(rows * 80)), bias(80), y(x.size());
  for (auto& v : x) v = static_cast<float>(rng.Normal());
  for (auto& v : bias) v = static_cast<float>(rng.Normal());
  for (auto _ : state) {
    kernels::reference::AddBiasRelu(x.data(), bias.data(), y.data(), rows,
                                    80);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_AddBiasReluReference)->Arg(256)->Arg(1024);

// ---- Training-side backward kernels ----------------------------------------
// Before/after pairs for the gradient primitives in kernels_backward.cc
// (the per-ISA FMA tier). The *Reference variants run the loop orders
// the ops.cc backward closures used before the kernel port (strided
// column walks with zero-skips). Shapes are the training hot path's:
// batch rows x the paper's 32-wide embedding / 80-wide MLP hidden.

std::vector<float> RandVec(size_t n, int seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.Normal());
  return v;
}

void BM_MatMulGradA(benchmark::State& state) {
  const int64_t n = state.range(0), k = 32, m = 32;
  const auto g = RandVec(static_cast<size_t>(n * m), 21);
  const auto b = RandVec(static_cast<size_t>(k * m), 22);
  std::vector<float> da(static_cast<size_t>(n * k), 0.0f);
  for (auto _ : state) {
    kernels::MatMulGradA(g.data(), b.data(), da.data(), n, k, m);
    benchmark::DoNotOptimize(da.data());
  }
  state.SetItemsProcessed(state.iterations() * n * k * m);
}
BENCHMARK(BM_MatMulGradA)->Arg(200)->Arg(1000);

void BM_MatMulGradAReference(benchmark::State& state) {
  const int64_t n = state.range(0), k = 32, m = 32;
  const auto g = RandVec(static_cast<size_t>(n * m), 21);
  const auto b = RandVec(static_cast<size_t>(k * m), 22);
  std::vector<float> da(static_cast<size_t>(n * k), 0.0f);
  for (auto _ : state) {
    kernels::reference::MatMulGradA(g.data(), b.data(), da.data(), n, k, m);
    benchmark::DoNotOptimize(da.data());
  }
  state.SetItemsProcessed(state.iterations() * n * k * m);
}
BENCHMARK(BM_MatMulGradAReference)->Arg(200)->Arg(1000);

void BM_MatMulGradB(benchmark::State& state) {
  const int64_t n = state.range(0), k = 32, m = 32;
  const auto a = RandVec(static_cast<size_t>(n * k), 23);
  const auto g = RandVec(static_cast<size_t>(n * m), 24);
  std::vector<float> db(static_cast<size_t>(k * m), 0.0f);
  for (auto _ : state) {
    kernels::MatMulGradB(a.data(), g.data(), db.data(), n, k, m);
    benchmark::DoNotOptimize(db.data());
  }
  state.SetItemsProcessed(state.iterations() * n * k * m);
}
BENCHMARK(BM_MatMulGradB)->Arg(200)->Arg(1000);

void BM_MatMulGradBReference(benchmark::State& state) {
  const int64_t n = state.range(0), k = 32, m = 32;
  const auto a = RandVec(static_cast<size_t>(n * k), 23);
  const auto g = RandVec(static_cast<size_t>(n * m), 24);
  std::vector<float> db(static_cast<size_t>(k * m), 0.0f);
  for (auto _ : state) {
    kernels::reference::MatMulGradB(a.data(), g.data(), db.data(), n, k, m);
    benchmark::DoNotOptimize(db.data());
  }
  state.SetItemsProcessed(state.iterations() * n * k * m);
}
BENCHMARK(BM_MatMulGradBReference)->Arg(200)->Arg(1000);

void BM_MatMulTrain(benchmark::State& state) {
  // The recorded-forward GEMM (FMA tier); BM_MatMul above is the serve
  // (cross-ISA bitwise) twin at the same shapes.
  const int64_t n = state.range(0);
  const auto a = RandVec(static_cast<size_t>(n * n), 25);
  const auto b = RandVec(static_cast<size_t>(n * n), 26);
  std::vector<float> c(static_cast<size_t>(n * n));
  for (auto _ : state) {
    kernels::MatMulTrain(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMulTrain)->Arg(32)->Arg(64)->Arg(128);

void BM_SoftmaxBackward(benchmark::State& state) {
  const int64_t rows = state.range(0), d = 10;
  const auto y = RandVec(static_cast<size_t>(rows * d), 27);
  const auto g = RandVec(static_cast<size_t>(rows * d), 28);
  std::vector<float> dx(static_cast<size_t>(rows * d), 0.0f);
  for (auto _ : state) {
    kernels::SoftmaxBackward(y.data(), g.data(), dx.data(), rows, d);
    benchmark::DoNotOptimize(dx.data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_SoftmaxBackward)->Arg(400)->Arg(1024);

void BM_SoftmaxBackwardReference(benchmark::State& state) {
  const int64_t rows = state.range(0), d = 10;
  const auto y = RandVec(static_cast<size_t>(rows * d), 27);
  const auto g = RandVec(static_cast<size_t>(rows * d), 28);
  std::vector<float> dx(static_cast<size_t>(rows * d), 0.0f);
  for (auto _ : state) {
    kernels::reference::SoftmaxBackward(y.data(), g.data(), dx.data(), rows,
                                        d);
    benchmark::DoNotOptimize(dx.data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_SoftmaxBackwardReference)->Arg(400)->Arg(1024);

void BM_RowNormalizeBackward(benchmark::State& state) {
  const int64_t rows = state.range(0), d = 32;
  const auto y = RandVec(static_cast<size_t>(rows * d), 29);
  const auto g = RandVec(static_cast<size_t>(rows * d), 30);
  auto inv_sigma = RandVec(static_cast<size_t>(rows), 31);
  for (auto& v : inv_sigma) v = 1.0f / (1.0f + v * v);
  std::vector<float> dx(static_cast<size_t>(rows * d), 0.0f);
  for (auto _ : state) {
    kernels::RowNormalizeBackward(y.data(), g.data(), inv_sigma.data(),
                                  dx.data(), rows, d);
    benchmark::DoNotOptimize(dx.data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_RowNormalizeBackward)->Arg(200)->Arg(1024);

void BM_RowNormalizeBackwardReference(benchmark::State& state) {
  const int64_t rows = state.range(0), d = 32;
  const auto y = RandVec(static_cast<size_t>(rows * d), 29);
  const auto g = RandVec(static_cast<size_t>(rows * d), 30);
  auto inv_sigma = RandVec(static_cast<size_t>(rows), 31);
  for (auto& v : inv_sigma) v = 1.0f / (1.0f + v * v);
  std::vector<float> dx(static_cast<size_t>(rows * d), 0.0f);
  for (auto _ : state) {
    kernels::reference::RowNormalizeBackward(y.data(), g.data(),
                                             inv_sigma.data(), dx.data(),
                                             rows, d);
    benchmark::DoNotOptimize(dx.data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_RowNormalizeBackwardReference)->Arg(200)->Arg(1024);

void BM_AddBiasReluBackward(benchmark::State& state) {
  const int64_t rows = state.range(0), d = 80;
  auto y = RandVec(static_cast<size_t>(rows * d), 32);
  for (auto& v : y) v = v > 0.0f ? v : 0.0f;  // a real ReLU output
  const auto g = RandVec(static_cast<size_t>(rows * d), 33);
  std::vector<float> dx(static_cast<size_t>(rows * d), 0.0f);
  std::vector<float> dbias(static_cast<size_t>(d), 0.0f);
  for (auto _ : state) {
    kernels::AddBiasReluBackward(y.data(), g.data(), dx.data(), dbias.data(),
                                 rows, d);
    benchmark::DoNotOptimize(dx.data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_AddBiasReluBackward)->Arg(200)->Arg(1024);

void BM_AddBiasReluBackwardReference(benchmark::State& state) {
  const int64_t rows = state.range(0), d = 80;
  auto y = RandVec(static_cast<size_t>(rows * d), 32);
  for (auto& v : y) v = v > 0.0f ? v : 0.0f;
  const auto g = RandVec(static_cast<size_t>(rows * d), 33);
  std::vector<float> dx(static_cast<size_t>(rows * d), 0.0f);
  std::vector<float> dbias(static_cast<size_t>(d), 0.0f);
  for (auto _ : state) {
    kernels::reference::AddBiasReluBackward(y.data(), g.data(), dx.data(),
                                            dbias.data(), rows, d);
    benchmark::DoNotOptimize(dx.data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_AddBiasReluBackwardReference)->Arg(200)->Arg(1024);

void BM_Accumulate(benchmark::State& state) {
  const int64_t n = state.range(0);
  const auto x = RandVec(static_cast<size_t>(n), 34);
  std::vector<float> y(static_cast<size_t>(n), 0.0f);
  for (auto _ : state) {
    kernels::Accumulate(x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Accumulate)->Arg(2560)->Arg(65536);

void BM_AccumulateReference(benchmark::State& state) {
  const int64_t n = state.range(0);
  const auto x = RandVec(static_cast<size_t>(n), 34);
  std::vector<float> y(static_cast<size_t>(n), 0.0f);
  for (auto _ : state) {
    kernels::reference::Accumulate(x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AccumulateReference)->Arg(2560)->Arg(65536);

// ---- Encoder serve forward --------------------------------------------------

std::unique_ptr<core::NodeStateStore> MakeWarmStore(
    const core::ApanConfig& config) {
  auto store = std::make_unique<core::NodeStateStore>(
      config.num_nodes, config.mailbox_slots, config.embedding_dim);
  Rng rng(16);
  std::vector<float> mail(static_cast<size_t>(config.embedding_dim));
  for (graph::NodeId v = 0; v < config.num_nodes; ++v) {
    std::vector<float> z(static_cast<size_t>(config.embedding_dim));
    for (auto& x : z) x = static_cast<float>(rng.Normal());
    store->SetLastEmbedding(v, z);
    const int count = 2 + static_cast<int>(rng.UniformInt(8));
    for (int i = 0; i < count; ++i) {
      for (auto& x : mail) x = static_cast<float>(rng.Normal());
      store->Deliver(v, mail, 0.1 * i);
    }
  }
  return store;
}

/// Shared fixture for the serve-encode benchmarks: one change to the
/// shape/seeds changes both the arena and no-arena rows, keeping the
/// comparison apples-to-apples.
struct ServeEncodeFixture {
  core::ApanConfig config;
  Rng rng{17};
  core::ApanEncoder encoder;
  std::unique_ptr<core::NodeStateStore> store;
  std::vector<graph::NodeId> nodes;

  explicit ServeEncodeFixture(int64_t batch)
      : config(MakeConfig()), encoder(config, &rng) {
    encoder.SetTraining(false);
    store = MakeWarmStore(config);
    Rng pick(18);
    for (int64_t i = 0; i < batch; ++i) {
      nodes.push_back(static_cast<graph::NodeId>(
          pick.UniformInt(config.num_nodes)));
    }
  }

  static core::ApanConfig MakeConfig() {
    core::ApanConfig config;
    config.num_nodes = 4000;
    config.embedding_dim = 32;
    config.dropout = 0.0f;
    return config;
  }
};

void BM_EncoderServeForward(benchmark::State& state) {
  // The full serve-path encode at the paper's shape (d=32, m=10 slots,
  // 2 heads) — fused kernels + arena, exactly what both engines run per
  // batch on the synchronous link.
  ServeEncodeFixture f(state.range(0));
  tensor::NoGradGuard no_grad;
  for (auto _ : state) {
    tensor::ArenaScope arena;
    benchmark::DoNotOptimize(f.encoder.Forward(
        f.store->GatherLastEmbeddings(f.nodes), f.store->ReadBatch(f.nodes)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncoderServeForward)->Arg(100)->Arg(200)->Arg(500);

void BM_EncoderServeForwardNoArena(benchmark::State& state) {
  // Same forward without an arena scope: isolates the allocation tax.
  ServeEncodeFixture f(state.range(0));
  tensor::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.encoder.Forward(
        f.store->GatherLastEmbeddings(f.nodes), f.store->ReadBatch(f.nodes)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncoderServeForwardNoArena)->Arg(200);

// ---- Temporal graph ---------------------------------------------------------

graph::TemporalGraph MakeDenseGraph(int64_t nodes, int64_t events) {
  graph::TemporalGraph g(nodes);
  Rng rng(4);
  double t = 0.0;
  for (int64_t i = 0; i < events; ++i) {
    t += 0.01;
    APAN_CHECK(
        g.AddEvent({static_cast<graph::NodeId>(rng.Zipf(nodes, 1.1)),
                    static_cast<graph::NodeId>(rng.Zipf(nodes, 1.1)), t, -1})
            .ok());
  }
  return g;
}

void BM_MostRecentNeighbors(benchmark::State& state) {
  auto g = MakeDenseGraph(2000, 100000);
  Rng rng(5);
  for (auto _ : state) {
    const auto v = static_cast<graph::NodeId>(rng.UniformInt(2000));
    benchmark::DoNotOptimize(g.MostRecentNeighbors(v, 900.0, state.range(0)));
  }
}
BENCHMARK(BM_MostRecentNeighbors)->Arg(5)->Arg(10)->Arg(20);

void BM_KHopExpansion(benchmark::State& state) {
  // The asynchronous-link cost per interaction: 2-seed k-hop expansion.
  auto g = MakeDenseGraph(2000, 100000);
  Rng rng(6);
  const int32_t hops = static_cast<int32_t>(state.range(0));
  for (auto _ : state) {
    const auto a = static_cast<graph::NodeId>(rng.UniformInt(2000));
    const auto b = static_cast<graph::NodeId>(rng.UniformInt(2000));
    benchmark::DoNotOptimize(
        graph::KHopMostRecent(g, {a, b}, 900.0, hops, 10));
  }
}
BENCHMARK(BM_KHopExpansion)->Arg(1)->Arg(2);

// ---- Mailbox ----------------------------------------------------------------

void BM_MailboxDeliver(benchmark::State& state) {
  core::Mailbox box(10000, 10, 32);
  std::vector<float> mail(32, 0.5f);
  Rng rng(7);
  double t = 0.0;
  for (auto _ : state) {
    t += 0.001;
    box.Deliver(static_cast<graph::NodeId>(rng.UniformInt(10000)), mail, t);
  }
}
BENCHMARK(BM_MailboxDeliver);

void BM_MailboxReadBatch(benchmark::State& state) {
  core::Mailbox box(10000, 10, 32);
  std::vector<float> mail(32, 0.5f);
  Rng rng(8);
  for (int i = 0; i < 100000; ++i) {
    box.Deliver(static_cast<graph::NodeId>(rng.UniformInt(10000)), mail,
                i * 0.001);
  }
  std::vector<graph::NodeId> batch(state.range(0));
  for (auto& v : batch) {
    v = static_cast<graph::NodeId>(rng.UniformInt(10000));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(box.ReadBatch(batch));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MailboxReadBatch)->Arg(200)->Arg(1000);

// ---- Wire codec -------------------------------------------------------------
// The transport layer's own figure: one ShardPartial frame of the shape a
// cross-shard lane carries on the alipay servebench workload (x2 hash, 2
// hops) — a hop list over a 200-event batch with about 48.6 cross-shard
// entries per event, node ids from its 76k-node space.

serve::ShardPartial MakeWirePartial() {
  constexpr size_t kEvents = 200;
  constexpr uint64_t kNodes = 76000;
  Rng rng(9);
  serve::ShardPartial m;
  m.batch = 12345;
  m.from_shard = 1;
  core::HopList& hops = m.hops;
  hops.offset.push_back(0);
  for (size_t i = 0; i < kEvents; ++i) {
    // 0..97 entries, 48.5 on average.
    const uint64_t entries = rng.UniformInt(uint64_t{98});
    for (uint64_t k = 0; k < entries; ++k) {
      hops.node.push_back(static_cast<graph::NodeId>(rng.UniformInt(kNodes)));
    }
    hops.offset.push_back(static_cast<uint32_t>(hops.node.size()));
  }
  return m;
}

void BM_WireEncodePartial(benchmark::State& state) {
  const serve::ShardPartial m = MakeWirePartial();
  std::vector<uint8_t> frame;
  for (auto _ : state) {
    frame.clear();
    serve::wire::AppendFrame(m, &frame);
    benchmark::DoNotOptimize(frame.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(frame.size()));
}
BENCHMARK(BM_WireEncodePartial);

void BM_WireDecodePartial(benchmark::State& state) {
  const std::vector<uint8_t> payload =
      serve::wire::EncodeMessage(MakeWirePartial());
  for (auto _ : state) {
    auto decoded = serve::wire::DecodeMessage(payload);
    benchmark::DoNotOptimize(decoded.ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_WireDecodePartial);

}  // namespace
}  // namespace apan

BENCHMARK_MAIN();
