// Kernel parity suite + serve-hot-path regression tests.
//
// Parity contract (see kernels.h): the dispatched implementation (AVX2 /
// NEON / blocked scalar, whatever the CPU selected) must agree with the
// portable blocked-scalar tier BITWISE on every kernel, and with the
// naive serial reference exactly on elementwise ops / matmuls and within
// 2 ULP on blocked reductions. Plus: the fused inference paths
// (attention, encoder) match the generic op compositions; a NoGradGuard
// serve encode registers zero autograd nodes; a warm TensorArena encode
// performs zero heap impl allocations; repeated encodes at one batch
// size never rebuild the learned-position id table.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/encoder.h"
#include "core/node_state_store.h"
#include "nn/attention.h"
#include "tensor/arena.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace apan {
namespace {

namespace kernels = tensor::kernels;
using tensor::Shape;
using tensor::Tensor;

std::vector<float> RandomVec(size_t n, Rng* rng, float scale = 1.0f) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng->Normal()) * scale;
  return v;
}

/// Distance in representable floats (0 = bitwise equal). Treats any
/// NaN/mismatched-sign pair as huge.
int64_t UlpDiff(float a, float b) {
  if (std::isnan(a) || std::isnan(b)) return INT64_MAX;
  int32_t ia, ib;
  std::memcpy(&ia, &a, sizeof(ia));
  std::memcpy(&ib, &b, sizeof(ib));
  // Map to a monotonic integer line (lexicographic float ordering).
  if (ia < 0) ia = static_cast<int32_t>(0x80000000u) - ia;
  if (ib < 0) ib = static_cast<int32_t>(0x80000000u) - ib;
  return std::abs(static_cast<int64_t>(ia) - static_cast<int64_t>(ib));
}

void ExpectBitwise(const std::vector<float>& a, const std::vector<float>& b,
                   const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(UlpDiff(a[i], b[i]), 0)
        << what << " diverges at " << i << ": " << a[i] << " vs " << b[i];
  }
}

/// Tolerance vs the SERIAL reference, whose summation order legitimately
/// differs from the blocked kernels: a couple of ULP at the result's
/// magnitude, with an absolute floor for near-zero outputs (where pure
/// ULP distance explodes even for negligible absolute error).
void ExpectCloseToReference(const std::vector<float>& a,
                            const std::vector<float>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    const float tol =
        1e-5f + 4e-7f * std::max(std::abs(a[i]), std::abs(b[i]));
    ASSERT_NEAR(a[i], b[i], tol)
        << what << " diverges at " << i << ": " << a[i] << " vs " << b[i];
  }
}

// ---- Dispatched vs blocked-scalar: bitwise ---------------------------------

TEST(KernelParityTest, MatMulMatchesScalarAndReferenceBitwise) {
  Rng rng(1);
  const struct {
    int64_t n, k, m;
  } shapes[] = {{1, 1, 1},    {5, 7, 9},    {2, 3, 32}, {8, 128, 33},
                {32, 32, 32}, {3, 10, 200}, {6, 32, 16}};
  for (const auto& s : shapes) {
    const auto a = RandomVec(static_cast<size_t>(s.n * s.k), &rng);
    const auto b = RandomVec(static_cast<size_t>(s.k * s.m), &rng);
    std::vector<float> dispatched(static_cast<size_t>(s.n * s.m));
    std::vector<float> scalar(dispatched.size());
    std::vector<float> reference(dispatched.size());
    kernels::MatMul(a.data(), b.data(), dispatched.data(), s.n, s.k, s.m);
    kernels::scalar::MatMul(a.data(), b.data(), scalar.data(), s.n, s.k,
                            s.m);
    kernels::reference::MatMul(a.data(), b.data(), reference.data(), s.n,
                               s.k, s.m);
    ExpectBitwise(dispatched, scalar, "MatMul vs scalar");
    // Per-element accumulation is serial over k in every tier, so even
    // the naive reference agrees bitwise.
    ExpectBitwise(dispatched, reference, "MatMul vs reference");
  }
}

TEST(KernelParityTest, BmmMatchesScalarBitwise) {
  Rng rng(2);
  const int64_t bs = 3, n = 4, k = 10, m = 17;
  const auto a = RandomVec(static_cast<size_t>(bs * n * k), &rng);
  const auto b = RandomVec(static_cast<size_t>(bs * k * m), &rng);
  std::vector<float> dispatched(static_cast<size_t>(bs * n * m));
  std::vector<float> scalar(dispatched.size());
  kernels::Bmm(a.data(), b.data(), dispatched.data(), bs, n, k, m);
  kernels::scalar::Bmm(a.data(), b.data(), scalar.data(), bs, n, k, m);
  ExpectBitwise(dispatched, scalar, "Bmm vs scalar");
}

TEST(KernelParityTest, SoftmaxMatchesScalarBitwiseAndReferenceUlp) {
  Rng rng(3);
  for (const int64_t d : {1, 10, 33, 100}) {
    const int64_t rows = 17;
    const auto x = RandomVec(static_cast<size_t>(rows * d), &rng, 3.0f);
    std::vector<float> dispatched(x.size()), scalar(x.size()),
        reference(x.size());
    kernels::SoftmaxLastDim(x.data(), dispatched.data(), rows, d);
    kernels::scalar::SoftmaxLastDim(x.data(), scalar.data(), rows, d);
    kernels::reference::SoftmaxLastDim(x.data(), reference.data(), rows, d);
    ExpectBitwise(dispatched, scalar, "Softmax vs scalar");
    ExpectCloseToReference(dispatched, reference, "Softmax vs reference");
    for (int64_t r = 0; r < rows; ++r) {
      float sum = 0.0f;
      for (int64_t j = 0; j < d; ++j) {
        const float p = dispatched[static_cast<size_t>(r * d + j)];
        EXPECT_GE(p, 0.0f);
        sum += p;
      }
      EXPECT_NEAR(sum, 1.0f, 1e-5f);
    }
  }
}

TEST(KernelParityTest, MaskedSoftmaxMatchesScalarAndRespectsMask) {
  Rng rng(4);
  const int64_t b = 5, m = 10;
  const auto scores = RandomVec(static_cast<size_t>(b * m), &rng);
  std::vector<float> mask(static_cast<size_t>(b * m), 0.0f);
  // Mask the tail slots of every row.
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t s = 6; s < m; ++s) {
      mask[static_cast<size_t>(bi * m + s)] =
          nn::MultiHeadAttention::kMaskedOut;
    }
  }
  std::vector<float> dispatched(scores.size()), scalar(scores.size());
  kernels::MaskedSoftmax(scores.data(), mask.data(), dispatched.data(), b, m);
  kernels::scalar::MaskedSoftmax(scores.data(), mask.data(), scalar.data(),
                                 b, m);
  ExpectBitwise(dispatched, scalar, "MaskedSoftmax vs scalar");
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t s = 6; s < m; ++s) {
      EXPECT_LT(dispatched[static_cast<size_t>(bi * m + s)], 1e-12f);
    }
  }
}

TEST(KernelParityTest, RowNormalizeMatchesScalarBitwiseAndReferenceUlp) {
  Rng rng(5);
  for (const int64_t d : {1, 8, 32, 50}) {
    const int64_t rows = 13;
    const auto x = RandomVec(static_cast<size_t>(rows * d), &rng, 2.0f);
    std::vector<float> dispatched(x.size()), scalar(x.size()),
        reference(x.size());
    std::vector<float> inv_d(static_cast<size_t>(rows)),
        inv_s(static_cast<size_t>(rows));
    kernels::RowNormalize(x.data(), dispatched.data(), rows, d, 1e-5f,
                          inv_d.data());
    kernels::scalar::RowNormalize(x.data(), scalar.data(), rows, d, 1e-5f,
                                  inv_s.data());
    kernels::reference::RowNormalize(x.data(), reference.data(), rows, d,
                                     1e-5f, nullptr);
    ExpectBitwise(dispatched, scalar, "RowNormalize vs scalar");
    ExpectBitwise(inv_d, inv_s, "RowNormalize inv_sigma vs scalar");
    ExpectCloseToReference(dispatched, reference,
                           "RowNormalize vs reference");
  }
}

TEST(KernelParityTest, ElementwiseKernelsMatchScalarAndReferenceExactly) {
  Rng rng(6);
  const int64_t rows = 9, d = 37;
  const auto x = RandomVec(static_cast<size_t>(rows * d), &rng);
  const auto bias = RandomVec(static_cast<size_t>(d), &rng);
  std::vector<float> dispatched(x.size()), scalar(x.size()),
      reference(x.size());

  kernels::AddBiasRelu(x.data(), bias.data(), dispatched.data(), rows, d);
  kernels::scalar::AddBiasRelu(x.data(), bias.data(), scalar.data(), rows,
                               d);
  kernels::reference::AddBiasRelu(x.data(), bias.data(), reference.data(),
                                  rows, d);
  ExpectBitwise(dispatched, scalar, "AddBiasRelu vs scalar");
  ExpectBitwise(dispatched, reference, "AddBiasRelu vs reference");

  kernels::AddBias(x.data(), bias.data(), dispatched.data(), rows, d);
  kernels::scalar::AddBias(x.data(), bias.data(), scalar.data(), rows, d);
  ExpectBitwise(dispatched, scalar, "AddBias vs scalar");

  const auto y = RandomVec(x.size(), &rng);
  kernels::AddSame(x.data(), y.data(), dispatched.data(),
                   static_cast<int64_t>(x.size()));
  kernels::scalar::AddSame(x.data(), y.data(), scalar.data(),
                           static_cast<int64_t>(x.size()));
  ExpectBitwise(dispatched, scalar, "AddSame vs scalar");
}

TEST(KernelParityTest, DotMatchesScalarBitwiseAndReferenceUlp) {
  Rng rng(7);
  for (const int64_t n : {1, 7, 8, 16, 100, 1000}) {
    const auto a = RandomVec(static_cast<size_t>(n), &rng);
    const auto b = RandomVec(static_cast<size_t>(n), &rng);
    const float dispatched = kernels::Dot(a.data(), b.data(), n);
    const float scalar = kernels::scalar::Dot(a.data(), b.data(), n);
    const float reference = kernels::reference::Dot(a.data(), b.data(), n);
    EXPECT_EQ(UlpDiff(dispatched, scalar), 0) << "Dot vs scalar, n=" << n;
    // Serial-vs-blocked drift grows with length; compare at hot sizes.
    if (n <= 100) {
      ExpectCloseToReference({dispatched}, {reference}, "Dot vs reference");
    }
  }
}

TEST(KernelParityTest, AttentionKernelsMatchScalarBitwise) {
  Rng rng(8);
  // The serve attention's shapes (one query per row over raw key/value
  // rows) with full and partial 8-lane blocks.
  const struct {
    int64_t b, m, d;
  } shapes[] = {{6, 10, 16}, {5, 10, 32}, {3, 10, 52}, {4, 17, 20},
                {2, 8, 7},   {3, 3, 172}, {1, 1, 1}};
  for (const auto& sh : shapes) {
    SCOPED_TRACE(::testing::Message()
                 << "b " << sh.b << ", m " << sh.m << ", d " << sh.d);
    const int64_t b = sh.b, m = sh.m, d = sh.d;
    const auto q = RandomVec(static_cast<size_t>(b * d), &rng);
    const auto k = RandomVec(static_cast<size_t>(b * m * d), &rng);
    std::vector<float> s_d(static_cast<size_t>(b * m)), s_s(s_d.size());
    kernels::AttentionScores(q.data(), k.data(), s_d.data(), b, m, d, 0.25f);
    kernels::scalar::AttentionScores(q.data(), k.data(), s_s.data(), b, m, d,
                                     0.25f);
    ExpectBitwise(s_d, s_s, "AttentionScores vs scalar");

    std::vector<float> c_d(static_cast<size_t>(b * d)), c_s(c_d.size());
    kernels::AttentionContext(s_d.data(), k.data(), c_d.data(), b, m, d);
    kernels::scalar::AttentionContext(s_d.data(), k.data(), c_s.data(), b, m,
                                      d);
    ExpectBitwise(c_d, c_s, "AttentionContext vs scalar");
  }
}

TEST(KernelParityTest, ResidualLayerNormMatchesScalarAndComposedOps) {
  Rng rng(9);
  const int64_t rows = 11, d = 32;
  const auto x = RandomVec(static_cast<size_t>(rows * d), &rng);
  const auto res = RandomVec(static_cast<size_t>(rows * d), &rng);
  const auto gain = RandomVec(static_cast<size_t>(d), &rng);
  const auto bias = RandomVec(static_cast<size_t>(d), &rng);
  std::vector<float> dispatched(x.size()), scalar(x.size());
  kernels::ResidualLayerNorm(x.data(), res.data(), gain.data(), bias.data(),
                             dispatched.data(), rows, d, 1e-5f);
  kernels::scalar::ResidualLayerNorm(x.data(), res.data(), gain.data(),
                                     bias.data(), scalar.data(), rows, d,
                                     1e-5f);
  ExpectBitwise(dispatched, scalar, "ResidualLayerNorm vs scalar");

  // The fusion must equal the op composition RowNormalize*gain+bias over
  // the sum — same per-element operation order, so bitwise.
  std::vector<float> sum(x.size());
  kernels::AddSame(x.data(), res.data(), sum.data(),
                   static_cast<int64_t>(x.size()));
  std::vector<float> normed(x.size());
  kernels::RowNormalize(sum.data(), normed.data(), rows, d, 1e-5f, nullptr);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t j = 0; j < d; ++j) {
      const size_t i = static_cast<size_t>(r * d + j);
      normed[i] = normed[i] * gain[static_cast<size_t>(j)] +
                  bias[static_cast<size_t>(j)];
    }
  }
  ExpectBitwise(dispatched, normed, "ResidualLayerNorm vs composition");
}

TEST(KernelParityTest, NarrowMatMulTilesMatchScalarBitwise) {
  // Outputs under 32 columns, and the 16-column remainder past the 32-wide
  // tiles, run two rows at a time; an odd n leaves a lone last row.
  Rng rng(12);
  for (const int64_t m : {8, 16, 24, 48, 80}) {
    for (const int64_t n : {1, 7, 215}) {
      SCOPED_TRACE(testing::Message() << "m=" << m << " n=" << n);
      const int64_t k = 32;
      const auto a = RandomVec(static_cast<size_t>(n * k), &rng);
      const auto b = RandomVec(static_cast<size_t>(k * m), &rng);
      std::vector<float> dispatched(static_cast<size_t>(n * m));
      std::vector<float> scalar(dispatched.size());
      kernels::MatMul(a.data(), b.data(), dispatched.data(), n, k, m);
      kernels::scalar::MatMul(a.data(), b.data(), scalar.data(), n, k, m);
      ExpectBitwise(dispatched, scalar, "narrow MatMul vs scalar");
    }
  }
}

TEST(KernelParityTest, SegmentRowSumsMatchesScalarAndSerialLoopBitwise) {
  // Groups of 0, 1 and 300 rows (300 draws from 50 rows repeat indices),
  // at widths on and off the 8- and 32-wide tiles.
  Rng rng(13);
  const int64_t rows = 50;
  for (const int64_t d : {1, 7, 8, 32, 33}) {
    SCOPED_TRACE(d);
    const auto x = RandomVec(static_cast<size_t>(rows * d), &rng);
    std::vector<uint32_t> offset = {0};
    std::vector<uint32_t> index;
    for (const uint32_t count : {0u, 1u, 300u, 0u, 2u}) {
      for (uint32_t k = 0; k < count; ++k) {
        index.push_back(
            static_cast<uint32_t>(rng.UniformInt(static_cast<uint64_t>(rows))));
      }
      offset.push_back(static_cast<uint32_t>(index.size()));
    }
    const auto groups = static_cast<int64_t>(offset.size()) - 1;
    // Outputs start as NaN: every element must be written.
    std::vector<float> dispatched(static_cast<size_t>(groups * d), NAN);
    std::vector<float> scalar(dispatched.size(), NAN);
    kernels::SegmentRowSums(x.data(), index.data(), offset.data(), groups, d,
                            dispatched.data());
    kernels::scalar::SegmentRowSums(x.data(), index.data(), offset.data(),
                                    groups, d, scalar.data());
    ExpectBitwise(dispatched, scalar, "SegmentRowSums vs scalar");
    std::vector<float> serial(dispatched.size(), 0.0f);
    for (int64_t g = 0; g < groups; ++g) {
      for (uint32_t k = offset[g]; k < offset[g + 1]; ++k) {
        for (int64_t j = 0; j < d; ++j) {
          serial[static_cast<size_t>(g * d + j)] +=
              x[static_cast<size_t>(index[k] * d + j)];
        }
      }
    }
    ExpectBitwise(dispatched, serial, "SegmentRowSums vs serial loop");
  }
}

// ---- AddBiasRelu op: autograd ----------------------------------------------

TEST(AddBiasReluOpTest, MatchesReluOfAddForwardAndBackward) {
  Rng rng(10);
  const int64_t n = 6, d = 11;
  const auto xv = RandomVec(static_cast<size_t>(n * d), &rng);
  const auto bv = RandomVec(static_cast<size_t>(d), &rng);

  Tensor x1 = Tensor::FromVector({n, d}, xv, /*requires_grad=*/true);
  Tensor b1 = Tensor::FromVector({d}, bv, /*requires_grad=*/true);
  Tensor fused = tensor::AddBiasRelu(x1, b1);

  Tensor x2 = Tensor::FromVector({n, d}, xv, /*requires_grad=*/true);
  Tensor b2 = Tensor::FromVector({d}, bv, /*requires_grad=*/true);
  Tensor composed = tensor::Relu(tensor::Add(x2, b2));

  ExpectBitwise(fused.values(), composed.values(), "AddBiasRelu forward");

  std::vector<float> grad_out(static_cast<size_t>(n * d));
  for (size_t i = 0; i < grad_out.size(); ++i) {
    grad_out[i] = 0.1f * static_cast<float>(i % 7) - 0.3f;
  }
  ASSERT_TRUE(fused.Backward(grad_out).ok());
  ASSERT_TRUE(composed.Backward(grad_out).ok());
  ExpectBitwise(x1.GradToVector(), x2.GradToVector(), "AddBiasRelu dx");
  ExpectBitwise(b1.GradToVector(), b2.GradToVector(), "AddBiasRelu dbias");
}

// ---- Training-side backward kernels (per-ISA contract) ----------------------
// The dispatched tier may contract into FMA (kernels.h: training kernels
// promise within-process determinism, not cross-ISA parity), so the
// checks are: agreement with the serial reference within tolerance,
// += accumulate semantics, and bitwise repeatability on this host.

TEST(BackwardKernelTest, MatMulGradsMatchReferenceAndAccumulate) {
  Rng rng(7101);
  const struct { int64_t n, k, m; } shapes[] = {
      {5, 17, 12},  // SIMD tails on both k and m
      {8, 32, 32},  // the paper's d=32 square case
      {1, 3, 70}};  // skinny
  for (const auto& s : shapes) {
    const auto g = RandomVec(static_cast<size_t>(s.n * s.m), &rng);
    const auto a = RandomVec(static_cast<size_t>(s.n * s.k), &rng);
    const auto b = RandomVec(static_cast<size_t>(s.k * s.m), &rng);
    // Non-zero seeds verify the += contract, not just the product.
    const auto seed_a = RandomVec(static_cast<size_t>(s.n * s.k), &rng);
    const auto seed_b = RandomVec(static_cast<size_t>(s.k * s.m), &rng);

    std::vector<float> da = seed_a, da_ref = seed_a;
    kernels::MatMulGradA(g.data(), b.data(), da.data(), s.n, s.k, s.m);
    kernels::reference::MatMulGradA(g.data(), b.data(), da_ref.data(), s.n,
                                    s.k, s.m);
    ExpectCloseToReference(da, da_ref, "MatMulGradA vs reference");

    std::vector<float> db = seed_b, db_ref = seed_b;
    kernels::MatMulGradB(a.data(), g.data(), db.data(), s.n, s.k, s.m);
    kernels::reference::MatMulGradB(a.data(), g.data(), db_ref.data(), s.n,
                                    s.k, s.m);
    ExpectCloseToReference(db, db_ref, "MatMulGradB vs reference");

    // Same host, same inputs: bitwise repeatable.
    std::vector<float> da2 = seed_a;
    kernels::MatMulGradA(g.data(), b.data(), da2.data(), s.n, s.k, s.m);
    ExpectBitwise(da, da2, "MatMulGradA repeatability");
  }
}

TEST(BackwardKernelTest, RowwiseBackwardsMatchReference) {
  Rng rng(7102);
  const int64_t rows = 9, d = 37;  // vector width tails
  const size_t nd = static_cast<size_t>(rows * d);
  const auto x = RandomVec(nd, &rng);
  const auto g = RandomVec(nd, &rng);
  const auto seed = RandomVec(nd, &rng);

  std::vector<float> y(nd);
  kernels::SoftmaxLastDim(x.data(), y.data(), rows, d);
  std::vector<float> dx = seed, dx_ref = seed;
  kernels::SoftmaxBackward(y.data(), g.data(), dx.data(), rows, d);
  kernels::reference::SoftmaxBackward(y.data(), g.data(), dx_ref.data(), rows,
                                      d);
  ExpectCloseToReference(dx, dx_ref, "SoftmaxBackward vs reference");

  std::vector<float> normed(nd), inv_sigma(static_cast<size_t>(rows));
  kernels::RowNormalize(x.data(), normed.data(), rows, d, 1e-5f,
                        inv_sigma.data());
  std::vector<float> dn = seed, dn_ref = seed;
  kernels::RowNormalizeBackward(normed.data(), g.data(), inv_sigma.data(),
                                dn.data(), rows, d);
  kernels::reference::RowNormalizeBackward(normed.data(), g.data(),
                                           inv_sigma.data(), dn_ref.data(),
                                           rows, d);
  ExpectCloseToReference(dn, dn_ref, "RowNormalizeBackward vs reference");
}

TEST(BackwardKernelTest, AddBiasReluBackwardMatchesReferenceAndNullSinks) {
  Rng rng(7103);
  const int64_t rows = 8, d = 21;
  const size_t nd = static_cast<size_t>(rows * d);
  const auto y = RandomVec(nd, &rng);  // mixed signs: exercises the mask
  const auto g = RandomVec(nd, &rng);

  std::vector<float> dx(nd, 0.25f), dx_ref(nd, 0.25f);
  std::vector<float> db(static_cast<size_t>(d), -0.5f);
  std::vector<float> db_ref(static_cast<size_t>(d), -0.5f);
  kernels::AddBiasReluBackward(y.data(), g.data(), dx.data(), db.data(), rows,
                               d);
  kernels::reference::AddBiasReluBackward(y.data(), g.data(), dx_ref.data(),
                                          db_ref.data(), rows, d);
  ExpectCloseToReference(dx, dx_ref, "AddBiasReluBackward dx");
  ExpectCloseToReference(db, db_ref, "AddBiasReluBackward dbias");

  // Null sinks skip that side without touching the other.
  std::vector<float> dx_only(nd, 0.25f);
  kernels::AddBiasReluBackward(y.data(), g.data(), dx_only.data(), nullptr,
                               rows, d);
  ExpectBitwise(dx_only, dx, "AddBiasReluBackward dx with null dbias");
  std::vector<float> db_only(static_cast<size_t>(d), -0.5f);
  kernels::AddBiasReluBackward(y.data(), g.data(), nullptr, db_only.data(),
                               rows, d);
  ExpectBitwise(db_only, db, "AddBiasReluBackward dbias with null dx");
}

TEST(BackwardKernelTest, AccumulateFamilyMatchesSerialLoops) {
  Rng rng(7104);
  for (const int64_t n : {1, 7, 8, 64, 129}) {
    const auto x = RandomVec(static_cast<size_t>(n), &rng);
    const auto m = RandomVec(static_cast<size_t>(n), &rng);
    const auto seed = RandomVec(static_cast<size_t>(n), &rng);

    std::vector<float> y = seed, want = seed;
    kernels::Accumulate(x.data(), y.data(), n);
    for (int64_t i = 0; i < n; ++i) {
      want[static_cast<size_t>(i)] += x[static_cast<size_t>(i)];
    }
    ExpectBitwise(y, want, "Accumulate");

    std::vector<float> ym = seed, want_m = seed;
    kernels::AccumulateMul(x.data(), m.data(), ym.data(), n);
    for (int64_t i = 0; i < n; ++i) {
      want_m[static_cast<size_t>(i)] +=
          x[static_cast<size_t>(i)] * m[static_cast<size_t>(i)];
    }
    ExpectCloseToReference(ym, want_m, "AccumulateMul");

    std::vector<float> ya = seed, want_a = seed;
    kernels::Axpy(0.75f, x.data(), ya.data(), n);
    for (int64_t i = 0; i < n; ++i) {
      want_a[static_cast<size_t>(i)] += 0.75f * x[static_cast<size_t>(i)];
    }
    ExpectCloseToReference(ya, want_a, "Axpy");
  }
}

// ---- Fused inference paths vs generic graphs --------------------------------

TEST(FusedForwardTest, AttentionInferenceMatchesTrainingGraph) {
  // APAN's call shape (keys == values, every input at model_dim) and the
  // TGAT/TGN shape (query, key and value dims of their own, keys !=
  // values), each at 1, 2 and 4 heads. Row 0 is fully masked, row 1 has
  // an all-zero (cold-start) mask and the other rows mask a ragged tail.
  struct Case {
    int64_t heads, query_dim, key_dim, value_dim;
  };
  constexpr int64_t kBatch = 7, kKeys = 10, kModel = 32;
  for (const bool shared_kv : {true, false}) {
    for (const int64_t heads : {1, 2, 4}) {
      const Case c = shared_kv ? Case{heads, kModel, kModel, kModel}
                               : Case{heads, 40, 52, 20};
      SCOPED_TRACE(::testing::Message()
                   << "heads " << c.heads << ", dq " << c.query_dim
                   << ", dk " << c.key_dim << ", dv " << c.value_dim);
      Rng rng(11 + static_cast<uint64_t>(heads));
      nn::MultiHeadAttention mha(kModel, c.heads, &rng, c.key_dim,
                                 c.value_dim, c.query_dim);
      Tensor q = Tensor::Randn({kBatch, c.query_dim}, &rng);
      Tensor k = Tensor::Randn({kBatch, kKeys, c.key_dim}, &rng);
      Tensor v =
          shared_kv ? k : Tensor::Randn({kBatch, kKeys, c.value_dim}, &rng);
      std::vector<float> mask(kBatch * kKeys, 0.0f);
      for (int64_t s = 0; s < kKeys; ++s) {
        mask[static_cast<size_t>(s)] = nn::MultiHeadAttention::kMaskedOut;
      }
      for (int64_t b = 2; b < kBatch; ++b) {
        for (int64_t s = 4 + (b % 3); s < kKeys; ++s) {
          mask[static_cast<size_t>(b * kKeys + s)] =
              nn::MultiHeadAttention::kMaskedOut;
        }
      }
      nn::AttentionOutput generic = mha.Forward(q, k, v, &mask);
      nn::AttentionOutput fused;
      {
        tensor::NoGradGuard no_grad;
        fused = mha.Forward(q, k, v, &mask);
      }
      ASSERT_EQ(fused.output.shape(), generic.output.shape());
      ASSERT_EQ(fused.weights.shape(), generic.weights.shape());
      for (int64_t i = 0; i < generic.output.numel(); ++i) {
        EXPECT_NEAR(fused.output.item(i), generic.output.item(i), 2e-4f);
      }
      for (int64_t i = 0; i < generic.weights.numel(); ++i) {
        EXPECT_NEAR(fused.weights.item(i), generic.weights.item(i), 1e-4f);
      }
    }
  }
}

struct EncoderFixture {
  core::ApanConfig config;
  Rng rng{2021};
  EncoderFixture() {
    config.num_nodes = 50;
    config.embedding_dim = 32;
    config.mailbox_slots = 10;
    config.num_heads = 2;
    config.dropout = 0.0f;
  }

  /// The serving encode of `nodes`: gather their state, then Forward.
  static core::ApanEncoder::Output Encode(
      const core::ApanEncoder& encoder, const core::NodeStateStore& store,
      const std::vector<graph::NodeId>& nodes) {
    return encoder.Forward(store.GatherLastEmbeddings(nodes),
                           store.ReadBatch(nodes));
  }

  /// A store with some mail and non-zero embeddings for `nodes`.
  void Warm(core::NodeStateStore* store, const std::vector<graph::NodeId>& nodes) {
    Rng mail_rng(7);
    for (const graph::NodeId v : nodes) {
      std::vector<float> z(static_cast<size_t>(config.embedding_dim));
      for (auto& x : z) x = static_cast<float>(mail_rng.Normal());
      store->SetLastEmbedding(v, z);
      const int mails = static_cast<int>(mail_rng.UniformInt(7));
      for (int i = 0; i < mails; ++i) {
        std::vector<float> mail(static_cast<size_t>(config.embedding_dim));
        for (auto& x : mail) x = static_cast<float>(mail_rng.Normal());
        store->Deliver(v, mail, 0.5 * i);
      }
    }
  }
};

TEST(FusedForwardTest, EncoderInferenceMatchesTrainingGraph) {
  for (const core::PositionalMode mode :
       {core::PositionalMode::kLearnedPosition,
        core::PositionalMode::kTimeKernel}) {
    SCOPED_TRACE(mode == core::PositionalMode::kTimeKernel ? "time-kernel"
                                                           : "learned");
    EncoderFixture f;
    f.config.positional = mode;
    core::ApanEncoder encoder(f.config, &f.rng);
    encoder.SetTraining(false);
    core::NodeStateStore store(f.config.num_nodes, f.config.mailbox_slots,
                               f.config.embedding_dim);
    std::vector<graph::NodeId> nodes = {1, 4, 9, 16, 25, 36, 49};
    f.Warm(&store, nodes);

    // Generic graph path (gradient recording on).
    core::ApanEncoder::Output generic = f.Encode(encoder, store, nodes);
    core::ApanEncoder::Output fused;
    {
      tensor::NoGradGuard no_grad;
      fused = f.Encode(encoder, store, nodes);
    }
    ASSERT_EQ(fused.embeddings.shape(), generic.embeddings.shape());
    for (int64_t i = 0; i < generic.embeddings.numel(); ++i) {
      EXPECT_NEAR(fused.embeddings.item(i), generic.embeddings.item(i),
                  5e-4f);
    }
    for (int64_t i = 0; i < generic.attention.numel(); ++i) {
      EXPECT_NEAR(fused.attention.item(i), generic.attention.item(i), 1e-4f);
    }
  }
}

// ---- Arena + autograd-free serve encode -------------------------------------

TEST(ArenaTest, WarmServeEncodeAllocatesNothingAndRegistersNoAutograd) {
  EncoderFixture f;
  core::ApanEncoder encoder(f.config, &f.rng);
  encoder.SetTraining(false);
  core::NodeStateStore store(f.config.num_nodes, f.config.mailbox_slots,
                             f.config.embedding_dim);
  std::vector<graph::NodeId> nodes = {2, 3, 5, 7, 11, 13, 17, 19};
  f.Warm(&store, nodes);

  tensor::NoGradGuard no_grad;
  tensor::TensorArena arena;
  std::vector<float> first_values;
  {
    tensor::ArenaScope scope(&arena);
    core::ApanEncoder::Output out = f.Encode(encoder, store, nodes);
    // Zero autograd nodes on the serve path: no recorded parents, no
    // backward closure, no grad requirement.
    EXPECT_FALSE(out.embeddings.requires_grad());
    EXPECT_TRUE(out.embeddings.impl()->parents.empty());
    EXPECT_FALSE(static_cast<bool>(out.embeddings.impl()->backward_fn));
    first_values.assign(out.embeddings.data(),
                        out.embeddings.data() + out.embeddings.numel());
  }  // out released -> every pooled impl is reusable

  const int64_t warm_fresh = arena.fresh_impls();
  EXPECT_GT(warm_fresh, 0);  // the warm-up batch did allocate

  for (int round = 0; round < 3; ++round) {
    tensor::ArenaScope scope(&arena);
    core::ApanEncoder::Output out = f.Encode(encoder, store, nodes);
    // Bitwise-deterministic encode, through recycled buffers.
    ASSERT_EQ(out.embeddings.numel(),
              static_cast<int64_t>(first_values.size()));
    for (int64_t i = 0; i < out.embeddings.numel(); ++i) {
      ASSERT_EQ(UlpDiff(out.embeddings.item(i),
                        first_values[static_cast<size_t>(i)]),
                0);
    }
  }
  // Zero per-op heap allocations after warm-up: the NewImpl hook
  // (fresh_impls) never moved again, everything came from the pool.
  EXPECT_EQ(arena.fresh_impls(), warm_fresh);
  EXPECT_GT(arena.reused_impls(), 0);
}

TEST(ArenaTest, TensorHeldAcrossScopesIsNotRecycled) {
  tensor::NoGradGuard no_grad;
  tensor::TensorArena arena;
  Tensor held;
  {
    tensor::ArenaScope scope(&arena);
    held = tensor::ForwardBuffer({4, 4});
    held.set_item(0, 42.0f);
  }
  {
    tensor::ArenaScope scope(&arena);
    Tensor fresh = tensor::ForwardBuffer({4, 4});
    // The live tensor's impl was skipped, not handed out again.
    EXPECT_NE(fresh.impl().get(), held.impl().get());
    EXPECT_EQ(held.item(0), 42.0f);
  }
}

// ---- Learned-position id cache ----------------------------------------------

TEST(EncoderCacheTest, RepeatedEncodeAtSameBatchSizeDoesNotRebuildIds) {
  EncoderFixture f;
  core::ApanEncoder encoder(f.config, &f.rng);
  encoder.SetTraining(false);
  core::NodeStateStore store(f.config.num_nodes, f.config.mailbox_slots,
                             f.config.embedding_dim);
  std::vector<graph::NodeId> nodes = {1, 2, 3, 4, 5};
  f.Warm(&store, nodes);

  // The generic (grad-recording) path is the one that consumes position
  // ids; the fused serve path never materializes them at all.
  (void)f.Encode(encoder, store, nodes);
  const int64_t after_first = core::ApanEncoder::position_ids_rebuilds();
  (void)f.Encode(encoder, store, nodes);
  (void)f.Encode(encoder, store, nodes);
  EXPECT_EQ(core::ApanEncoder::position_ids_rebuilds(), after_first)
      << "same batch size must reuse the cached position-id table";

  std::vector<graph::NodeId> smaller = {1, 2, 3};
  (void)f.Encode(encoder, store, smaller);
  EXPECT_EQ(core::ApanEncoder::position_ids_rebuilds(), after_first + 1);
}

// ---- Dispatch sanity --------------------------------------------------------

TEST(KernelDispatchTest, ActiveIsaIsNamedAndStable) {
  const kernels::Isa isa = kernels::ActiveIsa();
  EXPECT_STRNE(kernels::IsaName(isa), "unknown");
  EXPECT_EQ(isa, kernels::ActiveIsa());  // selected once, stable
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2") && std::getenv("APAN_KERNEL_ISA") == nullptr) {
    EXPECT_EQ(isa, kernels::Isa::kAvx2);
  }
#endif
}

}  // namespace
}  // namespace apan
