// Dense float32 tensor with dynamic reverse-mode automatic differentiation.
//
// This is the numerical substrate for every model in the repository. It is
// deliberately small: row-major contiguous float32 storage, a define-by-run
// autograd tape, and the operator set required by temporal-graph models
// (see ops.h). Tensors are cheap shared handles to reference-counted
// storage; ops build a DAG of parent links and backward closures that
// Tensor::Backward() traverses in reverse topological order.
//
// Thread-model: a Tensor graph must be built and differentiated on one
// thread. Distinct graphs on distinct threads are safe (GradMode is
// thread-local).

#ifndef APAN_TENSOR_TENSOR_H_
#define APAN_TENSOR_TENSOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/random.h"
#include "util/status.h"

namespace apan {
namespace tensor {

/// Dimension sizes, outermost first. Rank 0 is not supported; scalars are
/// shape {1}.
using Shape = std::vector<int64_t>;

/// \brief Returns the element count of a shape.
int64_t NumElements(const Shape& shape);

/// \brief Renders "[2, 3, 4]".
std::string ShapeToString(const Shape& shape);

/// \brief Thread-local switch that disables graph construction. Used for
/// inference paths and for mailbox/memory updates that must be detached.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

  /// True when gradients are currently being recorded.
  static bool GradEnabled();

 private:
  bool prev_;
};

namespace internal {

/// Reference-counted tensor node: storage plus autograd metadata.
struct TensorImpl {
  Shape shape;
  std::vector<float> data;
  std::vector<float> grad;  // allocated lazily, same size as data
  bool requires_grad = false;
  // Backward closure: reads this->grad, accumulates into parents' grads.
  std::function<void()> backward_fn;
  std::vector<std::shared_ptr<TensorImpl>> parents;

  void EnsureGrad() {
    if (grad.size() != data.size()) grad.assign(data.size(), 0.0f);
  }
};

}  // namespace internal

/// \brief Shared handle to a tensor node. Copying a Tensor aliases storage.
class Tensor {
 public:
  /// Null handle; most APIs treat it as an error to pass one.
  Tensor() = default;

  // ---- Factory functions -------------------------------------------------

  /// Uninitialized-to-zero tensor of the given shape.
  static Tensor Zeros(Shape shape, bool requires_grad = false);
  static Tensor Ones(Shape shape, bool requires_grad = false);
  static Tensor Full(Shape shape, float value, bool requires_grad = false);
  /// I.i.d. N(0, stddev^2) entries.
  static Tensor Randn(Shape shape, Rng* rng, float stddev = 1.0f,
                      bool requires_grad = false);
  /// U(lo, hi) entries.
  static Tensor Uniform(Shape shape, Rng* rng, float lo, float hi,
                        bool requires_grad = false);
  /// Adopts `values` as the storage, with no copy and no fill (size must
  /// equal NumElements(shape)).
  static Tensor FromVector(Shape shape, std::vector<float> values,
                           bool requires_grad = false);
  /// Shape {1} scalar.
  static Tensor Scalar(float value, bool requires_grad = false);
  /// Xavier/Glorot-uniform initialized {fan_in, fan_out} matrix.
  static Tensor XavierUniform(int64_t fan_in, int64_t fan_out, Rng* rng,
                              bool requires_grad = true);

  // ---- Structure ---------------------------------------------------------

  bool defined() const { return impl_ != nullptr; }
  const Shape& shape() const;
  int64_t dim(size_t i) const;
  size_t rank() const;
  int64_t numel() const;
  bool requires_grad() const;

  // ---- Data access -------------------------------------------------------

  float* data();
  const float* data() const;
  float* grad_data();
  const std::vector<float>& values() const;

  /// Element access for tests and glue code (row-major flattened index).
  float item(int64_t flat_index = 0) const;
  void set_item(int64_t flat_index, float v);
  /// 2-D convenience accessor.
  float at(int64_t row, int64_t col) const;

  /// Gradient copy (empty when no gradient has been accumulated).
  std::vector<float> GradToVector() const;

  // ---- Autograd ----------------------------------------------------------

  /// \brief Runs reverse-mode differentiation from this node. The tensor
  /// must be a scalar (numel == 1) unless `grad_output` is supplied.
  /// \return InvalidArgument for non-scalar roots without grad_output.
  Status Backward();
  Status Backward(const std::vector<float>& grad_output);

  /// Zeroes the gradient buffer (keeps allocation).
  void ZeroGrad();

  /// \brief Returns a detached view sharing storage but outside the graph.
  /// Mutating either alias mutates both; the detached alias never requires
  /// grad and has no parents.
  Tensor Detach() const;

  /// Deep copy of values (never shares storage, never in a graph).
  Tensor Clone() const;

  /// Copies values from `src` (shapes must match) without touching graph
  /// structure. Used for in-place state updates under NoGradGuard.
  Status CopyDataFrom(const Tensor& src);

  /// Marks this tensor as a trainable parameter.
  void set_requires_grad(bool requires_grad);

  // ---- Internal (used by ops.cc) -----------------------------------------

  using Impl = internal::TensorImpl;
  const std::shared_ptr<Impl>& impl() const { return impl_; }
  static Tensor WrapImpl(std::shared_ptr<Impl> impl);

  /// Renders shape and (for small tensors) values; for debugging.
  std::string ToString() const;

 private:
  explicit Tensor(std::shared_ptr<Impl> impl) : impl_(std::move(impl)) {}
  std::shared_ptr<Impl> impl_;
};

}  // namespace tensor
}  // namespace apan

#endif  // APAN_TENSOR_TENSOR_H_
