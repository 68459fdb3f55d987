#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_set>

namespace apan {
namespace tensor {

namespace {
thread_local bool g_grad_enabled = true;
}  // namespace

int64_t NumElements(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    // Zero-sized dimensions are legal (a zero-row batch is a well-formed
    // tensor with numel 0); negative ones never are.
    APAN_CHECK_MSG(d >= 0, "shape dimensions must be non-negative");
    n *= d;
  }
  return shape.empty() ? 0 : n;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream oss;
  oss << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i) oss << ", ";
    oss << shape[i];
  }
  oss << "]";
  return oss.str();
}

NoGradGuard::NoGradGuard() : prev_(g_grad_enabled) {
  g_grad_enabled = false;
}
NoGradGuard::~NoGradGuard() { g_grad_enabled = prev_; }
bool NoGradGuard::GradEnabled() { return g_grad_enabled; }

// ---- Factories -------------------------------------------------------------

namespace {
/// `values` becomes the storage as is: its size must already match.
std::shared_ptr<internal::TensorImpl> MakeImpl(Shape shape,
                                               std::vector<float> values,
                                               bool requires_grad) {
  APAN_CHECK_MSG(!shape.empty(), "rank-0 tensors are not supported");
  auto impl = std::make_shared<internal::TensorImpl>();
  impl->shape = std::move(shape);
  impl->data = std::move(values);
  impl->requires_grad = requires_grad && NoGradGuard::GradEnabled();
  return impl;
}

/// Zero-filled storage.
std::shared_ptr<internal::TensorImpl> MakeImpl(Shape shape,
                                               bool requires_grad) {
  const auto n = static_cast<size_t>(NumElements(shape));
  return MakeImpl(std::move(shape), std::vector<float>(n, 0.0f),
                  requires_grad);
}
}  // namespace

Tensor Tensor::Zeros(Shape shape, bool requires_grad) {
  return Tensor(MakeImpl(std::move(shape), requires_grad));
}

Tensor Tensor::Ones(Shape shape, bool requires_grad) {
  return Full(std::move(shape), 1.0f, requires_grad);
}

Tensor Tensor::Full(Shape shape, float value, bool requires_grad) {
  auto impl = MakeImpl(std::move(shape), requires_grad);
  std::fill(impl->data.begin(), impl->data.end(), value);
  return Tensor(std::move(impl));
}

Tensor Tensor::Randn(Shape shape, Rng* rng, float stddev,
                     bool requires_grad) {
  APAN_CHECK(rng != nullptr);
  auto impl = MakeImpl(std::move(shape), requires_grad);
  for (auto& v : impl->data) {
    v = static_cast<float>(rng->Normal()) * stddev;
  }
  return Tensor(std::move(impl));
}

Tensor Tensor::Uniform(Shape shape, Rng* rng, float lo, float hi,
                       bool requires_grad) {
  APAN_CHECK(rng != nullptr);
  auto impl = MakeImpl(std::move(shape), requires_grad);
  for (auto& v : impl->data) {
    v = static_cast<float>(rng->Uniform(lo, hi));
  }
  return Tensor(std::move(impl));
}

Tensor Tensor::FromVector(Shape shape, std::vector<float> values,
                          bool requires_grad) {
  const int64_t n = NumElements(shape);
  APAN_CHECK_MSG(static_cast<size_t>(n) == values.size(),
                 "FromVector: value count does not match shape");
  return Tensor(MakeImpl(std::move(shape), std::move(values), requires_grad));
}

Tensor Tensor::Scalar(float value, bool requires_grad) {
  return FromVector({1}, {value}, requires_grad);
}

Tensor Tensor::XavierUniform(int64_t fan_in, int64_t fan_out, Rng* rng,
                             bool requires_grad) {
  const float bound =
      std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return Uniform({fan_in, fan_out}, rng, -bound, bound, requires_grad);
}

// ---- Structure -------------------------------------------------------------

const Shape& Tensor::shape() const {
  APAN_CHECK(impl_ != nullptr);
  return impl_->shape;
}

int64_t Tensor::dim(size_t i) const {
  APAN_CHECK(impl_ != nullptr && i < impl_->shape.size());
  return impl_->shape[i];
}

size_t Tensor::rank() const {
  APAN_CHECK(impl_ != nullptr);
  return impl_->shape.size();
}

int64_t Tensor::numel() const {
  APAN_CHECK(impl_ != nullptr);
  return static_cast<int64_t>(impl_->data.size());
}

bool Tensor::requires_grad() const {
  return impl_ != nullptr && impl_->requires_grad;
}

// ---- Data access -----------------------------------------------------------

float* Tensor::data() {
  APAN_CHECK(impl_ != nullptr);
  return impl_->data.data();
}

const float* Tensor::data() const {
  APAN_CHECK(impl_ != nullptr);
  return impl_->data.data();
}

float* Tensor::grad_data() {
  APAN_CHECK(impl_ != nullptr);
  impl_->EnsureGrad();
  return impl_->grad.data();
}

const std::vector<float>& Tensor::values() const {
  APAN_CHECK(impl_ != nullptr);
  return impl_->data;
}

float Tensor::item(int64_t flat_index) const {
  APAN_CHECK(impl_ != nullptr);
  APAN_CHECK_MSG(flat_index >= 0 &&
                     static_cast<size_t>(flat_index) < impl_->data.size(),
                 "item index out of range");
  return impl_->data[static_cast<size_t>(flat_index)];
}

void Tensor::set_item(int64_t flat_index, float v) {
  APAN_CHECK(impl_ != nullptr);
  APAN_CHECK_MSG(flat_index >= 0 &&
                     static_cast<size_t>(flat_index) < impl_->data.size(),
                 "item index out of range");
  impl_->data[static_cast<size_t>(flat_index)] = v;
}

float Tensor::at(int64_t row, int64_t col) const {
  APAN_CHECK(impl_ != nullptr && impl_->shape.size() == 2);
  APAN_CHECK(row >= 0 && row < impl_->shape[0] && col >= 0 &&
             col < impl_->shape[1]);
  return impl_->data[static_cast<size_t>(row * impl_->shape[1] + col)];
}

std::vector<float> Tensor::GradToVector() const {
  APAN_CHECK(impl_ != nullptr);
  return impl_->grad;
}

// ---- Autograd --------------------------------------------------------------

namespace {

// Post-order DFS producing reverse-topological execution order.
void TopoSort(const std::shared_ptr<internal::TensorImpl>& root,
              std::vector<internal::TensorImpl*>* order) {
  std::unordered_set<internal::TensorImpl*> visited;
  // Iterative DFS to avoid stack overflow on long chains (e.g. RNN-style
  // graphs built over many events).
  struct Frame {
    internal::TensorImpl* node;
    size_t next_child;
  };
  std::vector<Frame> stack;
  if (visited.insert(root.get()).second) {
    stack.push_back({root.get(), 0});
  }
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next_child < top.node->parents.size()) {
      internal::TensorImpl* child =
          top.node->parents[top.next_child++].get();
      if (child != nullptr && visited.insert(child).second) {
        stack.push_back({child, 0});
      }
    } else {
      order->push_back(top.node);
      stack.pop_back();
    }
  }
}

}  // namespace

Status Tensor::Backward() {
  if (impl_ == nullptr) return Status::InvalidArgument("null tensor");
  if (numel() != 1) {
    return Status::InvalidArgument(
        "Backward() without grad_output requires a scalar; got shape " +
        ShapeToString(shape()));
  }
  return Backward({1.0f});
}

Status Tensor::Backward(const std::vector<float>& grad_output) {
  if (impl_ == nullptr) return Status::InvalidArgument("null tensor");
  if (grad_output.size() != impl_->data.size()) {
    std::ostringstream oss;
    oss << "grad_output size " << grad_output.size()
        << " does not match tensor numel " << impl_->data.size();
    return Status::InvalidArgument(oss.str());
  }
  impl_->EnsureGrad();
  for (size_t i = 0; i < grad_output.size(); ++i) {
    impl_->grad[i] += grad_output[i];
  }
  std::vector<internal::TensorImpl*> order;
  TopoSort(impl_, &order);
  // order is post-order (leaves first); walk backwards so each node runs
  // its backward after all of its consumers.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    internal::TensorImpl* node = *it;
    if (node->backward_fn) {
      node->EnsureGrad();
      node->backward_fn();
    }
  }
  return Status::OK();
}

void Tensor::ZeroGrad() {
  APAN_CHECK(impl_ != nullptr);
  std::fill(impl_->grad.begin(), impl_->grad.end(), 0.0f);
}

Tensor Tensor::Detach() const {
  APAN_CHECK(impl_ != nullptr);
  auto impl = std::make_shared<internal::TensorImpl>();
  impl->shape = impl_->shape;
  impl->data = impl_->data;  // value snapshot
  impl->requires_grad = false;
  return Tensor(std::move(impl));
}

Tensor Tensor::Clone() const {
  APAN_CHECK(impl_ != nullptr);
  auto impl = std::make_shared<internal::TensorImpl>();
  impl->shape = impl_->shape;
  impl->data = impl_->data;
  impl->requires_grad = false;
  return Tensor(std::move(impl));
}

Status Tensor::CopyDataFrom(const Tensor& src) {
  if (impl_ == nullptr || !src.defined()) {
    return Status::InvalidArgument("CopyDataFrom: null tensor");
  }
  if (src.shape() != shape()) {
    return Status::InvalidArgument(
        "CopyDataFrom: shape mismatch " + ShapeToString(src.shape()) +
        " vs " + ShapeToString(shape()));
  }
  impl_->data = src.impl_->data;
  return Status::OK();
}

void Tensor::set_requires_grad(bool requires_grad) {
  APAN_CHECK(impl_ != nullptr);
  impl_->requires_grad = requires_grad;
}

Tensor Tensor::WrapImpl(std::shared_ptr<Impl> impl) {
  return Tensor(std::move(impl));
}

std::string Tensor::ToString() const {
  if (impl_ == nullptr) return "Tensor(null)";
  std::ostringstream oss;
  oss << "Tensor" << ShapeToString(impl_->shape);
  if (impl_->data.size() <= 16) {
    oss << " {";
    for (size_t i = 0; i < impl_->data.size(); ++i) {
      if (i) oss << ", ";
      oss << impl_->data[i];
    }
    oss << "}";
  }
  return oss.str();
}

}  // namespace tensor
}  // namespace apan
