#ifndef GMREG_NN_LAYER_H_
#define GMREG_NN_LAYER_H_

#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace gmreg {

struct QuantizedMatrix;  // tensor/quantize.h

/// A named view onto one learnable parameter tensor and its gradient
/// accumulator. The regularization tool consumes these: a GmRegularizer is
/// attached per ParamRef whose `is_weight` is true (the paper regularizes
/// `.../weight` tensors only; biases and BN scale/shift are exempt, as in
/// standard weight-decay practice).
struct ParamRef {
  std::string name;       ///< e.g. "conv1/weight"
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
  bool is_weight = false;  ///< true => subject to regularization
  double init_stddev = 0.0;  ///< stddev of the initializer (GM `min` rule)
};

/// Initialization scheme for weight tensors.
struct InitSpec {
  enum class Kind { kGaussian, kHeNormal };
  Kind kind = Kind::kGaussian;
  double stddev = 0.1;  ///< used when kind == kGaussian

  static InitSpec Gaussian(double stddev) {
    return InitSpec{Kind::kGaussian, stddev};
  }
  static InitSpec He() { return InitSpec{Kind::kHeNormal, 0.0}; }
};

/// Base class for differentiable network layers. Layers cache whatever they
/// need from Forward for the subsequent Backward; Backward ACCUMULATES into
/// parameter gradients (the trainer zeroes them between steps).
class Layer {
 public:
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Computes the layer output. `train` toggles training-mode behaviour
  /// (batch statistics in BatchNorm). `out` is resized as needed.
  virtual void Forward(const Tensor& in, Tensor* out, bool train) = 0;

  /// Propagates the loss gradient. `grad_out` is d(loss)/d(output);
  /// `grad_in` receives d(loss)/d(input) (resized as needed). Must be
  /// preceded by a Forward(train=true) on the same input.
  ///
  /// `grad_in == nullptr` means the caller will not read d(loss)/d(input):
  /// the layer still accumulates its parameter gradients, bit for bit as
  /// with a non-null `grad_in`, and skips the work that only feeds it (a
  /// trainer's first layer, whose input is the data).
  virtual void Backward(const Tensor& grad_out, Tensor* grad_in) = 0;

  /// Uniform inference entry point — one eval-mode forward (BatchNorm uses
  /// its running inference statistics, nothing is cached for a Backward).
  /// The serving layer (src/serve/) programs against this contract: `in` is
  /// a batch along dim 0, `out` receives per-example scores where the row
  /// arg-max is the predicted class.
  void Predict(const Tensor& in, Tensor* out) {
    Forward(in, out, /*train=*/false);
  }

  /// Appends this layer's learnable parameters to `out`. Default: none.
  virtual void CollectParams(std::vector<ParamRef>* out);

  /// Offers a read-only int8 snapshot of the parameter `param_name` (per-row
  /// symmetric scales, see tensor/quantize.h) for eval-mode forwards — the
  /// serving layer binds these once per published model version. Returns
  /// true when this layer (or a child, for containers) owns that parameter
  /// and accepted the matrix; `q == nullptr` clears a previous binding. The
  /// caller keeps `q` alive for as long as the binding stands. Training-mode
  /// forwards always use the float weights. Default: not mine, false.
  virtual bool BindQuantizedWeight(const std::string& param_name,
                                   const QuantizedMatrix* q);

  const std::string& name() const { return name_; }

 protected:
  explicit Layer(std::string name) : name_(std::move(name)) {}

  /// Reallocates `*t` to `shape` unless it already matches.
  static void EnsureShape(const std::vector<std::int64_t>& shape, Tensor* t);
  /// Braced-list overload: call sites like EnsureShape({b, n}, t) compare
  /// against the current shape without materializing a vector, so the
  /// steady-state match path performs zero allocations.
  static void EnsureShape(std::initializer_list<std::int64_t> shape,
                          Tensor* t);

 private:
  std::string name_;
};

}  // namespace gmreg

#endif  // GMREG_NN_LAYER_H_
