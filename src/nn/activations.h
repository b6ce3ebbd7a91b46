#ifndef GMREG_NN_ACTIVATIONS_H_
#define GMREG_NN_ACTIVATIONS_H_

#include <string>
#include <vector>

#include "nn/layer.h"

namespace gmreg {

/// Rectified linear unit, elementwise.
class Relu : public Layer {
 public:
  explicit Relu(std::string name);

  void Forward(const Tensor& in, Tensor* out, bool train) override;
  void Backward(const Tensor& grad_out, Tensor* grad_in) override;

 private:
  // 1 where input > 0. Bytes, not vector<bool>, so the vectorized
  // relu_forward/relu_backward kernels (tensor/gemm_kernel.h) can write and
  // read it directly.
  std::vector<unsigned char> mask_;
  std::vector<std::int64_t> in_shape_;
};

/// Local Response Normalization across channels (Krizhevsky et al. 2012),
/// used by the Alex-CIFAR-10 model of Table III:
///   out[c] = in[c] / (k + alpha/n * sum_{c' in window} in[c']^2)^beta
class Lrn : public Layer {
 public:
  Lrn(std::string name, int local_size, double alpha, double beta, double k);

  void Forward(const Tensor& in, Tensor* out, bool train) override;
  void Backward(const Tensor& grad_out, Tensor* grad_in) override;

 private:
  int local_size_;
  double alpha_;
  double beta_;
  double k_;
  Tensor cached_in_;
  Tensor scale_;  // denom^-beta per element, same shape as input
  Tensor ratio_;  // Backward's gout * in * scale / denom per element
};

}  // namespace gmreg

#endif  // GMREG_NN_ACTIVATIONS_H_
