#include "nn/dense.h"

#include "tensor/quantize.h"
#include "tensor/random.h"
#include "tensor/tensor_ops.h"
#include "util/logging.h"

namespace gmreg {

Dense::Dense(std::string name, std::int64_t in_features,
             std::int64_t out_features, const InitSpec& init, Rng* rng)
    : Layer(std::move(name)),
      in_features_(in_features),
      out_features_(out_features),
      weight_({in_features, out_features}),
      bias_({out_features}),
      weight_grad_({in_features, out_features}),
      bias_grad_({out_features}) {
  if (init.kind == InitSpec::Kind::kHeNormal) {
    init_stddev_ = HeStdDev(in_features);
  } else {
    init_stddev_ = init.stddev;
  }
  FillGaussian(rng, 0.0, init_stddev_, &weight_);
  // Bias starts at zero, as in the paper's substrate.
}

void Dense::Forward(const Tensor& in, Tensor* out, bool train) {
  GMREG_CHECK_EQ(in.rank(), 2);
  GMREG_CHECK_EQ(in.dim(1), in_features_);
  std::int64_t b = in.dim(0);
  EnsureShape({b, out_features_}, out);
  if (!train && quantized_weight_ != nullptr) {
    // Inference-only int8 path: per-input-row scales fold into the
    // activations, accumulation stays float32 (tensor/quantize.h).
    GemmQuantB(b, out_features_, in_features_, in.data(), in_features_,
               *quantized_weight_, out->data(), out_features_);
  } else {
    MatMul(in, weight_, out);
  }
  AddRowBroadcast(b, out_features_, bias_.data(), out->data());
  if (train) cached_in_ = in;
}

void Dense::Backward(const Tensor& grad_out, Tensor* grad_in) {
  std::int64_t b = grad_out.dim(0);
  GMREG_CHECK_EQ(grad_out.dim(1), out_features_);
  GMREG_CHECK_EQ(cached_in_.dim(0), b);
  // dW += in^T * gout
  Gemm(true, false, in_features_, out_features_, b, 1.0f, cached_in_.data(),
       in_features_, grad_out.data(), out_features_, 1.0f,
       weight_grad_.data(), out_features_);
  // db += column sums of gout
  ColSumsAccum(b, out_features_, grad_out.data(), bias_grad_.data());
  if (grad_in == nullptr) return;
  // gin = gout * W^T
  EnsureShape({b, in_features_}, grad_in);
  Gemm(false, true, b, in_features_, out_features_, 1.0f, grad_out.data(),
       out_features_, weight_.data(), out_features_, 0.0f, grad_in->data(),
       in_features_);
}

bool Dense::BindQuantizedWeight(const std::string& param_name,
                                const QuantizedMatrix* q) {
  if (param_name != name() + "/weight") return false;
  if (q != nullptr) {
    GMREG_CHECK_EQ(q->rows, in_features_);
    GMREG_CHECK_EQ(q->cols, out_features_);
  }
  quantized_weight_ = q;
  return true;
}

void Dense::CollectParams(std::vector<ParamRef>* out) {
  out->push_back({name() + "/weight", &weight_, &weight_grad_, true,
                  init_stddev_});
  out->push_back({name() + "/bias", &bias_, &bias_grad_, false, 0.0});
}

}  // namespace gmreg
