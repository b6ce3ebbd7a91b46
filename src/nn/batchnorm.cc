#include "nn/batchnorm.h"

#include <cmath>

namespace gmreg {

BatchNorm2d::BatchNorm2d(std::string name, std::int64_t channels,
                         double momentum, double eps)
    : Layer(std::move(name)),
      channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_(Tensor::Full({channels}, 1.0f)),
      beta_({channels}),
      gamma_grad_({channels}),
      beta_grad_({channels}),
      running_mean_({channels}),
      running_var_(Tensor::Full({channels}, 1.0f)) {}

void BatchNorm2d::Forward(const Tensor& in, Tensor* out, bool train) {
  GMREG_CHECK_EQ(in.rank(), 4);
  GMREG_CHECK_EQ(in.dim(1), channels_);
  EnsureShape(in.shape(), out);
  in_shape_ = in.shape();
  std::int64_t b = in.dim(0), hw = in.dim(2) * in.dim(3);
  std::int64_t chw = channels_ * hw;
  const float* ip = in.data();
  float* op = out->data();
  if (train) {
    EnsureShape(in.shape(), &x_hat_);
    batch_inv_std_.assign(static_cast<std::size_t>(channels_), 0.0);
    float* xh = x_hat_.data();
    double count = static_cast<double>(b * hw);
    for (std::int64_t ch = 0; ch < channels_; ++ch) {
      double sum = 0.0, sum_sq = 0.0;
      for (std::int64_t i = 0; i < b; ++i) {
        const float* plane = ip + i * chw + ch * hw;
        for (std::int64_t p = 0; p < hw; ++p) {
          sum += plane[p];
          sum_sq += static_cast<double>(plane[p]) * plane[p];
        }
      }
      double mean = sum / count;
      double var = std::max(0.0, sum_sq / count - mean * mean);
      double inv_std = 1.0 / std::sqrt(var + eps_);
      batch_inv_std_[static_cast<std::size_t>(ch)] = inv_std;
      running_mean_[ch] = static_cast<float>(
          momentum_ * running_mean_[ch] + (1.0 - momentum_) * mean);
      running_var_[ch] = static_cast<float>(
          momentum_ * running_var_[ch] + (1.0 - momentum_) * var);
      float g = gamma_[ch], bt = beta_[ch];
      for (std::int64_t i = 0; i < b; ++i) {
        const float* plane = ip + i * chw + ch * hw;
        float* xplane = xh + i * chw + ch * hw;
        float* oplane = op + i * chw + ch * hw;
        for (std::int64_t p = 0; p < hw; ++p) {
          float norm = static_cast<float>((plane[p] - mean) * inv_std);
          xplane[p] = norm;
          oplane[p] = g * norm + bt;
        }
      }
    }
  } else {
    for (std::int64_t ch = 0; ch < channels_; ++ch) {
      double inv_std = 1.0 / std::sqrt(running_var_[ch] + eps_);
      double mean = running_mean_[ch];
      float g = gamma_[ch], bt = beta_[ch];
      for (std::int64_t i = 0; i < b; ++i) {
        const float* plane = ip + i * chw + ch * hw;
        float* oplane = op + i * chw + ch * hw;
        for (std::int64_t p = 0; p < hw; ++p) {
          oplane[p] =
              static_cast<float>(g * (plane[p] - mean) * inv_std + bt);
        }
      }
    }
  }
}

void BatchNorm2d::Backward(const Tensor& grad_out, Tensor* grad_in) {
  std::int64_t b = in_shape_[0], hw = in_shape_[2] * in_shape_[3];
  std::int64_t chw = channels_ * hw;
  double count = static_cast<double>(b * hw);
  const float* gp = grad_out.data();
  const float* xh = x_hat_.data();
  float* gi = nullptr;
  if (grad_in != nullptr) {
    EnsureShape(in_shape_, grad_in);
    gi = grad_in->data();
  }
  for (std::int64_t ch = 0; ch < channels_; ++ch) {
    double sum_g = 0.0, sum_gx = 0.0;
    for (std::int64_t i = 0; i < b; ++i) {
      const float* gplane = gp + i * chw + ch * hw;
      const float* xplane = xh + i * chw + ch * hw;
      for (std::int64_t p = 0; p < hw; ++p) {
        sum_g += gplane[p];
        sum_gx += static_cast<double>(gplane[p]) * xplane[p];
      }
    }
    gamma_grad_[ch] += static_cast<float>(sum_gx);
    beta_grad_[ch] += static_cast<float>(sum_g);
    if (gi == nullptr) continue;
    double mean_g = sum_g / count;
    double mean_gx = sum_gx / count;
    double coeff =
        gamma_[ch] * batch_inv_std_[static_cast<std::size_t>(ch)];
    for (std::int64_t i = 0; i < b; ++i) {
      const float* gplane = gp + i * chw + ch * hw;
      const float* xplane = xh + i * chw + ch * hw;
      float* iplane = gi + i * chw + ch * hw;
      for (std::int64_t p = 0; p < hw; ++p) {
        iplane[p] = static_cast<float>(
            coeff * (gplane[p] - mean_g - xplane[p] * mean_gx));
      }
    }
  }
}

void BatchNorm2d::CollectParams(std::vector<ParamRef>* out) {
  // BN scale/shift are not `.../weight` tensors: exempt from regularization.
  out->push_back({name() + "/gamma", &gamma_, &gamma_grad_, false, 0.0});
  out->push_back({name() + "/beta", &beta_, &beta_grad_, false, 0.0});
}

}  // namespace gmreg
