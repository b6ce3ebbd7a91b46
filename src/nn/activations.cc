#include "nn/activations.h"

#include <algorithm>
#include <cmath>

#include "tensor/gemm_kernel.h"

namespace gmreg {

namespace {

// out[ch] = sum of f(v[cc]) over the channels cc of ch's window, clipped to
// [0, c). Each channel is a contiguous row of hw floats, so the inner loop
// runs along the row.
template <typename F>
void ChannelWindowSums(const float* v, std::int64_t c, std::int64_t hw,
                       int half, F f, float* out) {
  for (std::int64_t ch = 0; ch < c; ++ch) {
    float* dst = out + ch * hw;
    std::fill(dst, dst + hw, 0.0f);
    std::int64_t lo = std::max<std::int64_t>(0, ch - half);
    std::int64_t hi = std::min<std::int64_t>(c - 1, ch + half);
    for (std::int64_t cc = lo; cc <= hi; ++cc) {
      const float* src = v + cc * hw;
      for (std::int64_t p = 0; p < hw; ++p) dst[p] += f(src[p]);
    }
  }
}

}  // namespace

Relu::Relu(std::string name) : Layer(std::move(name)) {}

void Relu::Forward(const Tensor& in, Tensor* out, bool train) {
  EnsureShape(in.shape(), out);
  in_shape_ = in.shape();
  std::int64_t n = in.size();
  if (train) {
    mask_.resize(static_cast<std::size_t>(n));
    GetKernelOps().relu_forward(n, in.data(), out->data(), mask_.data());
  } else {
    GetKernelOps().relu_forward(n, in.data(), out->data(), nullptr);
  }
}

void Relu::Backward(const Tensor& grad_out, Tensor* grad_in) {
  if (grad_in == nullptr) return;
  EnsureShape(in_shape_, grad_in);
  std::int64_t n = grad_out.size();
  GMREG_CHECK_EQ(static_cast<std::int64_t>(mask_.size()), n);
  GetKernelOps().relu_backward(n, grad_out.data(), mask_.data(),
                               grad_in->data());
}

Lrn::Lrn(std::string name, int local_size, double alpha, double beta,
         double k)
    : Layer(std::move(name)),
      local_size_(local_size),
      alpha_(alpha),
      beta_(beta),
      k_(k) {
  GMREG_CHECK_GT(local_size, 0);
  GMREG_CHECK_EQ(local_size % 2, 1);
}

void Lrn::Forward(const Tensor& in, Tensor* out, bool train) {
  GMREG_CHECK_EQ(in.rank(), 4);
  EnsureShape(in.shape(), out);
  EnsureShape(in.shape(), &scale_);
  std::int64_t c = in.dim(1);
  std::int64_t hw = in.dim(2) * in.dim(3);
  std::int64_t chw = c * hw;
  const float k = static_cast<float>(k_);
  const float alpha_n = static_cast<float>(alpha_ / local_size_);
  const float neg_beta = static_cast<float>(-beta_);
  const float* ip = in.data();
  float* op = out->data();
  float* sp = scale_.data();
  for (std::int64_t i = 0; i < in.dim(0); ++i) {
    const float* x = ip + i * chw;
    float* s = sp + i * chw;
    ChannelWindowSums(x, c, hw, local_size_ / 2,
                      [](float v) { return v * v; }, s);
    for (std::int64_t e = 0; e < chw; ++e) {
      s[e] = std::pow(k + alpha_n * s[e], neg_beta);
    }
    float* y = op + i * chw;
    for (std::int64_t e = 0; e < chw; ++e) y[e] = x[e] * s[e];
  }
  if (train) cached_in_ = in;
}

void Lrn::Backward(const Tensor& grad_out, Tensor* grad_in) {
  if (grad_in == nullptr) return;
  // With s_i = denom_i^{-beta} from Forward:
  // gin_j = gout_j * s_j
  //         - (2*alpha*beta/n) * in_j * sum_{i: j in win(i)} gout_i*in_i*s_i/denom_i
  // The window relation is symmetric, so the sum is a window sum of
  // ratio_i = gout_i * in_i * s_i / denom_i over j's own window.
  EnsureShape(cached_in_.shape(), grad_in);
  EnsureShape(cached_in_.shape(), &ratio_);
  std::int64_t c = cached_in_.dim(1);
  std::int64_t hw = cached_in_.dim(2) * cached_in_.dim(3);
  std::int64_t chw = c * hw;
  int half = local_size_ / 2;
  const float k = static_cast<float>(k_);
  const float alpha_n = static_cast<float>(alpha_ / local_size_);
  const float cross_scale =
      static_cast<float>(2.0 * alpha_ * beta_ / local_size_);
  const float* ip = cached_in_.data();
  const float* gp = grad_out.data();
  const float* sp = scale_.data();
  float* rp = ratio_.data();
  float* gip = grad_in->data();
  for (std::int64_t i = 0; i < cached_in_.dim(0); ++i) {
    const float* x = ip + i * chw;
    const float* gy = gp + i * chw;
    const float* s = sp + i * chw;
    float* r = rp + i * chw;
    float* gx = gip + i * chw;
    // The denominators again, from the same window sums Forward took.
    ChannelWindowSums(x, c, hw, half, [](float v) { return v * v; }, r);
    for (std::int64_t e = 0; e < chw; ++e) {
      float denom = k + alpha_n * r[e];
      r[e] = gy[e] * x[e] * s[e] / denom;
    }
    ChannelWindowSums(r, c, hw, half, [](float v) { return v; }, gx);
    for (std::int64_t e = 0; e < chw; ++e) {
      gx[e] = gy[e] * s[e] - cross_scale * x[e] * gx[e];
    }
  }
}

}  // namespace gmreg
