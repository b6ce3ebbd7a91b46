#include "nn/pool.h"

#include <algorithm>
#include <limits>

namespace gmreg {
namespace {

std::int64_t PoolOutSize(std::int64_t in, int kernel, int stride) {
  // Ceil mode so border columns are pooled by a clipped window (matches the
  // common CIFAR AlexNet configuration of 3x3/2 pooling on 32x32 inputs).
  return (in - kernel + stride - 1) / stride + 1;
}

}  // namespace

MaxPool2d::MaxPool2d(std::string name, int kernel, int stride)
    : Layer(std::move(name)), kernel_(kernel), stride_(stride) {
  GMREG_CHECK_GT(kernel, 0);
  GMREG_CHECK_GT(stride, 0);
}

void MaxPool2d::Forward(const Tensor& in, Tensor* out, bool train) {
  (void)train;
  GMREG_CHECK_EQ(in.rank(), 4);
  std::int64_t b = in.dim(0), c = in.dim(1), h = in.dim(2), w = in.dim(3);
  std::int64_t oh = PoolOutSize(h, kernel_, stride_);
  std::int64_t ow = PoolOutSize(w, kernel_, stride_);
  EnsureShape({b, c, oh, ow}, out);
  in_shape_ = in.shape();
  argmax_.assign(static_cast<std::size_t>(out->size()), 0);
  const float* ip = in.data();
  float* op = out->data();
  std::int64_t oidx = 0;
  for (std::int64_t i = 0; i < b; ++i) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* plane = ip + (i * c + ch) * h * w;
      for (std::int64_t r = 0; r < oh; ++r) {
        std::int64_t r0 = r * stride_;
        std::int64_t r1 = std::min<std::int64_t>(r0 + kernel_, h);
        for (std::int64_t col = 0; col < ow; ++col) {
          std::int64_t c0 = col * stride_;
          std::int64_t c1 = std::min<std::int64_t>(c0 + kernel_, w);
          float best = -std::numeric_limits<float>::infinity();
          std::int64_t best_idx = r0 * w + c0;
          for (std::int64_t rr = r0; rr < r1; ++rr) {
            for (std::int64_t cc = c0; cc < c1; ++cc) {
              float v = plane[rr * w + cc];
              if (v > best) {
                best = v;
                best_idx = rr * w + cc;
              }
            }
          }
          op[oidx] = best;
          argmax_[static_cast<std::size_t>(oidx)] =
              (i * c + ch) * h * w + best_idx;
          ++oidx;
        }
      }
    }
  }
}

void MaxPool2d::Backward(const Tensor& grad_out, Tensor* grad_in) {
  if (grad_in == nullptr) return;
  EnsureShape(in_shape_, grad_in);
  grad_in->SetZero();
  const float* gp = grad_out.data();
  float* gi = grad_in->data();
  for (std::int64_t i = 0; i < grad_out.size(); ++i) {
    gi[argmax_[static_cast<std::size_t>(i)]] += gp[i];
  }
}

AvgPool2d::AvgPool2d(std::string name, int kernel, int stride)
    : Layer(std::move(name)), kernel_(kernel), stride_(stride) {
  GMREG_CHECK_GT(kernel, 0);
  GMREG_CHECK_GT(stride, 0);
}

void AvgPool2d::Forward(const Tensor& in, Tensor* out, bool train) {
  (void)train;
  GMREG_CHECK_EQ(in.rank(), 4);
  std::int64_t b = in.dim(0), c = in.dim(1), h = in.dim(2), w = in.dim(3);
  std::int64_t oh = PoolOutSize(h, kernel_, stride_);
  std::int64_t ow = PoolOutSize(w, kernel_, stride_);
  EnsureShape({b, c, oh, ow}, out);
  in_shape_ = in.shape();
  const float* ip = in.data();
  float* op = out->data();
  std::int64_t oidx = 0;
  for (std::int64_t i = 0; i < b; ++i) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* plane = ip + (i * c + ch) * h * w;
      for (std::int64_t r = 0; r < oh; ++r) {
        std::int64_t r0 = r * stride_;
        std::int64_t r1 = std::min<std::int64_t>(r0 + kernel_, h);
        for (std::int64_t col = 0; col < ow; ++col) {
          std::int64_t c0 = col * stride_;
          std::int64_t c1 = std::min<std::int64_t>(c0 + kernel_, w);
          float acc = 0.0f;
          for (std::int64_t rr = r0; rr < r1; ++rr) {
            for (std::int64_t cc = c0; cc < c1; ++cc) {
              acc += plane[rr * w + cc];
            }
          }
          op[oidx++] =
              acc / static_cast<float>((r1 - r0) * (c1 - c0));
        }
      }
    }
  }
}

void AvgPool2d::Backward(const Tensor& grad_out, Tensor* grad_in) {
  if (grad_in == nullptr) return;
  std::int64_t b = in_shape_[0], c = in_shape_[1], h = in_shape_[2],
               w = in_shape_[3];
  std::int64_t oh = grad_out.dim(2), ow = grad_out.dim(3);
  EnsureShape(in_shape_, grad_in);
  grad_in->SetZero();
  const float* gp = grad_out.data();
  float* gi = grad_in->data();
  std::int64_t oidx = 0;
  for (std::int64_t i = 0; i < b; ++i) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      float* plane = gi + (i * c + ch) * h * w;
      for (std::int64_t r = 0; r < oh; ++r) {
        std::int64_t r0 = r * stride_;
        std::int64_t r1 = std::min<std::int64_t>(r0 + kernel_, h);
        for (std::int64_t col = 0; col < ow; ++col) {
          std::int64_t c0 = col * stride_;
          std::int64_t c1 = std::min<std::int64_t>(c0 + kernel_, w);
          float g = gp[oidx++] / static_cast<float>((r1 - r0) * (c1 - c0));
          for (std::int64_t rr = r0; rr < r1; ++rr) {
            for (std::int64_t cc = c0; cc < c1; ++cc) {
              plane[rr * w + cc] += g;
            }
          }
        }
      }
    }
  }
}

GlobalAvgPool::GlobalAvgPool(std::string name) : Layer(std::move(name)) {}

void GlobalAvgPool::Forward(const Tensor& in, Tensor* out, bool train) {
  (void)train;
  GMREG_CHECK_EQ(in.rank(), 4);
  std::int64_t b = in.dim(0), c = in.dim(1), hw = in.dim(2) * in.dim(3);
  EnsureShape({b, c}, out);
  in_shape_ = in.shape();
  const float* ip = in.data();
  float* op = out->data();
  for (std::int64_t i = 0; i < b * c; ++i) {
    float acc = 0.0f;
    for (std::int64_t p = 0; p < hw; ++p) acc += ip[i * hw + p];
    op[i] = acc / static_cast<float>(hw);
  }
}

void GlobalAvgPool::Backward(const Tensor& grad_out, Tensor* grad_in) {
  if (grad_in == nullptr) return;
  std::int64_t hw = in_shape_[2] * in_shape_[3];
  EnsureShape(in_shape_, grad_in);
  const float* gp = grad_out.data();
  float* gi = grad_in->data();
  for (std::int64_t i = 0; i < grad_out.size(); ++i) {
    float g = gp[i] / static_cast<float>(hw);
    for (std::int64_t p = 0; p < hw; ++p) gi[i * hw + p] = g;
  }
}

Flatten::Flatten(std::string name) : Layer(std::move(name)) {}

void Flatten::Forward(const Tensor& in, Tensor* out, bool train) {
  (void)train;
  in_shape_ = in.shape();
  std::int64_t b = in.dim(0);
  *out = in;
  out->Reshape({b, in.size() / b});
}

void Flatten::Backward(const Tensor& grad_out, Tensor* grad_in) {
  if (grad_in == nullptr) return;
  *grad_in = grad_out;
  grad_in->Reshape(in_shape_);
}

}  // namespace gmreg
