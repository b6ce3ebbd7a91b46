#include "nn/conv.h"

#include <algorithm>

#include "tensor/quantize.h"
#include "tensor/random.h"
#include "tensor/tensor_ops.h"
#include "util/arena.h"
#include "util/parallel.h"

namespace gmreg {
namespace {

// Bound, in floats, on a sample group's im2col panel [patch, g*cols] and on
// its output rows [Cout, g*cols] (256 KB each). A group is as many samples
// as fit, so small late layers still get one wide GEMM per group while the
// scratch stays independent of the batch size: an evaluation pass at batch
// 100 uses the same buffers as training at 16 (docs/MEMORY.md).
constexpr std::int64_t kGroupFloats = std::int64_t{1} << 16;

// Per-thread scratch that every Conv2d on the thread shares, like the GEMM's
// packed-B buffer: a layer's pass finishes before the next layer's starts,
// and a serving worker (one pool task) has its own. Grow-only and
// arena-served, so steady-state steps never touch the heap.
struct ConvScratch {
  ScratchBuffer<float> panel;  // im2col columns, then dcol [patch, g*cols]
  ScratchBuffer<float> rows;   // outputs or output gradients [Cout, g*cols]
};

ConvScratch& ThreadConvScratch() {
  thread_local ConvScratch scratch;
  return scratch;
}

}  // namespace

Conv2d::Conv2d(std::string name, std::int64_t in_channels,
               std::int64_t out_channels, int kernel, int stride, int padding,
               const InitSpec& init, Rng* rng)
    : Layer(std::move(name)),
      in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      weight_({out_channels, in_channels * kernel * kernel}),
      bias_({out_channels}),
      weight_grad_({out_channels, in_channels * kernel * kernel}),
      bias_grad_({out_channels}) {
  GMREG_CHECK_GT(kernel, 0);
  GMREG_CHECK_GT(stride, 0);
  GMREG_CHECK_GE(padding, 0);
  std::int64_t fan_in = in_channels * kernel * kernel;
  if (init.kind == InitSpec::Kind::kHeNormal) {
    init_stddev_ = HeStdDev(fan_in);
  } else {
    init_stddev_ = init.stddev;
  }
  FillGaussian(rng, 0.0, init_stddev_, &weight_);
}

std::int64_t Conv2d::GroupSize(std::int64_t cols) const {
  std::int64_t patch = in_channels_ * kernel_ * kernel_;
  std::int64_t widest = std::max(patch, out_channels_);
  return std::max<std::int64_t>(1, kGroupFloats / (widest * cols));
}

void Conv2d::Im2Col(const float* img, std::int64_t h, std::int64_t w,
                    std::int64_t out_h, std::int64_t out_w, float* col,
                    std::int64_t ld) const {
  std::int64_t cols = out_h * out_w;
  for (std::int64_t c = 0; c < in_channels_; ++c) {
    for (int kh = 0; kh < kernel_; ++kh) {
      for (int kw = 0; kw < kernel_; ++kw) {
        std::int64_t row = (c * kernel_ + kh) * kernel_ + kw;
        float* dst = col + row * ld;
        std::fill(dst, dst + cols, 0.0f);
        for (std::int64_t oh = 0; oh < out_h; ++oh) {
          std::int64_t ih = oh * stride_ - padding_ + kh;
          if (ih < 0 || ih >= h) continue;
          const float* src = img + (c * h + ih) * w;
          for (std::int64_t ow = 0; ow < out_w; ++ow) {
            std::int64_t iw = ow * stride_ - padding_ + kw;
            if (iw < 0 || iw >= w) continue;
            dst[oh * out_w + ow] = src[iw];
          }
        }
      }
    }
  }
}

void Conv2d::Col2Im(const float* col, std::int64_t ld, std::int64_t h,
                    std::int64_t w, std::int64_t out_h, std::int64_t out_w,
                    float* img) const {
  for (std::int64_t c = 0; c < in_channels_; ++c) {
    for (int kh = 0; kh < kernel_; ++kh) {
      for (int kw = 0; kw < kernel_; ++kw) {
        std::int64_t row = (c * kernel_ + kh) * kernel_ + kw;
        const float* src = col + row * ld;
        for (std::int64_t oh = 0; oh < out_h; ++oh) {
          std::int64_t ih = oh * stride_ - padding_ + kh;
          if (ih < 0 || ih >= h) continue;
          float* dst = img + (c * h + ih) * w;
          for (std::int64_t ow = 0; ow < out_w; ++ow) {
            std::int64_t iw = ow * stride_ - padding_ + kw;
            if (iw < 0 || iw >= w) continue;
            dst[iw] += src[oh * out_w + ow];
          }
        }
      }
    }
  }
}

void Conv2d::Forward(const Tensor& in, Tensor* out, bool train) {
  GMREG_CHECK_EQ(in.rank(), 4);
  GMREG_CHECK_EQ(in.dim(1), in_channels_);
  std::int64_t b = in.dim(0);
  std::int64_t h = in.dim(2);
  std::int64_t w = in.dim(3);
  std::int64_t out_h = OutSize(h);
  std::int64_t out_w = OutSize(w);
  GMREG_CHECK_GT(out_h, 0);
  GMREG_CHECK_GT(out_w, 0);
  EnsureShape({b, out_channels_, out_h, out_w}, out);
  std::int64_t patch = in_channels_ * kernel_ * kernel_;
  std::int64_t cols = out_h * out_w;
  std::int64_t in_chw = in_channels_ * h * w;
  std::int64_t out_chw = out_channels_ * cols;
  std::int64_t group = GroupSize(cols);
  ConvScratch& scratch = ThreadConvScratch();
  float* panel = scratch.panel.EnsureCapacity(
      static_cast<std::size_t>(patch * group * cols));
  float* rows = scratch.rows.EnsureCapacity(
      static_cast<std::size_t>(out_channels_ * group * cols));
  const float* x = in.data();
  const float* bias = bias_.data();
  float* y = out->data();
  int groups = static_cast<int>((b + group - 1) / group);
  for (int g = 0; g < groups; ++g) {
    auto [g0, g1] = ShardRange(g, groups, 0, b);
    std::int64_t n = (g1 - g0) * cols;
    ParallelFor(g0, g1, /*grain=*/1, [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) {
        Im2Col(x + i * in_chw, h, w, out_h, out_w, panel + (i - g0) * cols,
               n);
      }
    });
    // rows [Cout, n] = W [Cout, patch] * panel [patch, n]
    if (!train && quantized_weight_ != nullptr) {
      // Inference-only int8 path: per-output-row scales applied to each
      // finished row, accumulation stays float32 (tensor/quantize.h).
      GemmQuantA(out_channels_, n, patch, *quantized_weight_, panel, n, rows,
                 n);
    } else {
      Gemm(false, false, out_channels_, n, patch, 1.0f, weight_.data(), patch,
           panel, n, 0.0f, rows, n);
    }
    // Scatter the rows back to NCHW, adding the bias on the way.
    ParallelFor(g0, g1, /*grain=*/1, [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) {
        for (std::int64_t co = 0; co < out_channels_; ++co) {
          const float* src = rows + co * n + (i - g0) * cols;
          float* dst = y + i * out_chw + co * cols;
          for (std::int64_t p = 0; p < cols; ++p) dst[p] = src[p] + bias[co];
        }
      }
    });
  }
  if (train) {
    // Copy-assign reuses capacity, which would otherwise pin the largest
    // batch ever seen for the rest of the run; drop the buffer first when
    // it is more than twice the new batch's need.
    if (cached_in_.capacity() > 2 * in.size()) cached_in_ = Tensor();
    cached_in_ = in;
  }
}

bool Conv2d::BindQuantizedWeight(const std::string& param_name,
                                 const QuantizedMatrix* q) {
  if (param_name != name() + "/weight") return false;
  if (q != nullptr) {
    GMREG_CHECK_EQ(q->rows, out_channels_);
    GMREG_CHECK_EQ(q->cols, in_channels_ * kernel_ * kernel_);
  }
  quantized_weight_ = q;
  return true;
}

void Conv2d::Backward(const Tensor& grad_out, Tensor* grad_in) {
  std::int64_t b = cached_in_.dim(0);
  std::int64_t h = cached_in_.dim(2);
  std::int64_t w = cached_in_.dim(3);
  std::int64_t out_h = grad_out.dim(2);
  std::int64_t out_w = grad_out.dim(3);
  std::int64_t patch = in_channels_ * kernel_ * kernel_;
  std::int64_t cols = out_h * out_w;
  std::int64_t in_chw = in_channels_ * h * w;
  std::int64_t out_chw = out_channels_ * cols;
  EnsureShape(cached_in_.shape(), grad_in);
  std::int64_t group = GroupSize(cols);
  ConvScratch& scratch = ThreadConvScratch();
  float* panel = scratch.panel.EnsureCapacity(
      static_cast<std::size_t>(patch * group * cols));
  float* rows = scratch.rows.EnsureCapacity(
      static_cast<std::size_t>(out_channels_ * group * cols));
  const float* x = cached_in_.data();
  const float* gy = grad_out.data();
  float* gx = grad_in->data();
  // The same groups as Forward. dW and db accumulate group after group in
  // group order, so every thread budget runs the same arithmetic.
  int groups = static_cast<int>((b + group - 1) / group);
  for (int g = 0; g < groups; ++g) {
    auto [g0, g1] = ShardRange(g, groups, 0, b);
    std::int64_t n = (g1 - g0) * cols;
    ParallelFor(g0, g1, /*grain=*/1, [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) {
        Im2Col(x + i * in_chw, h, w, out_h, out_w, panel + (i - g0) * cols,
               n);
        for (std::int64_t co = 0; co < out_channels_; ++co) {
          const float* src = gy + i * out_chw + co * cols;
          std::copy(src, src + cols, rows + co * n + (i - g0) * cols);
        }
      }
    });
    // dW += gout [Cout, n] * panel^T [n, patch]
    Gemm(false, true, out_channels_, patch, n, 1.0f, rows, n, panel, n, 1.0f,
         weight_grad_.data(), patch);
    RowSumsAccum(out_channels_, n, rows, bias_grad_.data());
    // dcol [patch, n] = W^T [patch, Cout] * gout [Cout, n], into the spent
    // panel.
    Gemm(true, false, patch, n, out_channels_, 1.0f, weight_.data(), patch,
         rows, n, 0.0f, panel, n);
    ParallelFor(g0, g1, /*grain=*/1, [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) {
        float* img = gx + i * in_chw;
        std::fill(img, img + in_chw, 0.0f);
        Col2Im(panel + (i - g0) * cols, n, h, w, out_h, out_w, img);
      }
    });
  }
}

void Conv2d::CollectParams(std::vector<ParamRef>* out) {
  out->push_back({name() + "/weight", &weight_, &weight_grad_, true,
                  init_stddev_});
  out->push_back({name() + "/bias", &bias_, &bias_grad_, false, 0.0});
}

}  // namespace gmreg
