#include "nn/conv.h"

#include <algorithm>
#include <cstring>

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
// arena-served, so steady-state steps never touch the heap. All three are
// sized by the layer shape, never the batch.
struct ConvScratch {
  ScratchBuffer<float> panel;  // im2col columns, then dcol [patch, g*cols]
  ScratchBuffer<float> rows;   // outputs or output gradients [Cout, g*cols]
  // One zero-padded input plane [H+2p, W+2p], taken by the thread that runs
  // a sample's im2col or col2im (a pool worker at budget > 1).
  ScratchBuffer<float> plane;
};

ConvScratch& ThreadConvScratch() {
  thread_local ConvScratch scratch;
  return scratch;
}

// dst[0, n) = src[0, n). From n = 4 up, as inline 4-float moves, the last
// one ending at n and overlapping the one before it when 4 does not divide
// n: a memcpy call per short run costs 2-3x as much.
inline void CopyRun(const float* src, std::int64_t n, float* dst) {
  if (n < 4) {
    for (std::int64_t j = 0; j < n; ++j) dst[j] = src[j];
    return;
  }
  for (std::int64_t j = 0; j + 4 < n; j += 4) {
    std::memcpy(dst + j, src + j, 4 * sizeof(float));
  }
  std::memcpy(dst + n - 4, src + n - 4, 4 * sizeof(float));
}

// dst[0, n) += src[0, n), one add per element. Four at a time through
// locals, so the adds vectorize; a scalar loop takes the tail.
inline void AddRun(const float* src, std::int64_t n, float* dst) {
  std::int64_t j = 0;
  for (; j + 4 <= n; j += 4) {
    float a0 = dst[j] + src[j];
    float a1 = dst[j + 1] + src[j + 1];
    float a2 = dst[j + 2] + src[j + 2];
    float a3 = dst[j + 3] + src[j + 3];
    dst[j] = a0;
    dst[j + 1] = a1;
    dst[j + 2] = a2;
    dst[j + 3] = a3;
  }
  for (; j < n; ++j) dst[j] += src[j];
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
  std::int64_t pad = padding_;
  std::int64_t pw = w + 2 * pad;
  std::int64_t plane_floats = (h + 2 * pad) * pw;
  float* plane = ThreadConvScratch().plane.EnsureCapacity(
      static_cast<std::size_t>(plane_floats));
  // Zeroed once: each channel overwrites only the interior, so the border
  // stays zero.
  std::fill(plane, plane + plane_floats, 0.0f);
  for (std::int64_t c = 0; c < in_channels_; ++c) {
    for (std::int64_t ih = 0; ih < h; ++ih) {
      CopyRun(img + (c * h + ih) * w, w, plane + (pad + ih) * pw + pad);
    }
    // Row (c, kh, kw) of the panel reads out_h segments of the plane, one
    // per output row, each wholly inside it.
    for (int kh = 0; kh < kernel_; ++kh) {
      for (int kw = 0; kw < kernel_; ++kw) {
        std::int64_t row = (c * kernel_ + kh) * kernel_ + kw;
        float* dst = col + row * ld;
        const float* src = plane + kh * pw + kw;
        for (std::int64_t oh = 0; oh < out_h; ++oh) {
          const float* seg = src + oh * stride_ * pw;
          float* out = dst + oh * out_w;
          if (stride_ == 1) {
            CopyRun(seg, out_w, out);
          } else {
            for (std::int64_t ow = 0; ow < out_w; ++ow) {
              out[ow] = seg[ow * stride_];
            }
          }
        }
      }
    }
  }
}

void Conv2d::Col2Im(const float* col, std::int64_t ld, std::int64_t h,
                    std::int64_t w, std::int64_t out_h, std::int64_t out_w,
                    float* img) const {
  std::int64_t pad = padding_;
  std::int64_t pw = w + 2 * pad;
  std::int64_t plane_floats = (h + 2 * pad) * pw;
  float* plane = ThreadConvScratch().plane.EnsureCapacity(
      static_cast<std::size_t>(plane_floats));
  for (std::int64_t c = 0; c < in_channels_; ++c) {
    // Every pixel, border included, sums its terms in (kh, kw) order from
    // +0.0f; the interior is the channel's gradient.
    std::fill(plane, plane + plane_floats, 0.0f);
    for (int kh = 0; kh < kernel_; ++kh) {
      for (int kw = 0; kw < kernel_; ++kw) {
        std::int64_t row = (c * kernel_ + kh) * kernel_ + kw;
        const float* src = col + row * ld;
        float* dst = plane + kh * pw + kw;
        for (std::int64_t oh = 0; oh < out_h; ++oh) {
          const float* in = src + oh * out_w;
          float* seg = dst + oh * stride_ * pw;
          if (stride_ == 1) {
            AddRun(in, out_w, seg);
          } else {
            for (std::int64_t ow = 0; ow < out_w; ++ow) {
              seg[ow * stride_] += in[ow];
            }
          }
        }
      }
    }
    for (std::int64_t ih = 0; ih < h; ++ih) {
      CopyRun(plane + (pad + ih) * pw + pad, w, img + (c * h + ih) * w);
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
  float* gx = nullptr;
  if (grad_in != nullptr) {
    EnsureShape(cached_in_.shape(), grad_in);
    gx = grad_in->data();
  }
  std::int64_t group = GroupSize(cols);
  ConvScratch& scratch = ThreadConvScratch();
  float* panel = scratch.panel.EnsureCapacity(
      static_cast<std::size_t>(patch * group * cols));
  float* rows = scratch.rows.EnsureCapacity(
      static_cast<std::size_t>(out_channels_ * group * cols));
  const float* x = cached_in_.data();
  const float* gy = grad_out.data();
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
    if (gx == nullptr) continue;  // nobody reads d(loss)/d(input)
    // dcol [patch, n] = W^T [patch, Cout] * gout [Cout, n], into the spent
    // panel.
    Gemm(true, false, patch, n, out_channels_, 1.0f, weight_.data(), patch,
         rows, n, 0.0f, panel, n);
    ParallelFor(g0, g1, /*grain=*/1, [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) {
        Col2Im(panel + (i - g0) * cols, n, h, w, out_h, out_w,
               gx + i * in_chw);
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
