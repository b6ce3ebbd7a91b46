#ifndef GMREG_NN_CONV_H_
#define GMREG_NN_CONV_H_

#include <string>
#include <vector>

#include "nn/layer.h"
#include "util/rng.h"

namespace gmreg {

/// 2-d convolution (NCHW) via im2col + GEMM. Weight layout is
/// [Cout, Cin*Kh*Kw]. The batch runs in sample groups whose boundaries
/// depend only on the layer shape and the batch size: each group is one
/// im2col panel [Cin*Kh*Kw, g*Hout*Wout] and one GEMM per pass, so the
/// output and all gradients are bitwise identical at every thread budget
/// (docs/KERNELS.md). im2col and col2im go through one zero-padded input
/// plane [H+2p, W+2p] per thread, so they read and write it with no bounds
/// test. `Backward(grad_out, nullptr)` skips the column-gradient GEMM and
/// col2im and still accumulates dW and db.
class Conv2d : public Layer {
 public:
  Conv2d(std::string name, std::int64_t in_channels, std::int64_t out_channels,
         int kernel, int stride, int padding, const InitSpec& init, Rng* rng);

  void Forward(const Tensor& in, Tensor* out, bool train) override;
  void Backward(const Tensor& grad_out, Tensor* grad_in) override;
  void CollectParams(std::vector<ParamRef>* out) override;
  bool BindQuantizedWeight(const std::string& param_name,
                           const QuantizedMatrix* q) override;

  Tensor& weight() { return weight_; }
  double init_stddev() const { return init_stddev_; }

  /// Output spatial size for an input extent `in_size`.
  std::int64_t OutSize(std::int64_t in_size) const {
    return (in_size + 2 * padding_ - kernel_) / stride_ + 1;
  }

 private:
  /// Samples per group for `cols` output positions per sample: as many as
  /// keep the group's panel and its [Cout, g*cols] rows under a fixed float
  /// bound, and at least one.
  std::int64_t GroupSize(std::int64_t cols) const;
  /// Writes one sample's im2col columns into a panel whose rows are `ld`
  /// floats apart (0 where the window hangs over the padding). Each channel
  /// is copied into the interior of the calling thread's padded plane, whose
  /// border is zero; every panel row is then out_h segments of that plane.
  void Im2Col(const float* img, std::int64_t h, std::int64_t w,
              std::int64_t out_h, std::int64_t out_w, float* col,
              std::int64_t ld) const;
  /// Overwrites `img` with one sample's columns (rows `ld` floats apart)
  /// summed back to pixels. Per channel, the calling thread's padded plane
  /// is zeroed, each segment is added into it in (kh, kw) order, and the
  /// interior is copied out.
  void Col2Im(const float* col, std::int64_t ld, std::int64_t h,
              std::int64_t w, std::int64_t out_h, std::int64_t out_w,
              float* img) const;

  std::int64_t in_channels_;
  std::int64_t out_channels_;
  int kernel_;
  int stride_;
  int padding_;
  double init_stddev_;
  Tensor weight_;       // [Cout, Cin*K*K]
  Tensor bias_;         // [Cout]
  Tensor weight_grad_;
  Tensor bias_grad_;
  Tensor cached_in_;    // [B, Cin, H, W]
  // Int8 snapshot of weight_ for eval-mode forwards, owned by the caller of
  // BindQuantizedWeight (the serving model registry); nullptr = float path.
  const QuantizedMatrix* quantized_weight_ = nullptr;
};

}  // namespace gmreg

#endif  // GMREG_NN_CONV_H_
