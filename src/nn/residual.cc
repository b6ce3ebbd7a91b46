#include "nn/residual.h"

#include "tensor/tensor_ops.h"

namespace gmreg {

Residual::Residual(std::string name, std::unique_ptr<Sequential> main_path,
                   std::unique_ptr<Sequential> shortcut)
    : Layer(std::move(name)),
      main_(std::move(main_path)),
      shortcut_(std::move(shortcut)) {
  GMREG_CHECK(main_ != nullptr);
}

void Residual::Forward(const Tensor& in, Tensor* out, bool train) {
  main_->Forward(in, &main_out_, train);
  const Tensor* residual = &in;
  if (shortcut_ != nullptr) {
    shortcut_->Forward(in, &shortcut_out_, train);
    residual = &shortcut_out_;
  }
  GMREG_CHECK(main_out_.SameShape(*residual))
      << "residual shape mismatch in '" << name() << "': "
      << main_out_.ShapeString() << " vs " << residual->ShapeString();
  EnsureShape(main_out_.shape(), out);
  const float* mp = main_out_.data();
  const float* rp = residual->data();
  float* op = out->data();
  std::int64_t n = main_out_.size();
  if (train) {
    relu_mask_.assign(static_cast<std::size_t>(n), false);
    for (std::int64_t i = 0; i < n; ++i) {
      float s = mp[i] + rp[i];
      bool pos = s > 0.0f;
      relu_mask_[static_cast<std::size_t>(i)] = pos;
      op[i] = pos ? s : 0.0f;
    }
  } else {
    for (std::int64_t i = 0; i < n; ++i) {
      float s = mp[i] + rp[i];
      op[i] = s > 0.0f ? s : 0.0f;
    }
  }
}

void Residual::Backward(const Tensor& grad_out, Tensor* grad_in) {
  std::int64_t n = grad_out.size();
  GMREG_CHECK_EQ(static_cast<std::int64_t>(relu_mask_.size()), n);
  EnsureShape(grad_out.shape(), &relu_grad_);
  const float* gp = grad_out.data();
  float* rg = relu_grad_.data();
  for (std::int64_t i = 0; i < n; ++i) {
    rg[i] = relu_mask_[static_cast<std::size_t>(i)] ? gp[i] : 0.0f;
  }
  // Without a grad_in the branches only accumulate their parameter
  // gradients, and there is nothing to add.
  bool want_in = grad_in != nullptr;
  main_->Backward(relu_grad_, want_in ? &main_grad_ : nullptr);
  if (shortcut_ != nullptr) {
    shortcut_->Backward(relu_grad_, want_in ? &shortcut_grad_ : nullptr);
  }
  if (!want_in) return;
  EnsureShape(main_grad_.shape(), grad_in);
  Add(main_grad_, shortcut_ != nullptr ? shortcut_grad_ : relu_grad_,
      grad_in);
}

bool Residual::BindQuantizedWeight(const std::string& param_name,
                                  const QuantizedMatrix* q) {
  if (main_->BindQuantizedWeight(param_name, q)) return true;
  return shortcut_ != nullptr && shortcut_->BindQuantizedWeight(param_name, q);
}

void Residual::CollectParams(std::vector<ParamRef>* out) {
  main_->CollectParams(out);
  if (shortcut_ != nullptr) shortcut_->CollectParams(out);
}

}  // namespace gmreg
