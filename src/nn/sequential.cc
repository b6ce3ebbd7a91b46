#include "nn/sequential.h"

namespace gmreg {

Sequential::Sequential(std::string name) : Layer(std::move(name)) {}

Layer* Sequential::Add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  return layers_.back().get();
}

void Sequential::Forward(const Tensor& in, Tensor* out, bool train) {
  GMREG_CHECK(!layers_.empty()) << "empty Sequential '" << name() << "'";
  // First batch of a new shape: plan — size the whole activation chain into
  // the arena. When a caller (Trainer::Step, InferenceSession::Predict)
  // already installed a scope this nests harmlessly onto the same arena and
  // does not double-count the rebuild.
  bool replan = plan_.Update(in.shape().data(), in.rank());
  if (replan && Arena::Current() == nullptr) RecordArenaPlanRebuild();
  ArenaScope plan_scope(replan ? &GlobalArena() : nullptr);
  acts_.resize(layers_.size());
  const Tensor* current = &in;
  for (std::size_t i = 0; i + 1 < layers_.size(); ++i) {
    layers_[i]->Forward(*current, &acts_[i], train);
    current = &acts_[i];
  }
  layers_.back()->Forward(*current, out, train);
}

void Sequential::Backward(const Tensor& grad_out, Tensor* grad_in) {
  const Tensor* current = &grad_out;
  grads_.resize(layers_.size());
  for (std::size_t i = layers_.size(); i-- > 1;) {
    Tensor* next = &grads_[i];
    layers_[i]->Backward(*current, next);
    current = next;
  }
  layers_[0]->Backward(*current, grad_in);  // nullptr passes through
}

bool Sequential::BindQuantizedWeight(const std::string& param_name,
                                    const QuantizedMatrix* q) {
  for (auto& layer : layers_) {
    if (layer->BindQuantizedWeight(param_name, q)) return true;
  }
  return false;
}

void Sequential::CollectParams(std::vector<ParamRef>* out) {
  for (auto& layer : layers_) layer->CollectParams(out);
}

}  // namespace gmreg
