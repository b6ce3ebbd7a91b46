#include "serve/inference_session.h"

#include <algorithm>
#include <utility>

#include "models/alex_cifar10.h"
#include "models/resnet.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/sequential.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace gmreg {
namespace {

// "mlp:8:16:2" -> {"mlp", "8", "16", "2"}.
std::vector<std::string> SplitSpec(const std::string& spec) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (;;) {
    std::size_t colon = spec.find(':', start);
    if (colon == std::string::npos) {
      parts.push_back(spec.substr(start));
      return parts;
    }
    parts.push_back(spec.substr(start, colon - start));
    start = colon + 1;
  }
}

Status ParsePositiveInt(const std::string& token, const char* what,
                        std::int64_t* out) {
  std::int64_t value = 0;
  for (char c : token) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument(StrFormat("bad %s '%s' in model spec",
                                               what, token.c_str()));
    }
    value = value * 10 + (c - '0');
    if (value > 1000000000) break;
  }
  if (token.empty() || value <= 0 || value > 1000000000) {
    return Status::InvalidArgument(
        StrFormat("%s must be a positive integer (got '%s')", what,
                  token.c_str()));
  }
  *out = value;
  return Status::Ok();
}

}  // namespace

Status ApplyModelSnapshot(const ModelSnapshot& snap,
                          const std::vector<ParamRef>& params) {
  if (snap.params.size() != params.size()) {
    return Status::FailedPrecondition(StrFormat(
        "checkpoint has %d parameter tensors, the serving network has %d",
        static_cast<int>(snap.params.size()), static_cast<int>(params.size())));
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (snap.param_names[i] != params[i].name) {
      return Status::FailedPrecondition(
          "checkpoint parameter '" + snap.param_names[i] +
          "' does not match network parameter '" + params[i].name + "'");
    }
    if (!snap.params[i].SameShape(*params[i].value)) {
      return Status::FailedPrecondition(
          "checkpoint parameter '" + snap.param_names[i] + "' has shape " +
          snap.params[i].ShapeString() + ", the network expects " +
          params[i].value->ShapeString());
    }
  }
  // All-or-nothing: validation above passed, so the copies below cannot
  // leave the network in a mixed state.
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Tensor& src = snap.params[i];
    std::copy(src.data(), src.data() + src.size(), params[i].value->data());
  }
  return Status::Ok();
}

Status ParseModelSpec(const std::string& spec, ModelSpec* out) {
  GMREG_CHECK(out != nullptr);
  std::vector<std::string> parts = SplitSpec(spec);
  const std::string& arch = parts[0];
  ModelSpec result;
  result.name = spec;
  if (arch == "mlp") {
    if (parts.size() != 4) {
      return Status::InvalidArgument(
          "mlp spec is mlp:<in>:<hidden>:<classes> (got '" + spec + "')");
    }
    std::int64_t in = 0, hidden = 0, classes = 0;
    GMREG_RETURN_IF_ERROR(ParsePositiveInt(parts[1], "input size", &in));
    GMREG_RETURN_IF_ERROR(ParsePositiveInt(parts[2], "hidden size", &hidden));
    GMREG_RETURN_IF_ERROR(ParsePositiveInt(parts[3], "class count", &classes));
    result.input_shape = {in};
    result.factory = [in, hidden, classes]() -> std::unique_ptr<Layer> {
      // Weights are overwritten by the bound snapshot; the seed only needs
      // to be deterministic.
      Rng rng(1);
      auto net = std::make_unique<Sequential>("mlp");
      net->Emplace<Dense>("fc1", in, hidden, InitSpec::Gaussian(0.1), &rng);
      net->Emplace<Relu>("relu1");
      net->Emplace<Dense>("fc2", hidden, classes, InitSpec::Gaussian(0.1),
                          &rng);
      return net;
    };
  } else if (arch == "alex") {
    if (parts.size() > 3) {
      return Status::InvalidArgument(
          "alex spec is alex[:hw[:classes]] (got '" + spec + "')");
    }
    AlexCifar10Config config;
    std::int64_t hw = config.input_hw, classes = config.num_classes;
    if (parts.size() >= 2) {
      GMREG_RETURN_IF_ERROR(ParsePositiveInt(parts[1], "input size", &hw));
    }
    if (parts.size() >= 3) {
      GMREG_RETURN_IF_ERROR(
          ParsePositiveInt(parts[2], "class count", &classes));
    }
    config.input_hw = static_cast<int>(hw);
    config.num_classes = static_cast<int>(classes);
    result.input_shape = {config.input_channels, hw, hw};
    result.factory = [config]() -> std::unique_ptr<Layer> {
      Rng rng(1);
      return BuildAlexCifar10(config, &rng);
    };
  } else if (arch == "resnet") {
    if (parts.size() > 3) {
      return Status::InvalidArgument(
          "resnet spec is resnet[:hw[:blocks]] (got '" + spec + "')");
    }
    ResNetConfig config;
    std::int64_t hw = config.input_hw, blocks = config.blocks_per_stage;
    if (parts.size() >= 2) {
      GMREG_RETURN_IF_ERROR(ParsePositiveInt(parts[1], "input size", &hw));
    }
    if (parts.size() >= 3) {
      GMREG_RETURN_IF_ERROR(
          ParsePositiveInt(parts[2], "blocks per stage", &blocks));
    }
    config.input_hw = static_cast<int>(hw);
    config.blocks_per_stage = static_cast<int>(blocks);
    result.input_shape = {config.input_channels, hw, hw};
    result.factory = [config]() -> std::unique_ptr<Layer> {
      Rng rng(1);
      return BuildResNet(config, &rng);
    };
  } else {
    return Status::InvalidArgument("unknown model architecture '" + arch +
                                   "' (want mlp|alex|resnet)");
  }
  *out = std::move(result);
  return Status::Ok();
}

InferenceSession::InferenceSession(ModelRegistry* registry,
                                   ModelFactory factory, bool quantize)
    : registry_(registry),
      factory_(std::move(factory)),
      quantize_(quantize),
      quantized_requests_(MetricsRegistry::Global().counter(
          "gm.serve.quantized_requests")) {
  GMREG_CHECK(registry_ != nullptr);
  GMREG_CHECK(factory_ != nullptr);
}

Status InferenceSession::Rebind(std::shared_ptr<const LoadedModel> model) {
  if (net_ == nullptr) {
    net_ = factory_();
    GMREG_CHECK(net_ != nullptr) << "model factory returned null";
    net_->CollectParams(&params_);
  }
  GMREG_RETURN_IF_ERROR(ApplyModelSnapshot(model->snapshot, params_));
  if (quantize_) {
    if (model->quantized.empty()) {
      return Status::FailedPrecondition(
          "session requires quantized weights but model version " +
          std::to_string(model->version) +
          " was published without them (registry quantization off?)");
    }
    // Bind the publish-time int8 snapshots; `model` (held in bound_ below)
    // keeps the storage alive until the next rebind completes.
    for (std::size_t i = 0; i < params_.size(); ++i) {
      const QuantizedMatrix& q = model->quantized[i];
      if (!q.valid()) continue;
      GMREG_CHECK(net_->BindQuantizedWeight(params_[i].name, &q))
          << "no layer accepted quantized weight '" << params_[i].name << "'";
    }
  }
  bound_ = std::move(model);
  MetricsRegistry::Global().counter("gm.serve.rebinds")->Add(1);
  return Status::Ok();
}

Status InferenceSession::Predict(const Tensor& in, Tensor* out,
                                 bool rebind) {
  GMREG_CHECK(out != nullptr);
  // One cheap atomic read per call; the shared_ptr copy (a lock) only
  // happens when the registry actually moved.
  if (bound_ == nullptr ||
      (rebind && registry_->version() != bound_->version)) {
    std::shared_ptr<const LoadedModel> current = registry_->Current();
    if (current == nullptr) {
      return Status::FailedPrecondition(
          "no model published yet (registry has not loaded a checkpoint)");
    }
    if (bound_ == nullptr || current->version != bound_->version) {
      GMREG_RETURN_IF_ERROR(Rebind(std::move(current)));
    }
  }
  // Plan-once: a new input shape sizes the intermediates into the arena;
  // repeat shapes reuse them allocation-free (docs/MEMORY.md).
  bool replan = plan_.Update(in.shape().data(), in.rank());
  if (replan) RecordArenaPlanRebuild();
  ArenaScope plan_scope(replan ? &GlobalArena() : nullptr);
  net_->Predict(in, out);
  if (quantize_) quantized_requests_->Add(in.dim(0));
  return Status::Ok();
}

}  // namespace gmreg
